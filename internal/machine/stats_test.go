package machine

import (
	"reflect"
	"strings"
	"testing"

	"scatteradd/internal/cache"
	"scatteradd/internal/fault"
	"scatteradd/internal/mem"
	"scatteradd/internal/saunit"
)

// sumFields returns the field-by-field total of per-instance Stats structs:
// counters add, and high-water fields (named ...Max) take the maximum.
func sumFields[S any](all []S) S {
	var out S
	o := reflect.ValueOf(&out).Elem()
	for _, s := range all {
		v := reflect.ValueOf(s)
		for i := 0; i < v.NumField(); i++ {
			f, x := o.Field(i), v.Field(i).Uint()
			if strings.HasSuffix(o.Type().Field(i).Name, "Max") {
				f.SetUint(max(f.Uint(), x))
			} else {
				f.SetUint(f.Uint() + x)
			}
		}
	}
	return out
}

// TestComponentStatsSumEveryField: ComponentStats and Run's Result report
// exactly the field-by-field totals of every unit's and bank's own Stats.
// The write-no-allocate cache under the chaos faults makes the
// write-combining and fault fields count, so a total that drops a field
// shows here.
func TestComponentStatsSumEveryField(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Cache.WriteNoAllocate = true
	cfg.Faults = fault.DefaultChaos()
	m := New(cfg)
	const n = 4096
	addrs := make([]mem.Addr, n)
	vals := make([]mem.Word, n)
	for i := range addrs {
		addrs[i] = mem.Addr(i * 3)
		vals[i] = mem.I64(int64(i))
	}
	res := m.Run([]Op{
		Scatter("store", addrs, vals),
		StoreStream("stream", 1<<16, vals[:n/4]),
		chaosOp(n, 512),
		Gather("load", addrs[:n/4]),
	})

	var sas []saunit.Stats
	for _, u := range m.sas {
		sas = append(sas, u.Stats())
	}
	var banks []cache.Stats
	for _, b := range m.banks {
		banks = append(banks, b.Stats())
	}
	wantSA, wantCache := sumFields(sas), sumFields(banks)
	if wantCache.WCBMerges == 0 || wantCache.WCBSpills == 0 || wantCache.WCBFullLines == 0 {
		t.Fatalf("run did not exercise the write-combining buffer: %+v", wantCache)
	}

	sa, cs, ds := m.ComponentStats()
	if sa != wantSA {
		t.Errorf("ComponentStats unit totals\n got %+v\nwant %+v", sa, wantSA)
	}
	if cs != wantCache {
		t.Errorf("ComponentStats cache totals\n got %+v\nwant %+v", cs, wantCache)
	}
	if ds != m.dram.Stats() {
		t.Errorf("ComponentStats DRAM = %+v, want %+v", ds, m.dram.Stats())
	}
	if res.SAStats != wantSA || res.CacheStats != wantCache || res.DRAMStats != m.dram.Stats() {
		t.Errorf("Run's Result totals\n got %+v %+v %+v\nwant %+v %+v %+v",
			res.SAStats, res.CacheStats, res.DRAMStats, wantSA, wantCache, m.dram.Stats())
	}
}
