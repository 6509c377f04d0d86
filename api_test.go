package scatteradd

import (
	"math"
	"testing"
	"testing/quick"
)

func TestHistogramI64QuickStart(t *testing.T) {
	m := New()
	data := []int{3, 1, 3, 7, 3, 1}
	bins, res := HistogramI64(m, data, 8)
	want := []int64{0, 2, 0, 3, 0, 0, 0, 1}
	for i := range want {
		if bins[i] != want[i] {
			t.Fatalf("bins = %v want %v", bins, want)
		}
	}
	if res.Cycles == 0 || res.MemRefs != uint64(len(data)) {
		t.Fatalf("result: %+v", res)
	}
}

func TestHistogramI64RangeCheck(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	HistogramI64(New(), []int{9}, 8)
}

func TestScatterAddF64Helper(t *testing.T) {
	m := New()
	ScatterAddF64(m, 100, []int{0, 2, 0}, []float64{1.5, 2.0, 2.5})
	m.FlushCaches()
	if got := m.Store().LoadF64(100); got != 4.0 {
		t.Fatalf("target[0] = %g", got)
	}
	if got := m.Store().LoadF64(102); got != 2.0 {
		t.Fatalf("target[2] = %g", got)
	}
}

func TestScatterAddF64LengthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	ScatterAddF64(New(), 0, []int{1}, nil)
}

func TestFigureDispatch(t *testing.T) {
	if _, err := Figure(5, ExpOptions{Scale: 16}); err == nil {
		t.Fatal("figure 5 should not exist")
	}
	tab, err := Figure(11, ExpOptions{Scale: 16})
	if err != nil || len(tab.Rows) == 0 {
		t.Fatalf("figure 11: %v, %d rows", err, len(tab.Rows))
	}
}

func TestTable1Public(t *testing.T) {
	if len(Table1().Rows) < 10 {
		t.Fatal("Table1 too small")
	}
}

func TestAblationsPublic(t *testing.T) {
	tabs := Ablations(ExpOptions{Scale: 16})
	if len(tabs) != 8 {
		t.Fatalf("ablations: %d tables", len(tabs))
	}
}

func TestAreaEstimatePublic(t *testing.T) {
	mm2, frac := AreaEstimate(8, 8)
	if mm2 != 1.6 || frac > 0.02 {
		t.Fatalf("area: %g mm2, %g", mm2, frac)
	}
}

func TestSoftwareMethodsPublic(t *testing.T) {
	m := New()
	addrs := []Addr{10, 11, 10}
	SortScan(m, AddI64, addrs, []Word{I64(2)}, 0)
	m.FlushCaches()
	if got := m.Store().LoadI64(10); got != 4 {
		t.Fatalf("sortscan result %d", got)
	}
}

func TestMultiNodePublic(t *testing.T) {
	cfg := DefaultMultiNodeConfig(2, 8, 128)
	cfg.Cache.TotalLines = 256
	s := NewMultiNode(cfg, AddI64)
	refs := []MultiNodeRef{{Addr: 5, Val: I64(1)}, {Addr: 200, Val: I64(2)}, {Addr: 5, Val: I64(3)}}
	res := s.RunTrace(refs)
	if res.Adds != 3 {
		t.Fatalf("adds = %d", res.Adds)
	}
	got := s.ReadResult([]Addr{5, 200})
	if AsI64(got[0]) != 4 || AsI64(got[1]) != 2 {
		t.Fatalf("results: %d %d", AsI64(got[0]), AsI64(got[1]))
	}
}

func TestPrefixSumI64(t *testing.T) {
	m := New(WithConfig(ScanConfig()))
	vals := []int64{5, -2, 7, 0, 3}
	prefix, total, res := PrefixSumI64(m, vals)
	want := []int64{0, 5, 3, 10, 10}
	for i := range want {
		if prefix[i] != want[i] {
			t.Fatalf("prefix = %v want %v", prefix, want)
		}
	}
	if total != 13 || res.Cycles == 0 {
		t.Fatalf("total=%d res=%+v", total, res)
	}
}

func TestPrefixSumRequiresScanConfig(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	PrefixSumI64(New(), []int64{1})
}

// Property: the public helper matches a plain Go accumulation.
func TestScatterAddF64Property(t *testing.T) {
	f := func(idx []uint8, raw []int8) bool {
		n := len(idx)
		if len(raw) < n {
			n = len(raw)
		}
		if n == 0 {
			return true
		}
		m := New()
		ref := map[int]float64{}
		ii := make([]int, n)
		vv := make([]float64, n)
		for i := 0; i < n; i++ {
			ii[i] = int(idx[i] % 64)
			vv[i] = float64(raw[i]) / 8
			ref[ii[i]] += vv[i]
		}
		ScatterAddF64(m, 0, ii, vv)
		m.FlushCaches()
		for k, want := range ref {
			if math.Abs(m.Store().LoadF64(Addr(k))-want) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Error(err)
	}
}
