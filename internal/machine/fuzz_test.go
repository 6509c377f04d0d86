package machine

import (
	"reflect"
	"testing"

	"scatteradd/internal/fault"
	"scatteradd/internal/mem"
	"scatteradd/internal/stats"
)

// Address regions of the fuzzed programs: integer scatter-adds and
// fetch-adds land in [0, fuzzWords), stores in [fuzzStoreBase,
// fuzzStoreBase+fuzzWords), so the scatter-add region's final image is the
// sequential fold of the deltas whatever order the streams overlap in.
const (
	fuzzWords     = 4096
	fuzzStoreBase = mem.Addr(1 << 16)
)

// fuzzBytes reads a fuzz input byte by byte; past the end it reads zero.
type fuzzBytes []byte

func (b *fuzzBytes) next() int {
	if len(*b) == 0 {
		return 0
	}
	v := (*b)[0]
	*b = (*b)[1:]
	return int(v)
}

// fuzzMachine decodes a machine configuration: one of configVariants with
// its bank count, combining-store entries, FU latency, memory and faults
// replaced. Bytes in order:
//
//	variant, banks-1 (mod 8), entries-1 (mod 64), FU latency-1 (mod 16),
//	memory (odd: uniform), uniform latency-1 (mod 64), interval-1 (mod 16),
//	faults (0: off, else fault.DefaultChaos scaled by byte/32)
//
// A bank count keeps the variant's sets per bank and ways.
func fuzzMachine(in *fuzzBytes) Config {
	vs := configVariants()
	cfg := vs[in.next()%len(vs)]
	banks := 1 + in.next()%8
	sets := max(1, cfg.Cache.TotalLines/(cfg.Cache.Banks*cfg.Cache.Ways))
	cfg.Cache.Banks, cfg.Cache.TotalLines = banks, banks*cfg.Cache.Ways*sets
	cfg.SA.Entries = 1 + in.next()%64
	cfg.SA.FULatency = 1 + in.next()%16
	uniform, lat, interval := in.next()%2 == 1, 1+in.next()%64, 1+in.next()%16
	cfg.UniformMem = nil
	if uniform {
		cfg.UniformMem = &UniformMemConfig{Latency: lat, Interval: interval}
	}
	cfg.Faults = fault.DefaultChaos().Scale(float64(in.next()) / 32)
	return cfg
}

// fuzzProgram decodes up to 8 ops of 4 bytes each: kind, size, range and
// seed. kind%64%6 picks a scatter-add, a fetch-add, a gather, a store, a
// kernel or a fence; bit 6 of kind adds one reference to 2*size (0 to 511),
// and bit 7 makes a memory op Async. Scatter-adds, fetch-adds and gathers
// draw addresses below 1+16*range from a generator seeded by seed, and a
// gather reads the store region when seed is odd. A kernel runs
// 4*(size<<8|range) flops.
func fuzzProgram(in *fuzzBytes) []Op {
	var prog []Op
	for len(prog) < 8 && len(*in) > 0 {
		kind, size, rng, seed := in.next(), in.next(), in.next(), in.next()
		n, span := 2*size+kind>>6&1, uint64(1+16*rng)
		state := uint64(seed)
		draw := func() uint64 {
			state = state*6364136223846793005 + 1442695040888963407
			return state >> 33
		}
		addrs := make([]mem.Addr, n)
		vals := make([]mem.Word, n)
		for i := range addrs {
			addrs[i] = mem.Addr(draw() % span)
			vals[i] = mem.I64(int64(draw()%17) - 8)
		}
		var op Op
		switch kind % 64 % 6 {
		case 0:
			op = ScatterAdd("sa", mem.AddI64, addrs, vals)
		case 1:
			op = ScatterAdd("fa", mem.FetchAddI64, addrs, vals)
		case 2:
			if seed%2 == 1 {
				for i := range addrs {
					addrs[i] += fuzzStoreBase
				}
			}
			op = Gather("gather", addrs)
		case 3:
			op = StoreStream("store", fuzzStoreBase+mem.Addr(seed*8), vals)
		case 4:
			op = Kernel("kernel", float64(4*(size<<8|rng)), 0)
		case 5:
			op = Fence()
		}
		op.Async = op.Kind == OpMem && kind >= 128
		prog = append(prog, op)
	}
	return prog
}

// fuzzReply is one read or fetch response, tagged with the op that issued
// it.
type fuzzReply struct {
	op int
	r  mem.Response
}

// fuzzRun is everything one stepping mode shows of a fuzzed run.
type fuzzRun struct {
	results []Result
	nows    []uint64
	replies []fuzzReply
	snap    stats.Snapshot
	adds    []int64 // scatter-add region after the final fence and flush
	stores  []int64 // store region
}

// runFuzz runs prog on a fresh machine and records it op by op, then
// fences and flushes.
func runFuzz(cfg Config, prog []Op) fuzzRun {
	m := New(cfg)
	var run fuzzRun
	for i, op := range prog {
		if op.Kind == OpMem && (op.MemKind == mem.Read || op.MemKind.IsFetch()) {
			op.OnResp = func(r mem.Response) { run.replies = append(run.replies, fuzzReply{i, r}) }
		}
		run.results = append(run.results, m.RunOp(op))
		run.nows = append(run.nows, m.Now())
	}
	m.RunOp(Fence())
	m.FlushCaches()
	run.nows = append(run.nows, m.Now())
	run.snap = m.StatsSnapshot()
	run.adds = m.Store().ReadI64Slice(0, fuzzWords)
	run.stores = m.Store().ReadI64Slice(fuzzStoreBase, fuzzWords)
	return run
}

// FuzzMachineStepping decodes a small machine (fuzzMachine) and a short
// program (fuzzProgram), runs it under fast-forward and under legacy
// stepping, and requires the two to agree on every op's Result, on the
// clock after every op, on every read and fetch reply, on the full counter
// snapshot and on the memory image. The scatter-add region must also hold
// the sequential fold of every scatter-add's and fetch-add's deltas.
func FuzzMachineStepping(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		in := fuzzBytes(data)
		cfg := fuzzMachine(&in)
		prog := fuzzProgram(&in)
		fast := runFuzz(cfg, prog)
		cfg.LegacyStepping = true
		slow := runFuzz(cfg, prog)
		for i := range fast.nows {
			if fast.nows[i] != slow.nows[i] {
				t.Fatalf("clock diverges after op %d: fast-forward %d, legacy %d", i, fast.nows[i], slow.nows[i])
			}
		}
		for i := range fast.results {
			if fast.results[i] != slow.results[i] {
				t.Fatalf("op %d: fast-forward %+v, legacy %+v", i, fast.results[i], slow.results[i])
			}
		}
		if !reflect.DeepEqual(fast.replies, slow.replies) {
			t.Fatalf("replies differ: %d under fast-forward, %d under legacy stepping", len(fast.replies), len(slow.replies))
		}
		for i, e := range fast.snap.Entries {
			if e != slow.snap.Entries[i] {
				t.Fatalf("counter %q: fast-forward %d, legacy %d", e.Key, e.Val, slow.snap.Entries[i].Val)
			}
		}
		if !reflect.DeepEqual(fast.stores, slow.stores) {
			t.Fatalf("store regions differ")
		}
		want := make([]int64, fuzzWords)
		for _, op := range prog {
			if op.Kind != OpMem || !op.MemKind.IsScatterAdd() {
				continue
			}
			for i := range op.Addrs {
				want[op.Addrs[i]] += mem.AsI64(op.Vals[i])
			}
		}
		for a := range want {
			if fast.adds[a] != want[a] || slow.adds[a] != want[a] {
				t.Fatalf("word %d: fast-forward %d, legacy %d, sequential fold %d", a, fast.adds[a], slow.adds[a], want[a])
			}
		}
	})
}
