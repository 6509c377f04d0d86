// Package machine models a single node of the simulated stream processor
// (the paper's Table 1 configuration, patterned on Merrimac): 16 data
// parallel clusters executing kernels out of a stream register file, two
// address generators feeding an address-partitioned stream cache of 8 banks
// with one scatter-add unit per bank, and 16 DRAM channels behind the cache.
//
// Programs are sequences of stream operations (kernel executions and
// memory-stream transfers), mirroring the gather/compute/scatter phase
// structure of §3.1. Kernels are modeled by a throughput cost (peak FP rate
// and SRF bandwidth bound, plus a startup overhead that models priming the
// stream pipeline); memory operations are simulated cycle by cycle through
// the scatter-add units, cache banks, and DRAM.
//
// The machine also supports the cache-less "uniform memory" configuration
// of the sensitivity study (§4.4): one scatter-add unit in front of a
// fixed-latency, fixed-interval word memory.
package machine

import (
	"fmt"

	"scatteradd/internal/cache"
	"scatteradd/internal/cluster"
	"scatteradd/internal/dram"
	"scatteradd/internal/fault"
	"scatteradd/internal/mem"
	"scatteradd/internal/saunit"
	"scatteradd/internal/span"
	"scatteradd/internal/stats"
)

// UniformMemConfig selects the cache-less sensitivity-study memory system.
type UniformMemConfig struct {
	Latency  int // cycles from issue to data
	Interval int // minimum cycles between successive word accesses
}

// Config describes one node.
type Config struct {
	// Compute model (Table 1).
	Clusters         int     // 16
	MaddsPerCluster  int     // 4 multiply-adds per cycle per cluster
	SRFWordsPerCycle float64 // SRF bandwidth in words/cycle (512 GB/s -> 64)
	KernelStartup    int     // cycles to launch a kernel
	MemOpStartup     int     // cycles to prime a memory stream operation

	// Address generators.
	AGs     int // concurrent memory stream operations supported
	AGWidth int // requests issued per cycle per active stream

	Cache cache.Config
	SA    saunit.Config
	DRAM  dram.Config

	// UniformMem, when non-nil, replaces the cache and DRAM with a single
	// scatter-add unit in front of a uniform word memory (§4.4).
	UniformMem *UniformMemConfig

	// Faults configures deterministic fault injection across the memory
	// system (DRAM stalls and outage windows, combining-store parity scrubs,
	// scatter-add FU retries). The zero value injects nothing and leaves the
	// machine byte-identical to an unconfigured one. The uniform memory of
	// the sensitivity study has no fault hooks; its runs are unaffected.
	Faults fault.Config

	// LegacyStepping forces per-cycle stepping, disabling the quiescence
	// fast-forward path. Results are cycle-exact either way (the
	// differential harness in internal/differ enforces it); the flag exists
	// for that comparison and as an escape hatch.
	LegacyStepping bool

	// Shards has no effect: a simulation runs on its caller's goroutine.
	//
	// Deprecated: Shards is ignored.
	Shards int
}

// DefaultConfig returns the paper's Table 1 machine.
func DefaultConfig() Config {
	return Config{
		Clusters:         16,
		MaddsPerCluster:  4,
		SRFWordsPerCycle: 64,
		KernelStartup:    64,
		MemOpStartup:     24,
		AGs:              2,
		AGWidth:          8,
		Cache:            cache.DefaultConfig(),
		SA:               saunit.DefaultConfig(),
		DRAM:             dram.DefaultConfig(),
	}
}

// PeakFlopsPerCycle returns the peak FP operations per cycle (Table 1: 128,
// counting each multiply-add as two operations).
func (c Config) PeakFlopsPerCycle() float64 {
	return float64(c.Clusters * c.MaddsPerCluster * 2)
}

// OpKind distinguishes stream operations.
type OpKind uint8

const (
	// OpMem is a memory stream transfer (load/store/gather/scatter/
	// scatter-add), simulated through the memory system.
	OpMem OpKind = iota
	// OpKernel is a compute kernel, modeled by its cost bound.
	OpKernel
	// OpFence waits for every outstanding memory stream (including
	// asynchronous ones) to complete and the memory system to drain.
	OpFence
)

// Op is one stream operation. Construct ops with the helper constructors.
type Op struct {
	Name string
	Kind OpKind

	// Memory operations.
	MemKind mem.Kind
	Addrs   []mem.Addr // explicit addresses; nil means Base..Base+N-1
	Base    mem.Addr
	N       int
	Vals    []mem.Word         // write/scatter-add data; len 1 broadcasts
	OnResp  func(mem.Response) // optional read/fetch response sink

	// Async starts the memory stream on a free address generator and
	// returns immediately, letting later kernels (and further streams, up
	// to the AG count) execute concurrently — the paper's observation that
	// "the processor's main execution unit can continue running the
	// program, while the sums are being updated in memory". Synchronize
	// with Fence.
	Async bool

	// Kernel operations.
	Flops  float64 // total FP operations
	IntOps float64 // non-FP operations (comparisons, index math); cost
	// like Flops but excluded from the FP Operations metric
	SRFWords float64 // total SRF words moved
}

// addr returns the i-th address of a memory op.
func (o *Op) addr(i int) mem.Addr {
	if o.Addrs != nil {
		return o.Addrs[i]
	}
	return o.Base + mem.Addr(i)
}

// val returns the i-th data value of a memory op.
func (o *Op) val(i int) mem.Word {
	if len(o.Vals) == 0 {
		return 0
	}
	if len(o.Vals) == 1 {
		return o.Vals[0]
	}
	return o.Vals[i]
}

// count returns the number of requests the op issues.
func (o *Op) count() int {
	if o.Addrs != nil {
		return len(o.Addrs)
	}
	return o.N
}

// LoadStream reads n consecutive words starting at base (a stream load).
func LoadStream(name string, base mem.Addr, n int) Op {
	return Op{Name: name, Kind: OpMem, MemKind: mem.Read, Base: base, N: n}
}

// StoreStream writes vals to consecutive words starting at base.
func StoreStream(name string, base mem.Addr, vals []mem.Word) Op {
	return Op{Name: name, Kind: OpMem, MemKind: mem.Write, Base: base, N: len(vals), Vals: vals}
}

// Gather reads the given addresses (an indexed load).
func Gather(name string, addrs []mem.Addr) Op {
	return Op{Name: name, Kind: OpMem, MemKind: mem.Read, Addrs: addrs}
}

// Scatter writes vals[i] to addrs[i] (an indexed store).
func Scatter(name string, addrs []mem.Addr, vals []mem.Word) Op {
	if len(addrs) != len(vals) {
		panic(fmt.Sprintf("machine: scatter with %d addrs, %d vals", len(addrs), len(vals)))
	}
	return Op{Name: name, Kind: OpMem, MemKind: mem.Write, Addrs: addrs, Vals: vals}
}

// ScatterAdd atomically combines vals[i] into addrs[i] with the given RMW
// kind. vals of length 1 broadcasts a scalar (the paper's second form).
func ScatterAdd(name string, kind mem.Kind, addrs []mem.Addr, vals []mem.Word) Op {
	if !kind.IsScatterAdd() {
		panic(fmt.Sprintf("machine: ScatterAdd with non-RMW kind %v", kind))
	}
	if len(vals) != 1 && len(vals) != len(addrs) {
		panic(fmt.Sprintf("machine: scatter-add with %d addrs, %d vals", len(addrs), len(vals)))
	}
	return Op{Name: name, Kind: OpMem, MemKind: kind, Addrs: addrs, Vals: vals}
}

// Fence waits for all outstanding memory streams to complete.
func Fence() Op {
	return Op{Name: "fence", Kind: OpFence}
}

// Kernel models a compute kernel with the given total FP-operation count and
// SRF word traffic.
func Kernel(name string, flops, srfWords float64) Op {
	return Op{Name: name, Kind: OpKernel, Flops: flops, SRFWords: srfWords}
}

// IntKernel models a compute kernel of non-FP operations (comparisons,
// index arithmetic): it costs execution time like Kernel but does not count
// toward the FP Operations metric.
func IntKernel(name string, intOps, srfWords float64) Op {
	return Op{Name: name, Kind: OpKernel, IntOps: intOps, SRFWords: srfWords}
}

// Result accumulates the paper's three reported metrics plus component
// detail.
type Result struct {
	Cycles  uint64 // execution cycles
	FPOps   uint64 // kernel flops + scatter-add FU operations
	MemRefs uint64 // processor-issued word memory references

	SAStats    saunit.Stats
	CacheStats cache.Stats
	DRAMStats  dram.Stats
}

// Add accumulates other into r.
func (r *Result) Add(other Result) {
	r.Cycles += other.Cycles
	r.FPOps += other.FPOps
	r.MemRefs += other.MemRefs
}

// memStream is one in-flight memory stream operation bound to an address
// generator. Streams live in the machine's fixed slab (one entry per AG) and
// are recycled in place, so the op hot path allocates nothing per stream.
type memStream struct {
	inUse     bool // slab entry claimed (set by runMemOp, cleared at retire)
	op        Op
	tag       uint64 // request-ID tag (ID = tag<<32 | index)
	n         int
	issued    int
	responses int
	needResp  bool
	ready     uint64 // first cycle it may issue, after AG/pipeline priming
	lane      int    // address-generator lane (span tracing only)
	start     uint64 // cycle the stream claimed its AG (span tracing only)
}

// done reports whether the stream has issued everything and received every
// expected response (writes and scatter-adds complete at issue; their drain
// is covered by the memory system's Busy state).
func (s *memStream) done() bool {
	return s.issued == s.n && (!s.needResp || s.responses == s.n)
}

// agStats counts the address generators' events.
type agStats struct {
	Issued      uint64 // word requests issued by the address generators
	StallCycles uint64 // cycles some primed stream could not issue at all
}

// machineMetrics is the snapshot descriptor of the machine's own counters,
// the address generators'.
var machineMetrics = []stats.Metric[Machine]{
	stats.Count("ag_issued", func(m *Machine) uint64 { return m.ag.Issued }),
	stats.Count("ag_stall_cycles", func(m *Machine) uint64 { return m.ag.StallCycles }),
	stats.Hist("ag_active", func(m *Machine) *stats.Histogram { return &m.agActive }),
}

// Machine is one simulated node. It owns its clock and steps four phases
// each cycle: address generation, the memory cluster (scatter-add units,
// cache banks, DRAM or uniform memory), response routing, stream
// retirement.
type Machine struct {
	cfg      Config
	now      uint64 // cycles executed so far
	ff       bool   // fast-forward over quiescent cycles (see runUntil)
	dram     *dram.DRAM
	uniform  *dram.Uniform
	banks    []*cache.Bank
	sas      []*saunit.Unit
	mem      *cluster.Cluster
	ag       agStats
	agActive stats.Histogram // active streams, one sample per cycle
	agLevel  stats.Level     // counts len(active) into agActive at its change points

	active  []*memStream
	nextTag uint64
	tracer  func(cycle uint64, req mem.Request)

	tr       *span.Tracer
	laneBusy []bool // AG lane occupancy (span tracing only)

	// The sampler fires after every cycle whose completed count is a
	// multiple of sampleEvery; nil when none is installed.
	sampleEvery uint64
	sample      func(now uint64)

	// Prebound closures and the stream slab keep RunOp allocation-free.
	streamSlab []memStream // one entry per AG, recycled in place
	curStream  *memStream  // stream the current synchronous op waits on
	opDoneFn   func() bool
	agFreeFn   func() bool
	drainedFn  func() bool
	respFn     func(mem.Response)

	kernelFlops uint64
	memRefs     uint64
}

// SetTracer installs a hook observing every memory request the address
// generators issue (nil disables tracing).
func (m *Machine) SetTracer(fn func(cycle uint64, req mem.Request)) { m.tracer = fn }

// SetSpanTracer installs a request-lifecycle tracer on the machine and
// every memory-system component, so sampled operations record their stage
// transitions from address-generator issue to reply. Install it before
// running ops; a nil tracer disables tracing everywhere.
func (m *Machine) SetSpanTracer(tr *span.Tracer) {
	m.tr = tr
	m.laneBusy = nil
	if tr != nil {
		m.laneBusy = make([]bool, m.cfg.AGs)
	}
	for i, sa := range m.sas {
		sa.SetSpanTracer(tr, fmt.Sprintf("saunit[%d]", i))
		if m.uniform != nil {
			// No cache below the unit: bypasses go straight to memory.
			sa.SetSpanDownstream(span.StageDRAM)
		}
	}
	for i, b := range m.banks {
		b.SetSpanTracer(tr, fmt.Sprintf("cache[%d]", i))
	}
	if m.dram != nil {
		m.dram.SetSpanTracer(tr, "dram")
	}
	if m.uniform != nil {
		m.uniform.SetSpanTracer(tr, "uniform")
	}
}

// SpanTracer returns the installed request-lifecycle tracer (nil if none).
func (m *Machine) SpanTracer() *span.Tracer { return m.tr }

// New constructs a machine.
func New(cfg Config) *Machine {
	if cfg.Clusters < 1 || cfg.AGs < 1 || cfg.AGWidth < 1 || cfg.SRFWordsPerCycle <= 0 {
		panic(fmt.Sprintf("machine: invalid config %+v", cfg))
	}
	m := &Machine{cfg: cfg, ff: !cfg.LegacyStepping, agActive: stats.NewHistogram(cfg.AGs + 1)}
	m.agLevel = stats.OccupancyLevel(&m.agActive)
	injecting := cfg.Faults.Enabled()
	flt := cfg.Faults
	if injecting {
		flt = flt.WithDefaults()
	}
	if cfg.UniformMem != nil {
		m.uniform = dram.NewUniform(cfg.UniformMem.Latency, cfg.UniformMem.Interval, 64)
		m.sas = []*saunit.Unit{saunit.New(cfg.SA, m.uniform)}
		if injecting {
			m.sas[0].SetFaults(flt, "m.b0")
		}
	} else {
		m.dram = dram.New(cfg.DRAM)
		if injecting {
			m.dram.SetFaults(flt, "m")
		}
		for i := 0; i < cfg.Cache.Banks; i++ {
			b := cache.NewBank(cfg.Cache, i, m.dram, cache.Normal)
			m.banks = append(m.banks, b)
			m.sas = append(m.sas, saunit.New(cfg.SA, b))
			if injecting {
				b.SetFaults(flt, fmt.Sprintf("m.b%d", i))
				m.sas[i].SetFaults(flt, fmt.Sprintf("m.b%d", i))
			}
		}
	}

	m.mem = cluster.New(m.sas, m.banks, nil, m.dram, m.uniform, m.ff)
	// Prebound predicates for the runUntil calls on the op hot path.
	m.streamSlab = make([]memStream, cfg.AGs)
	m.agFreeFn = func() bool { return len(m.active) < m.cfg.AGs }
	m.drainedFn = m.drained
	m.opDoneFn = func() bool {
		s := m.curStream
		return s.done() && (s.needResp || !m.mem.Busy())
	}
	m.respFn = func(r mem.Response) { m.route(m.now, r) }
	return m
}

// Close has no effect: a machine holds no goroutines or other resources.
//
// Deprecated: Close is a no-op.
func (m *Machine) Close() {}

// Config returns the machine's configuration.
func (m *Machine) Config() Config { return m.cfg }

// Store returns the functional memory image for zero-time initialization and
// result readback. Call FlushCaches before reading results written through
// the timed path.
func (m *Machine) Store() *mem.Store {
	if m.uniform != nil {
		return m.uniform.Store()
	}
	return m.dram.Store()
}

// FlushCaches functionally writes all dirty cache lines into the DRAM store
// (zero simulated time). Use it between a timed run and result readback.
func (m *Machine) FlushCaches() {
	for _, b := range m.banks {
		b.FlushFunctional(m.now)
	}
}

// Now returns the machine's absolute cycle count.
func (m *Machine) Now() uint64 { return m.now }

// StatsSnapshot returns the current values of every performance counter:
// the address generators', and each unit's, bank's and the DRAM's, read
// through their types' descriptors under the instance names formatted here.
func (m *Machine) StatsSnapshot() stats.Snapshot {
	m.flushStats(m.now)
	es := stats.Append(nil, "machine", machineMetrics, m)
	for i, sa := range m.sas {
		es = stats.Append(es, fmt.Sprintf("saunit[%d]", i), saunit.Metrics, sa)
	}
	for i, b := range m.banks {
		es = stats.Append(es, fmt.Sprintf("cache[%d]", i), cache.Metrics, b)
	}
	if m.dram != nil {
		es = stats.Append(es, "dram", dram.Metrics, m.dram)
	}
	return stats.NewSnapshot(es)
}

// flushStats records the per-cycle samples of every cycle before now, which
// the address generators and the memory cluster count at change points.
func (m *Machine) flushStats(now uint64) {
	m.agLevel.Flush(now)
	m.mem.FlushStats(now)
}

// StartTimeline begins recording a counter snapshot every interval cycles
// and returns the timeline being filled. Sampling (the only per-cycle cost
// of the counter layer beyond plain field increments) continues until
// StopTimeline is called.
func (m *Machine) StartTimeline(interval uint64) *stats.Timeline {
	tl := &stats.Timeline{Interval: interval}
	m.setSampler(interval, func(now uint64) {
		tl.Record(now, m.StatsSnapshot())
	})
	return tl
}

// StopTimeline detaches the sampler installed by StartTimeline.
func (m *Machine) StopTimeline() { m.setSampler(0, nil) }

// SetSampler installs a raw periodic callback, invoked every interval
// cycles (including across fast-forwarded stretches), with the per-cycle
// samples recorded up to that cycle. It shares the machine's single sampler
// slot with StartTimeline; interval 0 or a nil fn detaches it.
func (m *Machine) SetSampler(interval uint64, fn func(now uint64)) {
	if fn == nil {
		m.setSampler(0, nil)
		return
	}
	m.setSampler(interval, func(now uint64) {
		m.flushStats(now)
		fn(now)
	})
}

// setSampler fills the sampler slot; a zero interval or nil fn empties it,
// and an empty slot costs the step a nil check.
func (m *Machine) setSampler(every uint64, fn func(now uint64)) {
	if every == 0 || fn == nil {
		every, fn = 0, nil
	}
	m.sampleEvery, m.sample = every, fn
}

// unitIndex routes an address to its scatter-add unit index (one per cache
// bank; a single unit in uniform-memory mode).
func (m *Machine) unitIndex(a mem.Addr) int {
	if len(m.sas) == 1 {
		return 0
	}
	return cache.BankOf(a.Line(), len(m.banks))
}

// tick advances the machine one cycle through its phases in pipeline order
// (issue, memory cluster, response routing, stream retire), then fires the
// sampler if the completed count is a multiple of its interval.
func (m *Machine) tick() {
	now := m.now
	m.issueTick(now)
	m.mem.Tick(now)
	m.mem.PopResponses(now, m.respFn)
	m.retireTick(now)
	m.advance(now + 1)
}

// advance sets the clock to cycle t and fires the sampler if t is a
// multiple of its interval.
func (m *Machine) advance(t uint64) {
	m.now = t
	if m.sample != nil && t%m.sampleEvery == 0 {
		m.sample(t)
	}
}

// runUntil steps until done() reports true or the clock reaches limit, and
// reports whether done() was satisfied.
//
// Under fast-forward, when nothing has work in the current cycle, it jumps
// the clock to the horizon instead of ticking through the dead cycles. The
// skipped cycles are idle for every phase, so nothing else changes, and a
// jump never crosses a sampler multiple (the sampler fires at exactly the
// cycles of per-cycle stepping) or overshoots limit. done() must depend
// only on machine state, which cannot change during skipped cycles; it is
// re-evaluated at every event cycle.
func (m *Machine) runUntil(done func() bool, limit uint64) bool {
	for m.now < limit {
		if done() {
			return true
		}
		if m.ff {
			if h := m.horizon(limit); h > m.now {
				m.advance(h)
				continue
			}
		}
		m.tick()
	}
	return done()
}

// horizon returns the earliest cycle at which any phase can do work, capped
// at the next sampler multiple and at limit; m.now means work is due now.
// A completed stream retires now, and a primed stream with requests left
// issues now; a stream still priming wakes at its ready cycle; fully issued
// streams wait on the memory cluster, which reports its own events.
// Response routing never wakes the machine: a unit that queued a response
// was ticked that cycle.
func (m *Machine) horizon(limit uint64) uint64 {
	now := m.now
	h := limit
	for _, s := range m.active {
		switch {
		case s.done():
			return now
		case now < s.ready:
			h = min(h, s.ready)
		case s.issued < s.n:
			return now
		}
	}
	h = min(h, m.mem.NextEvent(now))
	if m.sample != nil {
		h = min(h, (now/m.sampleEvery+1)*m.sampleEvery)
	}
	return h
}

// issueTick: each active stream owns one address generator and may issue up
// to AGWidth requests per cycle, in order (head-of-line blocking on a busy
// bank models the hot-bank effect of Figure 7).
func (m *Machine) issueTick(now uint64) {
	stalled := false
	for _, s := range m.active {
		if now < s.ready {
			continue
		}
		issuedBefore := s.issued
		for w := 0; w < m.cfg.AGWidth && s.issued < s.n; w++ {
			a := s.op.addr(s.issued)
			u := m.sas[m.unitIndex(a)]
			if !u.CanAccept(now) {
				break
			}
			req := mem.Request{
				ID:   s.tag<<32 | uint64(s.issued),
				Kind: s.op.MemKind, Addr: a, Val: s.op.val(s.issued),
			}
			if !u.Accept(now, req) {
				break
			}
			if m.tracer != nil {
				m.tracer(now, req)
			}
			if m.tr != nil && m.tr.SampleNext() {
				m.tr.OpBegin(0, req.ID, req.Kind, req.Addr, now)
			}
			s.issued++
			m.ag.Issued++
		}
		if s.issued == issuedBefore && s.issued < s.n {
			stalled = true
		}
	}
	if stalled {
		m.ag.StallCycles++
	}
}

// route delivers one unit response to the stream that issued it.
func (m *Machine) route(now uint64, r mem.Response) {
	s := m.streamByTag(r.ID >> 32)
	if s == nil {
		return
	}
	s.responses++
	if m.tr != nil {
		m.tr.OpEnd(0, r.ID, now)
	}
	if s.op.OnResp != nil {
		r.ID &= (1 << 32) - 1 // restore the caller's index
		s.op.OnResp(r)
	}
}

// retireTick removes completed streams, freeing their address generators and
// returning their slab entries for reuse.
func (m *Machine) retireTick(now uint64) {
	live := m.active[:0]
	for _, s := range m.active {
		if !s.done() {
			live = append(live, s)
			continue
		}
		if m.tr != nil && s.lane < len(m.laneBusy) {
			// One serialized activity span per AG lane per stream.
			m.tr.Span(fmt.Sprintf("ag[%d]", s.lane),
				fmt.Sprintf("%s n=%d", s.op.Name, s.n), s.start, now)
			m.laneBusy[s.lane] = false
		}
		s.inUse = false
	}
	m.active = live
	m.agLevel.Set(now+1, len(m.active))
}

// streamByTag finds the active stream with the given request tag.
func (m *Machine) streamByTag(tag uint64) *memStream {
	for _, s := range m.active {
		if s.tag == tag {
			return s
		}
	}
	return nil
}

// neverDone is the runUntil predicate for fixed-length advances; a
// package-level func keeps the idle hot path allocation-free.
func neverDone() bool { return false }

// idle advances cycles without starting new work (kernel execution time);
// outstanding asynchronous streams keep issuing underneath. It runs through
// runUntil so dead stretches (no active streams, memory system drained or
// waiting on a timer) fast-forward instead of ticking.
func (m *Machine) idle(cycles uint64) {
	m.runUntil(neverDone, m.now+cycles)
}

// RunOp executes one stream operation and returns its metrics. Memory
// operations with Async set return as soon as an address generator is
// claimed; everything else runs to completion.
func (m *Machine) RunOp(op Op) Result {
	start := m.now
	memRefsBefore := m.memRefs
	saBefore := m.saStats()
	switch op.Kind {
	case OpKernel:
		flopCyc := (op.Flops + op.IntOps) / m.cfg.PeakFlopsPerCycle()
		srfCyc := op.SRFWords / m.cfg.SRFWordsPerCycle
		cyc := uint64(m.cfg.KernelStartup)
		if flopCyc > srfCyc {
			cyc += uint64(flopCyc + 0.999999)
		} else {
			cyc += uint64(srfCyc + 0.999999)
		}
		m.idle(cyc)
		m.kernelFlops += uint64(op.Flops)
	case OpMem:
		m.runMemOp(op)
	case OpFence:
		m.fence()
	default:
		panic(fmt.Sprintf("machine: unknown op kind %d", op.Kind))
	}
	saAfter := m.saStats()
	return Result{
		Cycles:  m.now - start,
		FPOps:   uint64(op.Flops) + fpDelta(saBefore, saAfter),
		MemRefs: m.memRefs - memRefsBefore,
	}
}

// fence runs until every stream has completed and the memory system has
// drained. The predicate reads only component state, which cannot change
// across skipped cycles, so it is safe under fast-forward.
func (m *Machine) fence() {
	limit := m.now + opDeadlockCycles
	if !m.runUntil(m.drainedFn, limit) {
		panic("machine: fence did not drain; likely deadlock")
	}
}

// drained reports fence completion: no active streams and an idle memory
// system.
func (m *Machine) drained() bool {
	return len(m.active) == 0 && !m.mem.Busy()
}

// fpDelta counts floating-point FU operations performed between two stat
// snapshots. Integer scatter-adds use the same datapath but do not count
// toward the paper's "FP Operations" metric.
func fpDelta(before, after saunit.Stats) uint64 {
	return after.FUOpsFP - before.FUOpsFP
}

func (m *Machine) saStats() saunit.Stats {
	var s saunit.Stats
	for _, sa := range m.sas {
		s.Add(sa.Stats())
	}
	return s
}

// runMemOp claims an address generator for the stream, then (for
// synchronous ops) runs it to completion plus a drain of the memory system.
func (m *Machine) runMemOp(op Op) {
	n := op.count()
	m.memRefs += uint64(n)
	opStart := m.now
	// Claim an address generator (Table 1: 2), waiting if all are busy.
	if len(m.active) >= m.cfg.AGs {
		if !m.runUntil(m.agFreeFn, opStart+opDeadlockCycles) {
			panic(fmt.Sprintf("machine: op %q waited %d cycles for an AG; likely deadlock", op.Name, m.now-opStart))
		}
	}
	m.nextTag++
	s := m.claimStream()
	*s = memStream{
		inUse: true,
		op:    op, tag: m.nextTag, n: n,
		needResp: op.MemKind == mem.Read || op.MemKind.IsFetch(),
		ready:    m.now + uint64(m.cfg.MemOpStartup),
	}
	if m.tr != nil {
		s.start = m.now
		for i, busy := range m.laneBusy {
			if !busy {
				s.lane, m.laneBusy[i] = i, true
				break
			}
		}
	}
	m.active = append(m.active, s)
	m.agLevel.Set(m.now, len(m.active))
	if op.Async {
		return
	}
	// Synchronous semantics: reads are complete when every response has
	// arrived; writes and scatter-adds additionally wait for the memory
	// system to drain so their data is globally visible when RunOp returns.
	m.curStream = s
	if !m.runUntil(m.opDoneFn, opStart+opDeadlockCycles) {
		panic(fmt.Sprintf("machine: op %q has run %d cycles; likely deadlock", op.Name, m.now-opStart))
	}
}

// claimStream takes a free entry from the fixed stream slab (one per address
// generator; the AG-claim wait above guarantees one is free).
func (m *Machine) claimStream() *memStream {
	for i := range m.streamSlab {
		if !m.streamSlab[i].inUse {
			return &m.streamSlab[i]
		}
	}
	panic("machine: no free stream slab entry; AG accounting broken")
}

// opDeadlockCycles guards against flow-control deadlock: single ops in this
// repository complete in well under this many cycles.
const opDeadlockCycles = uint64(500_000_000)

// Run executes a program sequentially and returns aggregate metrics.
func (m *Machine) Run(prog []Op) Result {
	start := m.now
	memRefsBefore := m.memRefs
	flopsBefore := m.kernelFlops
	saBefore := m.saStats()
	for _, op := range prog {
		m.RunOp(op)
	}
	sa, cs, ds := m.ComponentStats()
	return Result{
		Cycles:     m.now - start,
		FPOps:      (m.kernelFlops - flopsBefore) + fpDelta(saBefore, sa),
		MemRefs:    m.memRefs - memRefsBefore,
		SAStats:    sa,
		CacheStats: cs,
		DRAMStats:  ds,
	}
}

// ComponentStats returns cumulative scatter-add unit, cache, and DRAM
// counters for the machine's lifetime (useful after driving the machine
// through RunOp rather than Run), the units' level-counted FU busy cycles
// included up to now.
func (m *Machine) ComponentStats() (saunit.Stats, cache.Stats, dram.Stats) {
	m.flushStats(m.now)
	return m.saStats(), m.cacheStats(), m.dramStats()
}

func (m *Machine) cacheStats() cache.Stats {
	var s cache.Stats
	for _, b := range m.banks {
		s.Add(b.Stats())
	}
	return s
}

func (m *Machine) dramStats() dram.Stats {
	if m.dram == nil {
		return dram.Stats{}
	}
	return m.dram.Stats()
}
