// Package saunit implements the paper's core contribution: the hardware
// scatter-add unit (§3.2, Figures 4 and 5). One unit sits in front of each
// stream-cache bank (or directly in front of the memory interface in the
// cache-less sensitivity configuration) and turns atomic read-modify-write
// requests into plain reads and writes while guaranteeing atomicity through
// its combining store.
//
// The combining store is a small CAM-indexed buffer. Every scatter-add
// request occupies one entry; if no entry is free the unit stalls its input
// (paper: "if no such entry exists, the scatter-add operation stalls until
// an entry is freed"). The first request to an address issues a read of the
// current memory value; subsequent requests to the same address merely
// buffer their operand and issue no memory traffic — this is the combining
// that reduces memory traffic for narrow index ranges (Figure 12). When the
// memory value returns, a chain of dependent additions through the
// pipelined functional unit consumes the buffered operands one by one; when
// the chain finds no more matching operands, the sum is written back.
//
// Ordinary reads and writes bypass the unit (Figure 4a, path 2-3).
package saunit

import (
	"fmt"

	"scatteradd/internal/fault"
	"scatteradd/internal/mem"
	"scatteradd/internal/port"
	"scatteradd/internal/sim"
	"scatteradd/internal/span"
	"scatteradd/internal/stats"
)

// saIDTag marks downstream request IDs that belong to the unit itself (reads
// of current memory values and write-backs of computed sums) rather than to
// bypassed upstream traffic.
const saIDTag = uint64(1) << 63

// scrubCycles is the fixed cost of a parity scrub: a combining-store entry
// whose parity check fails on allocation is re-latched from the input
// register and unavailable to chains (or to read issue) for this long.
const scrubCycles = 8

// Config holds the unit's microarchitectural parameters.
type Config struct {
	Entries      int  // combining store entries (Table 1: 8)
	FULatency    int  // add latency in cycles (Table 1: 4)
	FUIssueWidth int  // FU operations issued per cycle (1 = single pipelined FU)
	InQDepth     int  // input queue entries
	WBQDepth     int  // write-back queue entries
	PortWidth    int  // input requests consumed per cycle (1 = bank port rate)
	EagerCombine bool // ablation: pre-combine buffered operand pairs while
	// the memory value is still outstanding (not in the paper)

	// OrderedChains makes each chain consume buffered operands in arrival
	// order instead of combining-store scan order. With Fetch* kinds this
	// turns the unit into the scan (parallel-prefix) engine the paper
	// proposes as future work (§5): n ordered fetch-adds to one address
	// return the exact exclusive prefix sums of their operands. It is
	// incompatible with EagerCombine, which reassociates operands.
	OrderedChains bool
}

// DefaultConfig matches Table 1: 8 combining-store entries, 4-cycle FU, one
// request per cycle (the rate of the cache-bank port behind the unit).
func DefaultConfig() Config {
	return Config{Entries: 8, FULatency: 4, FUIssueWidth: 1, InQDepth: 8, WBQDepth: 8, PortWidth: 1}
}

// Stats counts the unit's events (§4.3's microarchitecture events:
// combining-store behaviour, occupancy and FU utilization). Each event is
// one field increment; Metrics names the ones a snapshot carries.
type Stats struct {
	SARequests  uint64 // scatter-add requests accepted
	Bypassed    uint64 // ordinary requests passed through
	MemReads    uint64 // current-value reads issued downstream
	MemWrites   uint64 // sum write-backs issued downstream
	FUOps       uint64 // additions performed (each is one FP/int op)
	FUOpsFP     uint64 // the subset of FUOps on floating-point kinds
	Combined    uint64 // requests combined into a live address, without their own memory read
	CSMisses    uint64 // requests that allocated a fresh reader entry
	CSEvictions uint64 // combining-store entries freed
	StallFull   uint64 // cycles the head request stalled on a full store
	EagerOps    uint64 // pre-combines performed in EagerCombine mode

	// FUBusyCycles counts the cycles with at least one op in the FU
	// pipeline, up to the last FlushStats.
	FUBusyCycles uint64
	WBQDepthMax  uint64 // write-back queue high-water mark

	// Fault counters (zero unless injection is configured).
	FaultFURetries uint64 // FU ops rejected by the residue check and reissued
	FaultCSScrubs  uint64 // combining-store entries that needed a parity scrub
}

// Add accumulates o into s: counters sum, and the high-water mark takes the
// larger of the two.
func (s *Stats) Add(o Stats) {
	s.SARequests += o.SARequests
	s.Bypassed += o.Bypassed
	s.MemReads += o.MemReads
	s.MemWrites += o.MemWrites
	s.FUOps += o.FUOps
	s.FUOpsFP += o.FUOpsFP
	s.Combined += o.Combined
	s.CSMisses += o.CSMisses
	s.CSEvictions += o.CSEvictions
	s.StallFull += o.StallFull
	s.EagerOps += o.EagerOps
	s.FUBusyCycles += o.FUBusyCycles
	s.WBQDepthMax = max(s.WBQDepthMax, o.WBQDepthMax)
	s.FaultFURetries += o.FaultFURetries
	s.FaultCSScrubs += o.FaultCSScrubs
}

// Metrics is the unit's snapshot descriptor: the key, kind and source of
// every counter a snapshot carries for one unit. Call FlushStats before
// reading through it.
var Metrics = []stats.Metric[Unit]{
	stats.Count("cs_hits", func(u *Unit) uint64 { return u.stats.Combined }),
	stats.Count("cs_misses", func(u *Unit) uint64 { return u.stats.CSMisses }),
	stats.Count("cs_evictions", func(u *Unit) uint64 { return u.stats.CSEvictions }),
	stats.Hist("cs_occupancy", func(u *Unit) *stats.Histogram { return &u.csOcc }),
	stats.Count("fu_busy_cycles", func(u *Unit) uint64 { return u.stats.FUBusyCycles }),
	stats.Count("stall_full_cycles", func(u *Unit) uint64 { return u.stats.StallFull }),
	stats.Count("mem_reads", func(u *Unit) uint64 { return u.stats.MemReads }),
	stats.Count("mem_writes", func(u *Unit) uint64 { return u.stats.MemWrites }),
	stats.Count("bypassed", func(u *Unit) uint64 { return u.stats.Bypassed }),
	stats.HighWater("wbq_depth", func(u *Unit) uint64 { return u.stats.WBQDepthMax }),
	stats.Count("fault_fu_retries", func(u *Unit) uint64 { return u.stats.FaultFURetries }),
	stats.Count("fault_cs_scrubs", func(u *Unit) uint64 { return u.stats.FaultCSScrubs }),
}

// entry is one combining-store slot, holding a single buffered request.
type entry struct {
	valid   bool
	addr    mem.Addr
	kind    mem.Kind
	val     mem.Word // operand carried by the request
	reader  bool     // this entry must issue the current-value memory read
	sent    bool     // the memory read was accepted downstream
	inFU    bool     // operand currently being consumed by the FU
	fetchID uint64   // upstream ID+1 to answer for Fetch* kinds (0 = none)
	node    int      // issuing node, echoed in fetch responses
	seq     uint64   // arrival order, for OrderedChains
	sid     uint64   // upstream ID+1 of a sampled span op (0 = untraced)
	alloc   uint64   // allocation cycle, for combining-store residency spans

	// scrubUntil makes the entry invisible to chains and to read issue
	// until the given cycle: an injected parity fault detected when the
	// operand was latched, repaired by re-latching from the input register.
	scrubUntil uint64
}

// chain is the running value for one address: a returned memory value or a
// partially accumulated sum looking for more operands to consume.
type chain struct {
	addr mem.Addr
	kind mem.Kind
	val  mem.Word
}

// fuOp is an addition in flight through the functional unit.
type fuOp struct {
	entryIdx int      // combining-store entry being consumed
	ch       chain    // accumulated value before this add
	result   mem.Word // value after this add
}

// Unit is one scatter-add unit.
type Unit struct {
	cfg    Config
	down   port.Word
	inQ    *sim.Queue[mem.Request]
	upQ    *sim.Queue[mem.Response] // responses to deliver upstream
	wbQ    *sim.Queue[mem.Request]  // sum write-backs awaiting downstream
	cs     []entry
	csUsed int // valid combining-store entries (occupancy)
	unsent int // reader entries whose memory read has not been sent
	// outstanding counts the downstream requests whose response the unit
	// has not popped yet: its own current-value reads and bypassed Reads.
	outstanding int
	ready       []chain // values ready to combine or write back
	still       []chain // issueFU scratch, swapped with ready each call
	fu          *sim.Delay[fuOp]
	// active holds the addresses with a live chain (ready, FU, or wbQ). At
	// most one chain exists per address and chains are bounded by the
	// combining-store size, so a linearly scanned slice stays resident in
	// the same cache lines the CAM walk already touches — the map this
	// replaces cost a hash plus a pointer chase per CAM lookup on the
	// unit's hottest path (one membership test per accepted scatter-add).
	active    []mem.Addr
	nextSeq   uint64
	stats     Stats
	csOcc     stats.Histogram // valid entries, one sample per cycle
	csLevel   stats.Level     // counts csUsed into csOcc at its change points
	fuBusy    stats.Level     // counts an occupied FU pipe into stats.FUBusyCycles
	tr        *span.Tracer
	track     string
	downStage span.Stage
	wake      sim.Wake

	// quiet caches noWork, refreshed wherever its inputs change: at the end
	// of Tick, and in Accept and PopResponse.
	quiet bool

	// Fault injection (nil when disabled).
	fuInj *fault.Injector // FU transient errors: residue check fails, op reissues
	csInj *fault.Injector // combining-store parity faults: entry scrubbed on alloc
}

// New returns a unit in front of downstream memory down.
func New(cfg Config, down port.Word) *Unit {
	if cfg.Entries < 1 || cfg.FULatency < 1 || cfg.FUIssueWidth < 1 {
		panic(fmt.Sprintf("saunit: invalid config %+v", cfg))
	}
	if cfg.InQDepth < 1 || cfg.WBQDepth < 1 || cfg.PortWidth < 1 {
		panic(fmt.Sprintf("saunit: invalid queue depths %+v", cfg))
	}
	if cfg.OrderedChains && cfg.EagerCombine {
		panic("saunit: OrderedChains is incompatible with EagerCombine")
	}
	u := &Unit{
		cfg:    cfg,
		down:   down,
		inQ:    sim.NewQueue[mem.Request](cfg.InQDepth),
		upQ:    sim.NewQueue[mem.Response](cfg.InQDepth + cfg.Entries),
		wbQ:    sim.NewQueue[mem.Request](cfg.WBQDepth),
		cs:     make([]entry, cfg.Entries),
		fu:     sim.NewDelay[fuOp](cfg.FULatency, cfg.FULatency*cfg.FUIssueWidth+1),
		quiet:  true,
		active: make([]mem.Addr, 0, cfg.Entries),
		csOcc:  stats.NewHistogram(cfg.Entries + 1),
	}
	u.csLevel = stats.OccupancyLevel(&u.csOcc)
	u.fuBusy = stats.BusyLevel(&u.stats.FUBusyCycles)
	return u
}

// Stats returns a copy of the activity counters.
func (u *Unit) Stats() Stats { return u.stats }

// FlushStats records the per-cycle occupancy and FU-busy samples of every
// cycle before now, which the unit counts at their change points.
func (u *Unit) FlushStats(now uint64) {
	u.csLevel.Flush(now)
	u.fuBusy.Flush(now)
}

// SetWake installs the unit's entry in its owner's due set: an accepted
// request marks the unit due.
func (u *Unit) SetWake(w sim.Wake) { u.wake = w }

// Config returns the unit's configuration.
func (u *Unit) Config() Config { return u.cfg }

// SetSpanTracer installs a request-lifecycle tracer; track names the unit
// in exported traces (e.g. "saunit[3]"). A nil tracer disables tracing.
// Bypassed (non-scatter-add) requests are attributed to the cache stage;
// use SetSpanDownstream when the unit sits directly on a memory with no
// cache in between (the §4.4 uniform configuration).
func (u *Unit) SetSpanTracer(tr *span.Tracer, track string) {
	u.tr = tr
	u.track = track
	u.downStage = span.StageCache
}

// SetSpanDownstream overrides the stage charged when a request leaves the
// unit for the downstream port.
func (u *Unit) SetSpanDownstream(st span.Stage) { u.downStage = st }

// SetFaults installs fault injection. inst salts the injector streams so
// every unit (one per cache bank, per node) draws its own schedule. Both
// fault classes are detected-and-recovered: an FU transient error fails the
// residue check and the operation reissues through the pipeline; a
// combining-store parity fault is scrubbed by re-latching the operand, which
// hides the entry from chains for scrubCycles. Draws happen at event grain
// (one per retired FU op, one per allocated entry), so legacy and
// fast-forward stepping consume the streams identically and sums stay
// bit-exact.
func (u *Unit) SetFaults(fc fault.Config, inst string) {
	u.fuInj = fault.NewInjector(fc.Seed, inst+".saunit.fu", fc.FUErrorRate)
	u.csInj = fault.NewInjector(fc.Seed, inst+".saunit.cs", fc.CSCorruptRate)
}

// CanAccept reports whether the input queue has room.
func (u *Unit) CanAccept(now uint64) bool { return !u.inQ.Full() }

// Accept submits a request (scatter-add or bypass).
func (u *Unit) Accept(now uint64, r mem.Request) bool {
	if r.ID&saIDTag != 0 {
		panic("saunit: upstream request ID collides with internal tag")
	}
	if !u.inQ.Push(r) {
		return false
	}
	u.quiet = false
	u.wake.At(now)
	return true
}

// PopResponse returns one upstream response: a bypassed read completion or a
// Fetch* pre-update value.
func (u *Unit) PopResponse(now uint64) (mem.Response, bool) {
	r, ok := u.upQ.Pop()
	if ok && u.upQ.Empty() {
		u.quiet = u.noWork()
	}
	return r, ok
}

// NextResponse reports when PopResponse can next yield a response (see
// port.Word): now while one is queued, Never otherwise.
func (u *Unit) NextResponse(now uint64) uint64 {
	if u.upQ.Empty() {
		return sim.Never
	}
	return now
}

// Busy reports whether the unit or its downstream holds unfinished work.
func (u *Unit) Busy() bool {
	if !u.inQ.Empty() || !u.upQ.Empty() || !u.wbQ.Empty() || u.fu.Len() > 0 || len(u.ready) > 0 || u.csUsed > 0 {
		return true
	}
	return u.down.Busy()
}

// NextEvent reports the earliest cycle at which the unit can do work (see
// the sim package doc), in O(1). Anything queued — input, upstream responses,
// ready chains, pending write-backs, an unsent current-value read, or an
// eager pre-combine opportunity — is work in the current cycle; otherwise
// the unit waits on its two timed inputs: the functional-unit pipeline and
// the downstream port's response pipe, which only this unit drains.
func (u *Unit) NextEvent(now uint64) uint64 {
	if !u.inQ.Empty() || !u.upQ.Empty() || !u.wbQ.Empty() || len(u.ready) > 0 || u.unsent > 0 {
		return now
	}
	if u.cfg.EagerCombine && u.csUsed >= 2 {
		return now
	}
	return max(now, min(u.fu.NextReady(), u.down.NextResponse(now)))
}

// Quiet reports whether no stage of Tick has work and no response waits for
// the owner to pop: no input, no upstream response, no write-back, no FU op,
// no ready chain, no unsent read, no downstream response outstanding and no
// eager pre-combine. A quiet unit's Tick changes nothing (its levels are set
// to the values they hold), so per-cycle stepping passes over it, and an
// owner need not ask a quiet unit for responses. The answer is one cached
// flag, so an idle unit costs one load per cycle; it is derived from the
// unit's own counts alone, never from NextEvent or an owner's due set, so
// per-cycle stepping stays a schedule independent of fast-forward's.
func (u *Unit) Quiet() bool { return u.quiet }

// noWork computes Quiet from the unit's state.
func (u *Unit) noWork() bool {
	return u.inQ.Empty() && u.upQ.Empty() && u.wbQ.Empty() && u.fu.Len() == 0 &&
		len(u.ready) == 0 && u.unsent == 0 && u.outstanding == 0 &&
		!(u.cfg.EagerCombine && u.csUsed >= 2)
}

// csFind returns the index of a valid entry matching addr for which pred
// holds, or -1. This is the CAM search of Figure 4b.
func (u *Unit) csFind(addr mem.Addr, pred func(*entry) bool) int {
	for i := range u.cs {
		e := &u.cs[i]
		if e.valid && e.addr == addr && pred(e) {
			return i
		}
	}
	return -1
}

// activeHas reports whether a live chain exists for addr.
func (u *Unit) activeHas(addr mem.Addr) bool {
	for _, a := range u.active {
		if a == addr {
			return true
		}
	}
	return false
}

// activeAdd records a live chain for addr (no-op if already recorded).
func (u *Unit) activeAdd(addr mem.Addr) {
	if !u.activeHas(addr) {
		u.active = append(u.active, addr)
	}
}

// activeDel forgets addr's chain. Swap-delete is fine: the set answers only
// membership queries, so element order is unobservable.
func (u *Unit) activeDel(addr mem.Addr) {
	for i, a := range u.active {
		if a == addr {
			last := len(u.active) - 1
			u.active[i] = u.active[last]
			u.active = u.active[:last]
			return
		}
	}
}

// csFree returns a free entry index or -1.
func (u *Unit) csFree() int {
	for i := range u.cs {
		if !u.cs[i].valid {
			return i
		}
	}
	return -1
}

// Tick advances the unit one cycle. Write-backs drain before reads issue so
// that a read for an address never overtakes the write-back of its previous
// sum in the downstream FIFO. Occupancy and FU-busy levels changed by the
// tick are first sampled in the next cycle. Each stage is guarded by a count
// of its own work, so a stage with nothing to do costs O(1); Quiet is true
// exactly when every guard is false and no response waits to be popped.
func (u *Unit) Tick(now uint64) {
	if u.outstanding > 0 {
		u.drainDownstream(now)
	}
	if u.fu.Len() > 0 {
		u.completeFU(now)
	}
	if len(u.ready) > 0 {
		u.issueFU(now)
	}
	u.drainWriteBacks(now)
	if u.unsent > 0 {
		u.issueReads(now)
	}
	u.acceptInput(now)
	if u.cfg.EagerCombine && u.csUsed >= 2 {
		u.eagerCombine(now)
	}
	u.csLevel.Set(now+1, u.csUsed)
	u.fuBusy.Set(now+1, min(u.fu.Len(), 1))
	u.quiet = u.noWork()
}

// drainDownstream pops downstream responses: internal current-value reads
// become ready chains; everything else is forwarded upstream.
func (u *Unit) drainDownstream(now uint64) {
	for !u.upQ.Full() {
		resp, ok := u.down.PopResponse(now)
		if !ok {
			return
		}
		u.outstanding--
		if resp.ID&saIDTag == 0 {
			u.upQ.MustPush(resp)
			continue
		}
		// Current value returned from memory (Figure 4b step c): find the
		// reader entry to learn the combine kind, then start a chain.
		i := u.csFind(resp.Addr, func(e *entry) bool { return e.reader })
		if i < 0 {
			panic(fmt.Sprintf("saunit: memory value for addr %d with no reader entry", resp.Addr))
		}
		u.cs[i].reader = false // now a plain buffered operand for the chain
		if u.tr != nil && u.cs[i].sid != 0 {
			// The sampled op that fetched the current value goes back
			// to waiting in the combining store for the FU chain.
			u.tr.OpStage(u.cs[i].node, u.cs[i].sid-1, span.StageCS, now)
		}
		u.activeAdd(resp.Addr)
		u.ready = append(u.ready, chain{addr: resp.Addr, kind: u.cs[i].kind, val: resp.Val})
	}
}

// completeFU retires finished additions: the consumed entry is freed, any
// fetch response is delivered, and the new sum re-enters the ready list. A
// fetch whose response finds the upstream queue full (drainDownstream may
// have filled it this cycle) waits at the head of the pipe, and the ops
// behind it with it, until the owner pops a response.
func (u *Unit) completeFU(now uint64) {
	for {
		p := u.fu.Peek(now)
		if p == nil || u.cs[p.entryIdx].fetchID != 0 && u.upQ.Full() {
			return
		}
		op := *p
		u.fu.Drop()
		if u.fuInj.Fire() {
			// Injected transient error: the residue check rejects the
			// result and the addition reissues through the pipeline. The
			// consumed entry stays latched (inFU), so the replay computes
			// the identical sum. One draw per retired op.
			u.stats.FaultFURetries++
			if !u.fu.Push(now, op) {
				panic("saunit: FU retry push failed after pop")
			}
			u.stats.FUOps++
			if op.ch.kind.IsFP() {
				u.stats.FUOpsFP++
			}
			continue
		}
		e := &u.cs[op.entryIdx]
		if e.fetchID != 0 {
			// Fetch&Op extension (§3.3): return the pre-update value.
			u.upQ.MustPush(mem.Response{
				ID: e.fetchID - 1, Kind: e.kind, Addr: e.addr, Val: op.ch.val, Node: e.node,
			})
		}
		if u.tr != nil {
			if e.sid != 0 {
				if e.fetchID != 0 {
					u.tr.OpStage(e.node, e.sid-1, span.StageReply, now)
				} else {
					u.tr.OpEnd(e.node, e.sid-1, now)
				}
			}
			u.tr.SpanAsync(u.track, fmt.Sprintf("cs %v a=%d", e.kind, e.addr), e.alloc, now)
		}
		*e = entry{}
		u.csUsed--
		u.stats.CSEvictions++
		u.ready = append(u.ready, chain{addr: op.ch.addr, kind: op.ch.kind, val: op.result})
	}
}

// issueFU walks the ready chains: each either finds a buffered operand to
// consume (one FU issue, Figure 4b step d) or, with no operand left, becomes
// a write-back (step 7).
func (u *Unit) issueFU(now uint64) {
	issued := 0
	still := u.still[:0] // reuse last call's buffer; swapped below
	for k := range u.ready {
		ch := u.ready[k]
		if issued >= u.cfg.FUIssueWidth || u.fu.Full() {
			still = append(still, u.ready[k:]...)
			break
		}
		i := u.nextOperand(now, ch.addr)
		if i < 0 {
			if u.scrubPending(now, ch.addr) {
				// A matching operand is mid-parity-scrub: the chain must
				// wait for it rather than write back and strand its value.
				still = append(still, ch)
				continue
			}
			// Chain drained: write the sum back to memory.
			if u.wbQ.Push(mem.Request{ID: saIDTag, Kind: mem.Write, Addr: ch.addr, Val: ch.val}) {
				u.stats.MemWrites++
				u.stats.WBQDepthMax = max(u.stats.WBQDepthMax, uint64(u.wbQ.Len()))
				u.activeDel(ch.addr)
			} else {
				still = append(still, ch)
			}
			continue
		}
		e := &u.cs[i]
		e.inFU = true
		if u.tr != nil && e.sid != 0 {
			u.tr.OpStage(e.node, e.sid-1, span.StageFU, now)
		}
		u.fu.Push(now, fuOp{
			entryIdx: i,
			ch:       ch,
			result:   mem.Combine(e.kind, ch.val, e.val),
		})
		u.stats.FUOps++
		if e.kind.IsFP() {
			u.stats.FUOpsFP++
		}
		issued++
	}
	// Swap buffers: the surviving chains become ready, the drained ready
	// slice becomes next call's scratch. The two never alias.
	u.ready, u.still = still, u.ready[:0]
}

// nextOperand selects the combining-store entry a chain consumes next: the
// first match in scan order, or — with OrderedChains — the oldest arrival,
// which preserves program order for scan (parallel prefix) semantics.
func (u *Unit) nextOperand(now uint64, addr mem.Addr) int {
	consumable := func(e *entry) bool { return !e.inFU && !e.reader && e.scrubUntil <= now }
	if !u.cfg.OrderedChains {
		return u.csFind(addr, consumable)
	}
	best, bestSeq := -1, ^uint64(0)
	for i := range u.cs {
		e := &u.cs[i]
		if e.valid && e.addr == addr && consumable(e) && e.seq < bestSeq {
			best, bestSeq = i, e.seq
		}
	}
	return best
}

// scrubPending reports whether a buffered operand for addr is still inside
// its parity scrub (invisible to nextOperand but owed to the chain).
func (u *Unit) scrubPending(now uint64, addr mem.Addr) bool {
	return u.csFind(addr, func(e *entry) bool {
		return !e.inFU && !e.reader && e.scrubUntil > now
	}) >= 0
}

// wbQHolds reports whether a write-back for addr is still queued (not yet
// accepted downstream).
func (u *Unit) wbQHolds(addr mem.Addr) bool {
	for i := 0; i < u.wbQ.Len(); i++ {
		if u.wbQ.At(i).Addr == addr {
			return true
		}
	}
	return false
}

// issueReads sends current-value reads for reader entries that have not yet
// reached memory. A read is held while a write-back to the same address is
// still queued, preserving read-after-write order downstream.
func (u *Unit) issueReads(now uint64) {
	for i := range u.cs {
		e := &u.cs[i]
		if e.valid && e.reader && !e.sent {
			if e.scrubUntil > now {
				continue // parity scrub in progress: the read waits
			}
			if u.wbQHolds(e.addr) {
				continue
			}
			if !u.down.CanAccept(now) {
				return
			}
			if !u.down.Accept(now, mem.Request{ID: saIDTag | uint64(i), Kind: mem.Read, Addr: e.addr}) {
				return
			}
			e.sent = true
			u.unsent--
			u.outstanding++
			if u.tr != nil && e.sid != 0 {
				u.tr.OpStage(e.node, e.sid-1, span.StageDRAM, now)
			}
			u.stats.MemReads++
		}
	}
}

// acceptInput processes head-of-queue requests: bypass ordinary traffic,
// allocate combining-store entries for scatter-adds (Figure 4b step a).
func (u *Unit) acceptInput(now uint64) {
	for taken := 0; taken < u.cfg.PortWidth; taken++ {
		p := u.inQ.Peek()
		if p == nil {
			return
		}
		r := *p
		if !r.Kind.IsScatterAdd() {
			if !u.down.CanAccept(now) || !u.down.Accept(now, r) {
				return
			}
			if r.Kind == mem.Read {
				u.outstanding++ // a Write completes silently
			}
			if u.tr != nil {
				u.tr.OpStage(r.Node, r.ID, u.downStage, now)
			}
			u.stats.Bypassed++
			u.inQ.Pop()
			continue
		}
		i := u.csFree()
		if i < 0 {
			u.stats.StallFull++
			return
		}
		// CAM: is this address already covered by a buffered entry or a
		// live chain? If so this request only buffers its operand.
		exists := u.activeHas(r.Addr) || u.csFind(r.Addr, func(*entry) bool { return true }) >= 0
		e := &u.cs[i]
		u.nextSeq++
		*e = entry{valid: true, addr: r.Addr, kind: r.Kind, val: r.Val, node: r.Node, seq: u.nextSeq}
		u.csUsed++
		if u.csInj.Fire() {
			// Injected parity fault on the latch: scrub by re-latching from
			// the input register. One draw per allocated entry.
			e.scrubUntil = now + scrubCycles
			u.stats.FaultCSScrubs++
		}
		if u.tr != nil {
			e.alloc = now
			if u.tr.Sampled(r.Node, r.ID) {
				e.sid = r.ID + 1
				u.tr.OpStage(r.Node, r.ID, span.StageCS, now)
			}
		}
		if r.Kind.IsFetch() {
			e.fetchID = r.ID + 1
		}
		if exists {
			u.stats.Combined++
		} else {
			e.reader = true
			u.unsent++
			u.stats.CSMisses++
		}
		u.stats.SARequests++
		u.inQ.Pop()
	}
}

// drainWriteBacks pushes computed sums to memory.
func (u *Unit) drainWriteBacks(now uint64) {
	for {
		wb := u.wbQ.Peek()
		if wb == nil {
			return
		}
		if !u.down.CanAccept(now) || !u.down.Accept(now, *wb) {
			return
		}
		u.wbQ.Pop()
	}
}

// eagerCombine (ablation, not in the paper) merges one pair of buffered
// operands for the same address while the memory value is still in flight.
// It models an extra combining ALU cycle; fetch entries are excluded since
// they need an observable serialization point.
func (u *Unit) eagerCombine(now uint64) {
	for i := range u.cs {
		a := &u.cs[i]
		if !a.valid || a.inFU || a.reader || a.fetchID != 0 || a.scrubUntil > now {
			continue
		}
		for j := i + 1; j < len(u.cs); j++ {
			b := &u.cs[j]
			if !b.valid || b.inFU || b.reader || b.fetchID != 0 || b.addr != a.addr || b.kind != a.kind || b.scrubUntil > now {
				continue
			}
			a.val = mem.Combine(a.kind, a.val, b.val)
			if u.tr != nil {
				if b.sid != 0 {
					// The merged op's lifetime ends at the pre-combine;
					// its value rides entry a from here on.
					u.tr.OpEnd(b.node, b.sid-1, now)
				}
				u.tr.SpanAsync(u.track, fmt.Sprintf("cs %v a=%d", b.kind, b.addr), b.alloc, now)
			}
			*b = entry{}
			u.csUsed--
			u.stats.CSEvictions++
			u.stats.EagerOps++
			u.stats.FUOps++
			if a.kind.IsFP() {
				u.stats.FUOpsFP++
			}
			return
		}
	}
}
