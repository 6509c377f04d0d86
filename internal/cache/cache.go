// Package cache models the address-partitioned banked stream cache of the
// simulated node (paper §4.2: 1 MB, 8 banks, 64 GB/s, "an address
// partitioned on-chip data cache serves as a bandwidth amplifier for
// memory"). Each Bank is a set-associative write-back, write-allocate cache
// slice with MSHRs and a write-back queue, fronted by a word-granular port
// (port.Word) and backed by the line-granular DRAM model.
//
// Banks also implement the multi-node cache-combining optimization of §3.2:
// in CombineLocal mode a miss allocates the line filled with the combining
// identity instead of fetching it from the (remote) owner, and evicted lines
// are surfaced through PopEvict for the node to convert into sum-back
// scatter-add requests. StartFlush begins the paper's flush-with-sum-back
// synchronization step.
package cache

import (
	"fmt"

	"scatteradd/internal/dram"
	"scatteradd/internal/fault"
	"scatteradd/internal/mem"
	"scatteradd/internal/sim"
	"scatteradd/internal/span"
	"scatteradd/internal/stats"
)

// Mode selects how a Bank handles misses and evictions.
type Mode uint8

const (
	// Normal: misses fetch from DRAM; dirty evictions write back to DRAM.
	Normal Mode = iota
	// CombineLocal: misses allocate an identity-filled line locally (no
	// fetch); dirty evictions are surfaced via PopEvict as partial sums.
	CombineLocal
)

// Config holds per-cache parameters. Values describe the whole cache; each
// bank models 1/Banks of the lines.
type Config struct {
	Banks      int // number of banks (address partitioned by line)
	TotalLines int // lines across all banks (1 MB / 64 B = 16384)
	Ways       int // set associativity
	HitLatency int // cycles from accept to response on a hit
	MSHRs      int // outstanding misses per bank
	PortWidth  int // word requests consumed per bank per cycle
	InQDepth   int // front-side input queue entries per bank
	RespQDepth int // front-side response queue entries per bank
	WBQDepth   int // write-back queue entries per bank

	// WriteNoAllocate sends word-write misses to a small per-bank
	// write-combining buffer instead of fetching the line: a fully written
	// line goes straight to DRAM with no fill traffic (ideal for the
	// sequential result streams of the scatter phase, §3.1); partially
	// written lines spill through a fetch-and-merge. Off by default (the
	// baseline machine write-allocates).
	WriteNoAllocate bool
	WCBEntries      int // write-combining buffer entries per bank (default 8)
}

// DefaultConfig returns the Table 1 stream cache: 1 MB, 8 banks, 64 GB/s
// (one word per bank per cycle at 1 GHz).
func DefaultConfig() Config {
	return Config{
		Banks:      8,
		TotalLines: (1 << 20) / mem.LineBytes,
		Ways:       4,
		HitLatency: 2,
		MSHRs:      8,
		PortWidth:  1,
		InQDepth:   8,
		RespQDepth: 16,
		WBQDepth:   8,
	}
}

// Stats counts the bank's events: the contention and occupancy events
// behind the paper's hot-bank effect (§4.3, Figure 7). Each event is one
// field increment; Metrics names the ones a snapshot carries.
type Stats struct {
	Hits       uint64
	Misses     uint64 // demand misses that allocated an MSHR
	MergedMiss uint64 // requests merged into an existing MSHR
	Evictions  uint64
	WriteBacks uint64 // dirty lines written to DRAM
	SumBacks   uint64 // partial lines surfaced in CombineLocal mode
	Stalls     uint64 // cycles the bank head request could not proceed

	// ConflictCycles counts the cycles with more queued requests than the
	// port width: the bank-conflict serialization of §4.3.
	ConflictCycles uint64

	WCBMerges    uint64 // writes absorbed by the write-combining buffer
	WCBFullLines uint64 // fully written lines sent to DRAM without a fill
	WCBSpills    uint64 // partial lines spilled via fetch-and-merge

	PartialScrubs uint64 // evicted partial lines that needed a parity scrub
}

// Add accumulates o into s.
func (s *Stats) Add(o Stats) {
	s.Hits += o.Hits
	s.Misses += o.Misses
	s.MergedMiss += o.MergedMiss
	s.Evictions += o.Evictions
	s.WriteBacks += o.WriteBacks
	s.SumBacks += o.SumBacks
	s.Stalls += o.Stalls
	s.ConflictCycles += o.ConflictCycles
	s.WCBMerges += o.WCBMerges
	s.WCBFullLines += o.WCBFullLines
	s.WCBSpills += o.WCBSpills
	s.PartialScrubs += o.PartialScrubs
}

// Metrics is the bank's snapshot descriptor: the key, kind and source of
// every counter a snapshot carries for one bank. write_backs counts every
// line written to DRAM, evicted or sent whole from the write-combining
// buffer. Call FlushStats before reading through it.
var Metrics = []stats.Metric[Bank]{
	stats.Count("bank_conflict_cycles", func(b *Bank) uint64 { return b.stats.ConflictCycles }),
	stats.Hist("mshr_occupancy", func(b *Bank) *stats.Histogram { return &b.mshrOcc }),
	stats.Hist("wcb_occupancy", func(b *Bank) *stats.Histogram { return &b.wcbOcc }),
	stats.Count("hits", func(b *Bank) uint64 { return b.stats.Hits }),
	stats.Count("misses", func(b *Bank) uint64 { return b.stats.Misses }),
	stats.Count("evictions", func(b *Bank) uint64 { return b.stats.Evictions }),
	stats.Count("write_backs", func(b *Bank) uint64 { return b.stats.WriteBacks + b.stats.WCBFullLines }),
	stats.Count("stall_cycles", func(b *Bank) uint64 { return b.stats.Stalls }),
	stats.Count("fault_partial_scrubs", func(b *Bank) uint64 { return b.stats.PartialScrubs }),
}

type line struct {
	valid    bool
	dirty    bool
	partial  bool // CombineLocal: holds partial sums, not authoritative data
	tag      uint64
	lastUsed uint64
	kind     mem.Kind // combine kind for partial lines

	// data is the line's payload, allocated when the way is first installed
	// and reused by later installs: a way that never holds a line costs a
	// nil pointer.
	data *[mem.LineWords]mem.Word
}

type mshr struct {
	valid  bool
	line   mem.Addr // line-aligned address
	issued bool     // fill request accepted by DRAM
	filled bool     // line is resident; pending drains as respQ allows
	// pending holds the requests waiting on the line, in arrival order. Its
	// backing array stays with the MSHR when it is freed, so a bank whose
	// MSHRs have all been used allocates nothing per miss.
	pending     []mem.Request
	pendingFill *[mem.LineWords]mem.Word // fill data staged while eviction is blocked
	alloc       uint64                   // allocation cycle, for miss spans
}

// EvictedLine is a partial-sum line surfaced by a CombineLocal bank.
type EvictedLine struct {
	Line mem.Addr
	Kind mem.Kind
	Data [mem.LineWords]mem.Word
}

// wcbEntry is one write-combining buffer slot.
type wcbEntry struct {
	valid    bool
	line     mem.Addr
	mask     uint8 // bit i set = word i written
	lastUsed uint64
	data     [mem.LineWords]mem.Word
}

const fullMask = uint8(1<<mem.LineWords - 1)

// wcbReplayID marks the internal word writes replayed from a spilled
// write-combining entry, so they can never alias a traced upstream ID.
const wcbReplayID = uint64(1) << 63

// partialScrubCycles is the fixed cost of a parity scrub on an evicted
// partial-sum line: the line is re-read from the data array and re-checked
// before it may leave the bank as a sum-back.
const partialScrubCycles = 16

// Bank is one slice of the stream cache.
type Bank struct {
	cfg   Config
	mode  Mode
	index int // this bank's number (for set mapping)
	// sets holds each set's ways, allocated when the set first installs a
	// line: a set that never holds one costs a nil slice, and a lookup in it
	// misses.
	sets     [][]line
	mshrs    []mshr
	mshrUsed int // valid MSHRs (occupancy)
	mshrWait int // valid MSHRs waiting on DRAM: issued, not yet filled
	dram     *dram.DRAM
	inQ      *sim.Queue[mem.Request]
	respQ    *sim.Delay[mem.Response]
	wbQ      *sim.Queue[dram.LineReq]
	evictQ   *sim.Queue[EvictedLine]
	wcb      []wcbEntry
	wcbUsed  int // valid write-combining entries (occupancy)
	stats    Stats
	mshrOcc  stats.Histogram // valid MSHRs, one sample per cycle
	wcbOcc   stats.Histogram // valid write-combining entries, one sample per cycle
	mshrLvl  stats.Level     // counts mshrUsed into mshrOcc at its change points
	wcbLvl   stats.Level     // counts wcbUsed into wcbOcc at its change points

	// quiet caches noWork, refreshed wherever its inputs change: at the end
	// of Tick, and in Accept, Fill and StartFlush.
	quiet bool

	flushing bool
	flushPos int // next line index (set*Ways + way) to examine during flush
	// flushBlocked records that the last flush step could not evict the
	// line at flushPos for want of a queue slot.
	flushBlocked bool

	zeroKind mem.Kind // combine kind for zero-allocation in CombineLocal

	tr    *span.Tracer
	track string

	// wake is the bank's entry in its owner's due set; upWake is the entry
	// of the scatter-add unit that drains its response pipe.
	wake, upWake sim.Wake

	// Fault injection (nil when disabled): evicted partial-sum lines whose
	// parity check fires pass through scrubQ (a fixed re-check delay) before
	// surfacing in evictQ.
	partialInj *fault.Injector
	scrubQ     *sim.Delay[EvictedLine]
}

// NewBank constructs bank index of a cache described by cfg, backed by d.
// d may be nil only in CombineLocal mode, where misses never fetch.
func NewBank(cfg Config, index int, d *dram.DRAM, mode Mode) *Bank {
	if cfg.Banks <= 0 || cfg.TotalLines%cfg.Banks != 0 {
		panic(fmt.Sprintf("cache: TotalLines %d not divisible by Banks %d", cfg.TotalLines, cfg.Banks))
	}
	perBank := cfg.TotalLines / cfg.Banks
	if cfg.Ways <= 0 || perBank%cfg.Ways != 0 {
		panic(fmt.Sprintf("cache: lines per bank %d not divisible by ways %d", perBank, cfg.Ways))
	}
	if mode == Normal && d == nil {
		panic("cache: Normal mode requires a DRAM backend")
	}
	wcbEntries := cfg.WCBEntries
	if wcbEntries <= 0 {
		wcbEntries = 8
	}
	b := &Bank{
		cfg:      cfg,
		mode:     mode,
		index:    index,
		sets:     make([][]line, perBank/cfg.Ways),
		mshrs:    make([]mshr, cfg.MSHRs),
		dram:     d,
		inQ:      sim.NewQueue[mem.Request](cfg.InQDepth),
		respQ:    sim.NewDelay[mem.Response](cfg.HitLatency, cfg.RespQDepth),
		wbQ:      sim.NewQueue[dram.LineReq](cfg.WBQDepth),
		evictQ:   sim.NewQueue[EvictedLine](cfg.WBQDepth),
		mshrOcc:  stats.NewHistogram(cfg.MSHRs + 1),
		wcbOcc:   stats.NewHistogram(wcbEntries + 1),
		zeroKind: mem.AddF64,
		quiet:    true,
	}
	b.mshrLvl = stats.OccupancyLevel(&b.mshrOcc)
	b.wcbLvl = stats.OccupancyLevel(&b.wcbOcc)
	if cfg.WriteNoAllocate {
		b.wcb = make([]wcbEntry, wcbEntries)
	}
	return b
}

// SetZeroKind configures the combining identity used for zero-allocated
// lines in CombineLocal mode.
func (b *Bank) SetZeroKind(k mem.Kind) { b.zeroKind = k }

// Stats returns a copy of the activity counters.
func (b *Bank) Stats() Stats { return b.stats }

// FlushStats records the per-cycle MSHR and write-combining occupancy
// samples of every cycle before now, which the bank counts at their change
// points.
func (b *Bank) FlushStats(now uint64) {
	b.mshrLvl.Flush(now)
	b.wcbLvl.Flush(now)
}

// SetWake installs the bank's entry in its owner's due set (an accepted
// request or a fill with work left marks the bank due) and the entry of the
// unit that drains its response pipe (a response pushed marks that unit due
// when it becomes poppable).
func (b *Bank) SetWake(self, up sim.Wake) { b.wake, b.upWake = self, up }

// SetSpanTracer installs a request-lifecycle tracer; track names the bank
// in exported traces (e.g. "cache[3]"). A nil tracer disables tracing.
func (b *Bank) SetSpanTracer(tr *span.Tracer, track string) {
	b.tr = tr
	b.track = track
}

// SetFaults installs fault injection. inst salts the injector stream so
// every bank draws its own schedule. The one cache fault class is a parity
// fault on an evicted partial-sum line (CombineLocal mode): the line is held
// in a scrub pipe for partialScrubCycles and re-checked before it may leave
// as a sum-back — detected and recovered, never silently corrupting. One
// draw per evicted partial line keeps legacy and fast-forward stepping on
// identical schedules.
func (b *Bank) SetFaults(fc fault.Config, inst string) {
	b.partialInj = fault.NewInjector(fc.Seed, inst+".cache.partial", fc.CSCorruptRate)
	if b.partialInj != nil {
		b.scrubQ = sim.NewDelay[EvictedLine](partialScrubCycles, b.cfg.WBQDepth)
	}
}

// FaultCount returns the number of parity scrubs this bank has performed —
// the signal the node watches against its degradation threshold.
func (b *Bank) FaultCount() uint64 { return b.stats.PartialScrubs }

// BankOf maps a line-aligned address to its bank number. Successive lines
// map to successive banks; a narrow index range therefore concentrates on
// few banks — the paper's "hot bank effect" (§4.3, Figure 7).
func BankOf(a mem.Addr, banks int) int {
	return int((uint64(a) / mem.LineWords) % uint64(banks))
}

// setTag computes the set index and tag of a line-aligned address for this
// bank.
func (b *Bank) setTag(a mem.Addr) (int, uint64) {
	local := (uint64(a) / mem.LineWords) / uint64(b.cfg.Banks)
	return int(local % uint64(len(b.sets))), local / uint64(len(b.sets))
}

// lookup returns the way holding the line, or -1.
func (b *Bank) lookup(set int, tag uint64) int {
	for w := range b.sets[set] {
		ln := &b.sets[set][w]
		if ln.valid && ln.tag == tag {
			return w
		}
	}
	return -1
}

// victim returns the way to replace in set (invalid first, else LRU among
// unpinned lines), or -1 when every way is pinned by a draining MSHR. The
// set is opened if it has never held a line.
func (b *Bank) victim(set int) int {
	if b.sets[set] == nil {
		b.sets[set] = make([]line, b.cfg.Ways)
		return 0
	}
	best, bestUsed := -1, ^uint64(0)
	for w := range b.sets[set] {
		ln := &b.sets[set][w]
		if !ln.valid {
			return w
		}
		if ln.lastUsed < bestUsed && !b.pinnedLine(set, w) {
			best, bestUsed = w, ln.lastUsed
		}
	}
	return best
}

// lineAddrOf reconstructs the line-aligned global address of a cached line.
func (b *Bank) lineAddrOf(set int, tag uint64) mem.Addr {
	local := tag*uint64(len(b.sets)) + uint64(set)
	return mem.Addr((local*uint64(b.cfg.Banks) + uint64(b.index)) * mem.LineWords)
}

// evict removes the line at (set, way), queueing any write-back or sum-back.
// It reports whether eviction was possible (queues had room).
func (b *Bank) evict(now uint64, set, way int) bool {
	ln := &b.sets[set][way]
	if !ln.valid {
		return true
	}
	addr := b.lineAddrOf(set, ln.tag)
	if ln.dirty {
		if ln.partial {
			if b.evictQ.Full() || (b.scrubQ != nil && b.scrubQ.Full()) {
				return false
			}
			ev := EvictedLine{Line: addr, Kind: ln.kind, Data: *ln.data}
			if b.partialInj.Fire() {
				// Injected parity fault: the line re-checks through the
				// scrub pipe before it may leave as a sum-back. One draw
				// per evicted partial line.
				b.scrubQ.Push(now, ev)
				b.stats.PartialScrubs++
			} else {
				b.evictQ.MustPush(ev)
			}
			b.stats.SumBacks++
		} else {
			if b.wbQ.Full() {
				return false
			}
			b.wbQ.MustPush(dram.LineReq{Line: addr, Write: true, Data: *ln.data})
			b.stats.WriteBacks++
		}
	}
	ln.valid = false
	b.stats.Evictions++
	return true
}

// install places data into the cache for the given line, evicting as needed.
// Reports false when the victim could not be evicted this cycle.
func (b *Bank) install(now uint64, a mem.Addr, data [mem.LineWords]mem.Word, partial bool) bool {
	set, tag := b.setTag(a)
	way := b.victim(set)
	if way < 0 || !b.evict(now, set, way) {
		return false
	}
	ln := &b.sets[set][way]
	d := ln.data
	if d == nil {
		d = new([mem.LineWords]mem.Word)
	}
	*d = data
	*ln = line{valid: true, tag: tag, lastUsed: now, data: d, partial: partial, kind: b.zeroKind}
	return true
}

// apply performs a word operation on a resident line and, when a response is
// due, pushes it. The caller has verified respQ capacity.
func (b *Bank) apply(now uint64, ln *line, r mem.Request) {
	if b.tr != nil {
		// Sampled ops that get a response move to the reply path; all
		// others (stores, local combines) complete here.
		if r.Kind == mem.Read || r.Kind.IsFetch() {
			b.tr.OpStage(r.Node, r.ID, span.StageReply, now)
		} else {
			b.tr.OpEnd(r.Node, r.ID, now)
		}
	}
	ln.lastUsed = now
	off := r.Addr.LineOffset()
	switch r.Kind {
	case mem.Read:
		b.respond(now, mem.Response{ID: r.ID, Kind: mem.Read, Addr: r.Addr, Val: ln.data[off], Node: r.Node})
	case mem.Write:
		ln.data[off] = r.Val
		ln.dirty = true
	default:
		// Scatter-add kinds reach the bank directly only in CombineLocal
		// mode, where the bank itself merges into the partial line. (In the
		// full machine the scatter-add unit splits RMWs into Read+Write
		// before they reach the cache.)
		old := ln.data[off]
		ln.data[off] = mem.Combine(r.Kind, old, r.Val)
		ln.dirty = true
		ln.kind = r.Kind
		if r.Kind.IsFetch() {
			b.respond(now, mem.Response{ID: r.ID, Kind: r.Kind, Addr: r.Addr, Val: old, Node: r.Node})
		}
	}
}

// respond pushes a response into the hit-latency pipe (the caller has
// verified capacity) and marks the draining unit due when it pops out.
func (b *Bank) respond(now uint64, r mem.Response) {
	b.respQ.Push(now, r)
	b.upWake.At(b.respQ.NextReady())
}

// CanAccept reports whether the input queue has room.
func (b *Bank) CanAccept(now uint64) bool { return !b.inQ.Full() }

// Accept submits a word request to the bank.
func (b *Bank) Accept(now uint64, r mem.Request) bool {
	if BankOf(r.Addr.Line(), b.cfg.Banks) != b.index {
		panic(fmt.Sprintf("cache: address %d routed to wrong bank %d", r.Addr, b.index))
	}
	if !b.inQ.Push(r) {
		return false
	}
	b.quiet = false
	b.wake.At(now)
	return true
}

// PopResponse returns one completed response, if ready.
func (b *Bank) PopResponse(now uint64) (mem.Response, bool) {
	return b.respQ.Pop(now)
}

// NextResponse reports the cycle the head of the hit-latency response pipe
// becomes poppable (see port.Word).
func (b *Bank) NextResponse(now uint64) uint64 {
	return max(now, b.respQ.NextReady())
}

// PopEvict returns one evicted partial-sum line (CombineLocal mode). Popping
// frees a slot a blocked flush walk or scrubbed line may be waiting for; the
// owner must tick the bank again (NextEvent reports the work).
func (b *Bank) PopEvict() (EvictedLine, bool) { return b.evictQ.Pop() }

// HoldsEvictions reports whether an evicted partial-sum line waits for the
// owner's PopEvict.
func (b *Bank) HoldsEvictions() bool { return !b.evictQ.Empty() }

// mshrFor returns the MSHR tracking the line, or nil.
func (b *Bank) mshrFor(a mem.Addr) *mshr {
	for i := range b.mshrs {
		if b.mshrs[i].valid && b.mshrs[i].line == a {
			return &b.mshrs[i]
		}
	}
	return nil
}

// freeMSHR returns an unused MSHR, or nil.
func (b *Bank) freeMSHR() *mshr {
	for i := range b.mshrs {
		if !b.mshrs[i].valid {
			return &b.mshrs[i]
		}
	}
	return nil
}

// Fill delivers a DRAM read completion for a line owned by this bank.
func (b *Bank) Fill(now uint64, a mem.Addr, data [mem.LineWords]mem.Word) {
	m := b.mshrFor(a)
	if m == nil {
		panic(fmt.Sprintf("cache: fill for line %d with no MSHR", a))
	}
	b.mshrWait--
	if !b.install(now, a, data, false) {
		// Victim eviction blocked on a full write-back queue: stage the data
		// in the MSHR's holding register and retry on the next Tick. Only
		// this path copies the data to the heap.
		staged := data
		m.pendingFill = &staged
	} else {
		b.completeMSHR(now, m)
	}
	// A fill lands after the bank's turn: what it changed is first seen,
	// and first worked on, in the next cycle.
	b.mshrLvl.Set(now+1, b.mshrUsed)
	b.quiet = b.noWork()
	b.wake.At(b.NextEvent(now + 1))
}

// completeMSHR marks the line resident and drains as many pending requests
// as the response queue allows; the rest drain on subsequent Ticks while
// the line stays pinned (see victim).
func (b *Bank) completeMSHR(now uint64, m *mshr) {
	m.filled = true
	b.drainMSHR(now, m)
}

// drainMSHR services pending requests of a filled MSHR against the resident
// line, respecting response-queue capacity, and frees the MSHR when empty.
// Requests still waiting for response room move to the front of the pending
// list; the freed MSHR keeps the list's backing array.
func (b *Bank) drainMSHR(now uint64, m *mshr) {
	set, tag := b.setTag(m.line)
	way := b.lookup(set, tag)
	if way < 0 {
		panic(fmt.Sprintf("cache: filled MSHR for line %d but line not resident", m.line))
	}
	ln := &b.sets[set][way]
	for i, r := range m.pending {
		needsResp := r.Kind == mem.Read || r.Kind.IsFetch()
		if needsResp && b.respQ.Full() {
			m.pending = m.pending[:copy(m.pending, m.pending[i:])]
			return
		}
		b.apply(now, ln, r)
	}
	if b.tr != nil {
		b.tr.SpanAsync(b.track, fmt.Sprintf("miss line=%d", m.line), m.alloc, now)
	}
	*m = mshr{pending: m.pending[:0]}
	b.mshrUsed--
}

// pinnedLine reports whether a filled MSHR still references the line at
// (set, way); such lines must not be evicted until the MSHR drains.
func (b *Bank) pinnedLine(set, way int) bool {
	ln := &b.sets[set][way]
	if !ln.valid {
		return false
	}
	addr := b.lineAddrOf(set, ln.tag)
	for i := range b.mshrs {
		m := &b.mshrs[i]
		if m.valid && m.filled && m.line == addr {
			return true
		}
	}
	return false
}

// Tick processes queued requests, retries blocked fills, and drains the
// write-back queue to DRAM. Occupancy levels changed by the tick are first
// sampled in the next cycle. Each stage is guarded by a count of its own
// work, so a stage with nothing to do costs O(1); Quiet is true exactly when
// every guard is false.
func (b *Bank) Tick(now uint64) {
	if b.inQ.Len() > b.cfg.PortWidth {
		// More word requests queued than the bank port can serve this cycle:
		// the bank-conflict serialization of §4.3.
		b.stats.ConflictCycles++
	}

	// Every valid MSHR not waiting on DRAM has local work: a filled line
	// draining, a staged fill, or an unissued fetch.
	if b.mshrUsed > b.mshrWait {
		b.tickMSHRs(now)
	}

	// Front-side request processing.
	for k := 0; k < b.cfg.PortWidth; k++ {
		if !b.processOne(now) {
			break
		}
	}

	// Flush walk: evict up to one line per cycle.
	if b.flushing {
		b.stepFlush(now)
	}

	// Surface scrubbed partial lines whose re-check has completed.
	for b.scrubQ != nil && b.scrubQ.Len() > 0 && !b.evictQ.Full() {
		ev, ok := b.scrubQ.Pop(now)
		if !ok {
			break
		}
		b.evictQ.MustPush(ev)
	}

	// Drain write-backs to DRAM.
	for b.dram != nil {
		wb := b.wbQ.Peek()
		if wb == nil {
			break
		}
		if !b.dram.CanAccept(wb.Line) || !b.dram.Accept(now, *wb) {
			break
		}
		b.wbQ.Pop()
	}
	b.mshrLvl.Set(now+1, b.mshrUsed)
	b.wcbLvl.Set(now+1, b.wcbUsed)
	b.quiet = b.noWork()
}

// Quiet reports whether no stage of Tick has work: no input, no
// write-back, no MSHR with local work (every valid MSHR waits on DRAM), no
// flush walk and no line in the scrub pipe. A quiet bank's Tick changes
// nothing (its levels are set to the values they hold), so per-cycle
// stepping passes over it. Lines in the response pipe and the eviction
// queue are for the unit and the owner to pop, not work of the bank's. The
// answer is one cached flag, so an idle bank costs one load per cycle; it
// is derived from the bank's own counts alone, never from NextEvent or an
// owner's due set, so per-cycle stepping stays a schedule independent of
// fast-forward's.
func (b *Bank) Quiet() bool { return b.quiet }

// noWork computes Quiet from the bank's state.
func (b *Bank) noWork() bool {
	return b.inQ.Empty() && b.wbQ.Empty() && b.mshrUsed <= b.mshrWait && !b.flushing &&
		(b.scrubQ == nil || b.scrubQ.Len() == 0)
}

// tickMSHRs drains filled MSHRs, retries fills blocked on eviction, then
// issues the fetches that have not reached DRAM yet.
func (b *Bank) tickMSHRs(now uint64) {
	for i := range b.mshrs {
		m := &b.mshrs[i]
		if !m.valid {
			continue
		}
		if m.filled {
			b.drainMSHR(now, m)
			continue
		}
		if m.pendingFill != nil {
			if b.install(now, m.line, *m.pendingFill, false) {
				m.pendingFill = nil
				b.completeMSHR(now, m)
			}
		}
	}
	if b.mode != Normal {
		return
	}
	for i := range b.mshrs {
		m := &b.mshrs[i]
		if m.valid && !m.issued && m.pendingFill == nil {
			if b.dram.CanAccept(m.line) && b.dram.Accept(now, dram.LineReq{Line: m.line}) {
				m.issued = true
				b.mshrWait++
			}
		}
	}
}

// NextEvent reports the earliest cycle at which the bank can do work (see
// the sim package doc), in O(1). Queued input, pending write-backs, a flush
// walk that can step, and any MSHR that still has local work (unissued
// fetch, staged fill, or a filled line draining: every valid MSHR not
// counted in mshrWait) are work in the current cycle. An MSHR waiting on
// DRAM is the DRAM's event: its fill arrives through Fill. The hit-latency
// response pipe is the scatter-add unit's input, so the unit reports it
// (port.Word NextResponse); the bank's own timer is the parity-scrub pipe.
// Evicted partial lines are the owner's to drain (PopEvict): while the
// eviction queue is full, neither a flush walk stopped on it nor a scrubbed
// line can move, so the bank waits for the owner. Write-combining entries
// hold no timer: they drain only in reaction to new requests or spills.
func (b *Bank) NextEvent(now uint64) uint64 {
	if !b.inQ.Empty() || !b.wbQ.Empty() || b.mshrUsed > b.mshrWait {
		return now
	}
	evictFull := b.evictQ.Full()
	if b.flushing && !(b.flushBlocked && evictFull) {
		return now
	}
	if b.scrubQ == nil || evictFull {
		return sim.Never
	}
	return max(now, b.scrubQ.NextReady())
}

// wcbFind returns the write-combining entry for a line, or -1.
func (b *Bank) wcbFind(line mem.Addr) int {
	for i := range b.wcb {
		if b.wcb[i].valid && b.wcb[i].line == line {
			return i
		}
	}
	return -1
}

// wcbVictim returns a free or LRU write-combining entry.
func (b *Bank) wcbVictim() int {
	best, bestUsed := 0, ^uint64(0)
	for i := range b.wcb {
		if !b.wcb[i].valid {
			return i
		}
		if b.wcb[i].lastUsed < bestUsed {
			best, bestUsed = i, b.wcb[i].lastUsed
		}
	}
	return best
}

// spillWCB empties entry i: a fully written line goes straight to the
// write-back queue (no fill); a partial line converts into an MSHR
// fetch-and-merge whose pending list replays the buffered word writes.
// It reports false when the needed queue or MSHR was unavailable.
func (b *Bank) spillWCB(now uint64, i int) bool {
	e := &b.wcb[i]
	if e.mask == fullMask {
		if b.wbQ.Full() {
			return false
		}
		b.wbQ.MustPush(dram.LineReq{Line: e.line, Write: true, Data: e.data})
		b.stats.WCBFullLines++
		e.valid = false
		b.wcbUsed--
		return true
	}
	m := b.mshrFor(e.line)
	if m == nil {
		m = b.freeMSHR()
		if m == nil {
			return false
		}
		*m = mshr{valid: true, line: e.line, pending: m.pending[:0]}
		b.mshrUsed++
		if b.tr != nil {
			m.alloc = now
		}
		b.stats.Misses++
	}
	for w := 0; w < mem.LineWords; w++ {
		if e.mask&(1<<w) != 0 {
			m.pending = append(m.pending, mem.Request{ID: wcbReplayID, Kind: mem.Write, Addr: e.line + mem.Addr(w), Val: e.data[w]})
		}
	}
	b.stats.WCBSpills++
	e.valid = false
	b.wcbUsed--
	return true
}

// wcbWrite absorbs a write miss into the combining buffer; reports whether
// it made progress.
func (b *Bank) wcbWrite(now uint64, r mem.Request) bool {
	line := r.Addr.Line()
	i := b.wcbFind(line)
	if i < 0 {
		i = b.wcbVictim()
		if b.wcb[i].valid && !b.spillWCB(now, i) {
			b.stats.Stalls++
			return false
		}
		b.wcb[i] = wcbEntry{valid: true, line: line}
		b.wcbUsed++
	}
	e := &b.wcb[i]
	e.data[r.Addr.LineOffset()] = r.Val
	e.mask |= 1 << r.Addr.LineOffset()
	e.lastUsed = now
	if b.tr != nil {
		// A sampled store completes once the combining buffer owns it.
		b.tr.OpEnd(r.Node, r.ID, now)
	}
	b.stats.WCBMerges++
	if e.mask == fullMask && !b.wbQ.Full() {
		b.wbQ.MustPush(dram.LineReq{Line: e.line, Write: true, Data: e.data})
		b.stats.WCBFullLines++
		e.valid = false
		b.wcbUsed--
	}
	return true
}

// processOne handles the head input request; reports whether it made
// progress (so the caller can consume up to PortWidth per cycle).
func (b *Bank) processOne(now uint64) bool {
	p := b.inQ.Peek()
	if p == nil {
		return false
	}
	r := *p
	needsResp := r.Kind == mem.Read || r.Kind.IsFetch()
	if needsResp && b.respQ.Full() {
		b.stats.Stalls++
		return false
	}
	lineAddr := r.Addr.Line()
	set, tag := b.setTag(lineAddr)
	if b.cfg.WriteNoAllocate {
		resident := b.lookup(set, tag) >= 0
		if r.Kind == mem.Write && !resident && b.mshrFor(lineAddr) == nil {
			if !b.wcbWrite(now, r) {
				return false
			}
			b.inQ.Pop()
			return true
		}
		// Any other access to a combining-buffer line spills it first, so
		// the subsequent fill merges the buffered writes before this
		// request is serviced.
		if i := b.wcbFind(lineAddr); i >= 0 {
			if !b.spillWCB(now, i) {
				b.stats.Stalls++
				return false
			}
		}
	}
	if way := b.lookup(set, tag); way >= 0 {
		b.stats.Hits++
		b.apply(now, &b.sets[set][way], r)
		b.inQ.Pop()
		return true
	}
	// Miss.
	if b.mode == CombineLocal {
		// Zero-allocate with the combining identity (paper §3.2: "it is
		// simply allocated with a value of 0 instead of being read").
		var data [mem.LineWords]mem.Word
		id := mem.Identity(b.zeroKind)
		for i := range data {
			data[i] = id
		}
		if !b.install(now, lineAddr, data, true) {
			b.stats.Stalls++
			return false
		}
		way := b.lookup(set, tag)
		b.stats.Misses++
		b.apply(now, &b.sets[set][way], r)
		b.inQ.Pop()
		return true
	}
	if m := b.mshrFor(lineAddr); m != nil {
		m.pending = append(m.pending, r)
		if b.tr != nil {
			b.tr.OpStage(r.Node, r.ID, span.StageDRAM, now)
		}
		b.stats.MergedMiss++
		b.inQ.Pop()
		return true
	}
	m := b.freeMSHR()
	if m == nil {
		b.stats.Stalls++
		return false
	}
	*m = mshr{valid: true, line: lineAddr, pending: append(m.pending[:0], r)}
	b.mshrUsed++
	if b.tr != nil {
		m.alloc = now
		b.tr.OpStage(r.Node, r.ID, span.StageDRAM, now)
	}
	b.stats.Misses++
	b.inQ.Pop()
	return true
}

// StartFlush begins evicting every valid line (used for the multi-node
// flush-with-sum-back synchronization and for end-of-phase write-back).
func (b *Bank) StartFlush() {
	b.flushing = true
	b.flushPos = 0
	b.quiet = false
}

// stepFlush evicts the next valid line, one per cycle. Sets that never
// held a line are passed over whole.
func (b *Bank) stepFlush(now uint64) {
	b.flushBlocked = false
	ways := b.cfg.Ways
	for b.flushPos < len(b.sets)*ways {
		set, way := b.flushPos/ways, b.flushPos%ways
		if b.sets[set] == nil {
			b.flushPos = (set + 1) * ways
			continue
		}
		if b.sets[set][way].valid {
			if !b.evict(now, set, way) {
				b.flushBlocked = true
				return // queue full; retry when a slot frees
			}
			b.flushPos++
			return
		}
		b.flushPos++
	}
	b.flushing = false
}

// Flushing reports whether a flush walk is still in progress.
func (b *Bank) Flushing() bool { return b.flushing }

// Busy reports whether the bank still holds unfinished work (excluding
// clean/dirty resident lines, which persist across phases).
func (b *Bank) Busy() bool {
	if !b.inQ.Empty() || b.respQ.Len() > 0 || !b.wbQ.Empty() || !b.evictQ.Empty() || b.flushing {
		return true
	}
	return b.mshrUsed > 0 || (b.scrubQ != nil && b.scrubQ.Len() > 0)
}

// FlushFunctional writes every dirty non-partial line into the DRAM store
// in zero simulated time. Call it after a run completes, before reading
// results back from the store; now is the owner's clock, from which the
// emptied write-combining buffer is sampled.
func (b *Bank) FlushFunctional(now uint64) {
	if b.dram == nil {
		return
	}
	for set, ways := range b.sets {
		for w := range ways {
			ln := &ways[w]
			if ln.valid && ln.dirty && !ln.partial {
				b.dram.Store().StoreLine(b.lineAddrOf(set, ln.tag), ln.data)
				ln.dirty = false
			}
		}
	}
	for i := range b.wcb {
		e := &b.wcb[i]
		if !e.valid {
			continue
		}
		for w := 0; w < mem.LineWords; w++ {
			if e.mask&(1<<w) != 0 {
				b.dram.Store().StoreWord(e.line+mem.Addr(w), e.data[w])
			}
		}
		e.valid = false
		b.wcbUsed--
	}
	b.wcbLvl.Set(now, b.wcbUsed)
}

// ResidentPartialLines returns the partial lines still resident (testing and
// final-drain support in CombineLocal mode).
func (b *Bank) ResidentPartialLines() []EvictedLine {
	var out []EvictedLine
	for set, ways := range b.sets {
		for w := range ways {
			ln := &ways[w]
			if ln.valid && ln.partial && ln.dirty {
				out = append(out, EvictedLine{Line: b.lineAddrOf(set, ln.tag), Kind: ln.kind, Data: *ln.data})
			}
		}
	}
	return out
}
