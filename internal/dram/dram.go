// Package dram models off-chip memory timing.
//
// Two models are provided:
//
//   - DRAM: a channel/bank model with open-row state and memory access
//     scheduling (FR-FCFS, after Rixner et al., which the paper cites as the
//     mechanism that keeps Merrimac's effective DRAM throughput close to
//     peak). It transacts in whole cache lines and backs the stream cache.
//
//   - Uniform: the simplified memory used by the paper's sensitivity study
//     (§4.4): a fixed latency plus a fixed minimum interval between
//     successive word accesses ("memory throughput is held constant at 1
//     word every 2 cycles"). It transacts in words and is used in the
//     no-cache configurations of Figures 11 and 12.
//
// Both models are functional as well as timed: they own a mem.Store that
// holds the authoritative memory image, so simulations produce real values.
package dram

import (
	"fmt"

	"scatteradd/internal/fault"
	"scatteradd/internal/mem"
	"scatteradd/internal/sim"
	"scatteradd/internal/span"
	"scatteradd/internal/stats"
)

// LineReq is a whole-cache-line transaction presented to the DRAM model.
// For writes, Data carries the line to be written; for reads, Data is
// ignored on input and returned in the LineResp.
type LineReq struct {
	ID    uint64
	Line  mem.Addr // line-aligned word address
	Write bool
	Data  [mem.LineWords]mem.Word
}

// LineResp is the completion of a read LineReq. Writes complete silently.
type LineResp struct {
	ID   uint64
	Line mem.Addr
	Data [mem.LineWords]mem.Word
}

// SchedPolicy selects the per-channel scheduling discipline.
type SchedPolicy uint8

const (
	// FRFCFS prefers row-hit requests over older row-miss requests
	// (first-ready, first-come-first-served).
	FRFCFS SchedPolicy = iota
	// FIFO services requests strictly in arrival order (ablation baseline).
	FIFO
)

func (p SchedPolicy) String() string {
	if p == FIFO {
		return "FIFO"
	}
	return "FR-FCFS"
}

// Config holds the DRAM timing parameters. The defaults (DefaultConfig)
// realize the paper's Table 1: 16 channels and 38.4 GB/s peak bandwidth at
// 1 GHz.
type Config struct {
	Channels        int         // independent DRAM channels
	BanksPerChannel int         // internal banks per channel
	RowLines        int         // cache lines per DRAM row (row size / 64B)
	TCas            int         // cycles from issue to data for a row hit
	TRowMiss        int         // additional cycles for precharge+activate
	BusCyclesPerLn  int         // data-bus occupancy per line transfer
	QueueDepth      int         // per-channel request queue entries
	Policy          SchedPolicy // scheduling discipline
}

// DefaultConfig returns the Table 1 DRAM configuration: 16 channels whose
// aggregate peak bandwidth is 64B/27cyc * 16 = 37.9 GB/s at 1 GHz (the paper
// quotes 38.4 GB/s).
func DefaultConfig() Config {
	return Config{
		Channels:        16,
		BanksPerChannel: 8,
		RowLines:        32, // 2 KB rows
		TCas:            20,
		TRowMiss:        30,
		BusCyclesPerLn:  27,
		QueueDepth:      16,
		Policy:          FRFCFS,
	}
}

// Stats counts the DRAM's events: row-buffer locality and channel
// utilization, the levers behind the FR-FCFS scheduling the paper relies
// on. Each event is one field increment; Metrics names the ones a snapshot
// carries.
type Stats struct {
	Reads      uint64 // line reads serviced
	Writes     uint64 // line writes serviced
	RowHits    uint64
	RowMisses  uint64
	Precharges uint64 // row misses that closed an already-open row
	BusCycles  uint64 // cycles any channel's data bus was busy
	Stalls     uint64 // Accept attempts refused because a queue was full

	// QueueDepthMax is the high-water mark of the requests queued across
	// all channels, taken at every accepted request.
	QueueDepthMax uint64

	// Fault counters (zero unless injection is configured).
	FaultStalls      uint64 // transactions that suffered an injected timeout
	FaultStallCycles uint64 // extra latency charged by injected timeouts
	FaultWindows     uint64 // channel outage windows entered before an issue
}

// Metrics is the DRAM's snapshot descriptor: the key, kind and source of
// every counter a snapshot carries for one DRAM.
var Metrics = []stats.Metric[DRAM]{
	stats.Count("row_hits", func(d *DRAM) uint64 { return d.stats.RowHits }),
	stats.Count("row_misses", func(d *DRAM) uint64 { return d.stats.RowMisses }),
	stats.Count("precharges", func(d *DRAM) uint64 { return d.stats.Precharges }),
	stats.Count("channel_busy_cycles", func(d *DRAM) uint64 { return d.stats.BusCycles }),
	stats.Count("reads", func(d *DRAM) uint64 { return d.stats.Reads }),
	stats.Count("writes", func(d *DRAM) uint64 { return d.stats.Writes }),
	stats.HighWater("queue_depth", func(d *DRAM) uint64 { return d.stats.QueueDepthMax }),
	stats.Count("fault_stalls", func(d *DRAM) uint64 { return d.stats.FaultStalls }),
	stats.Count("fault_stall_cycles", func(d *DRAM) uint64 { return d.stats.FaultStallCycles }),
	stats.Count("fault_windows", func(d *DRAM) uint64 { return d.stats.FaultWindows }),
}

// BytesTransferred reports the total data moved over all channels.
func (s Stats) BytesTransferred() uint64 {
	return (s.Reads + s.Writes) * mem.LineBytes
}

type chanReq struct {
	req     LineReq
	arrival uint64
}

type pendingResp struct {
	resp  LineResp
	ready uint64
}

type bank struct {
	openRow   int64 // -1 when no row is open
	busyUntil uint64
}

type channel struct {
	queue   []chanReq
	banks   []bank
	busFree uint64 // first cycle the data bus is free

	// next is a lower bound on the first cycle the channel can do work (a
	// pending read completing or a queued transaction starting): exact after
	// every tick that found the channel due, lowered by Accept.
	next uint64

	// pending and resps are consumed from a head index rather than by
	// re-slicing, so their backing arrays are reused as slabs: once both
	// drains empty a slice, it resets to [:0]/head 0 and the steady-state
	// tick allocates nothing.
	pending  []pendingResp
	pendHead int
	resps    []LineResp
	respHead int

	// Fault injection: a per-channel stall stream (so the Bernoulli draw
	// order is a pure function of the channel's own issue sequence, not of
	// which other channels issued first), the channel's outage-window
	// schedule, and a cursor (last issue cycle) so entered windows are
	// counted at transaction grain — both stepping modes issue at identical
	// cycles, so the counts match.
	stallInj  *fault.Injector
	windows   *fault.Windows
	winCursor uint64
}

// DRAM is the multi-channel line-granular memory model.
type DRAM struct {
	cfg      Config
	store    *mem.Store
	channels []channel
	queued   int    // total requests queued across channels
	inflight int    // issued reads whose data has not arrived
	resps    int    // arrived reads not yet popped
	next     uint64 // minimum of the channels' next: the DRAM's next event
	stats    Stats
	rrChan   int // round-robin pointer for response draining
	tr       *span.Tracer
	track    string
	wake     sim.Wake

	// Fault injection (zero when disabled).
	stallCycles uint64
}

// New returns a DRAM with the given configuration, owning a fresh store.
func New(cfg Config) *DRAM {
	if cfg.Channels <= 0 || cfg.BanksPerChannel <= 0 || cfg.QueueDepth <= 0 {
		panic(fmt.Sprintf("dram: invalid config %+v", cfg))
	}
	d := &DRAM{cfg: cfg, store: mem.NewStore(), channels: make([]channel, cfg.Channels), next: sim.Never}
	for i := range d.channels {
		banks := make([]bank, cfg.BanksPerChannel)
		for b := range banks {
			banks[b].openRow = -1
		}
		d.channels[i].banks = banks
		d.channels[i].next = sim.Never
	}
	return d
}

// Store exposes the functional memory image (for zero-time initialization
// and result readback).
func (d *DRAM) Store() *mem.Store { return d.store }

// SetWake installs the DRAM's entry in its owner's due set: an accepted
// transaction marks the DRAM due at the cycle it can first start.
func (d *DRAM) SetWake(w sim.Wake) { d.wake = w }

// Stats returns a copy of the activity counters.
func (d *DRAM) Stats() Stats { return d.stats }

// Config returns the configuration the DRAM was built with.
func (d *DRAM) Config() Config { return d.cfg }

// SetSpanTracer installs a request-lifecycle tracer; track prefixes the
// per-channel track names (e.g. "dram" yields "dram[0]", "dram[1]", ...).
// A nil tracer disables tracing.
func (d *DRAM) SetSpanTracer(tr *span.Tracer, track string) {
	d.tr = tr
	d.track = track
}

// SetFaults installs fault injection. inst salts the injector streams so
// every DRAM instance (one per node in multi-node systems) gets its own
// deterministic schedule. Two fault classes apply:
//
//   - Per-transaction stalls: with probability DRAMStallRate a scheduled
//     transaction times out and retries internally, charging DRAMStallCycles
//     of extra latency. Each channel owns its own Bernoulli stream, drawn
//     once per issued transaction, so the draw order is a pure function of
//     the channel's issue sequence — identical under legacy stepping and
//     fast-forward, and independent of the order channels are ticked in.
//
//   - Channel outage windows: each channel owns a stateless fault.Windows
//     schedule during which it issues nothing. The schedule is a pure
//     function of the cycle number, so NextEvent can defer past windows
//     exactly and the fast-forward engine never lands inside one blind.
func (d *DRAM) SetFaults(fc fault.Config, inst string) {
	fc = fc.WithDefaults()
	d.stallCycles = uint64(fc.DRAMStallCycles)
	for ci := range d.channels {
		d.channels[ci].stallInj = fault.NewInjector(fc.Seed,
			fmt.Sprintf("%s.dram.stall[%d]", inst, ci), fc.DRAMStallRate)
		d.channels[ci].windows = fault.NewWindows(fc.Seed,
			fmt.Sprintf("%s.dram.window[%d]", inst, ci),
			fc.DRAMWindowEvery, fc.DRAMWindowSpan, fc.DRAMWindowRate)
	}
}

// lineIndex returns the global line number of a line-aligned address.
func lineIndex(line mem.Addr) uint64 { return uint64(line) / mem.LineWords }

// channelOf maps a line to its channel (line interleaving).
func (d *DRAM) channelOf(line mem.Addr) int {
	return int(lineIndex(line) % uint64(d.cfg.Channels))
}

// bankRowOf maps a line to (bank, row) within its channel.
func (d *DRAM) bankRowOf(line mem.Addr) (int, int64) {
	li := lineIndex(line) / uint64(d.cfg.Channels) // channel-local line number
	b := int(li % uint64(d.cfg.BanksPerChannel))
	row := int64(li / uint64(d.cfg.BanksPerChannel) / uint64(d.cfg.RowLines))
	return b, row
}

// CanAccept reports whether a request for the given line can be enqueued.
func (d *DRAM) CanAccept(line mem.Addr) bool {
	return len(d.channels[d.channelOf(line)].queue) < d.cfg.QueueDepth
}

// Accept enqueues a line transaction. It reports false (and counts a stall)
// when the target channel queue is full. Write data is applied to the
// functional store immediately; timing is charged when the request is
// scheduled.
func (d *DRAM) Accept(now uint64, r LineReq) bool {
	if r.Line != r.Line.Line() {
		panic(fmt.Sprintf("dram: unaligned line address %d", r.Line))
	}
	ch := &d.channels[d.channelOf(r.Line)]
	if len(ch.queue) >= d.cfg.QueueDepth {
		d.stats.Stalls++
		return false
	}
	if r.Write {
		d.store.StoreLine(r.Line, &r.Data)
	}
	ch.queue = append(ch.queue, chanReq{req: r, arrival: now})
	d.queued++
	// The new request can start no earlier than its own bank and the bus
	// allow (exactly the channel's new next under FR-FCFS, a lower bound
	// under FIFO, where it may wait behind the head).
	b, _ := d.bankRowOf(r.Line)
	ch.next = min(ch.next, ch.windows.Defer(max(now, ch.busFree, ch.banks[b].busyUntil)))
	d.next = min(d.next, ch.next)
	d.wake.At(d.next)
	d.stats.QueueDepthMax = max(d.stats.QueueDepthMax, uint64(d.queued))
	return true
}

// schedule picks the index in ch.queue to service next under the configured
// policy, or -1 if nothing can start this cycle.
func (d *DRAM) schedule(now uint64, ch *channel) int {
	if len(ch.queue) == 0 {
		return -1
	}
	if ch.busFree > now {
		return -1
	}
	if _, blocked := ch.windows.Blocked(now); blocked {
		return -1 // injected channel outage: nothing issues
	}
	pick := -1
	if d.cfg.Policy == FRFCFS {
		// First pass: oldest row hit on a ready bank.
		for i := range ch.queue {
			b, row := d.bankRowOf(ch.queue[i].req.Line)
			bk := &ch.banks[b]
			if bk.busyUntil <= now && bk.openRow == row {
				pick = i
				break
			}
		}
	}
	if pick < 0 {
		// Oldest request on a ready bank.
		for i := range ch.queue {
			b, _ := d.bankRowOf(ch.queue[i].req.Line)
			if ch.banks[b].busyUntil <= now {
				pick = i
				break
			}
			if d.cfg.Policy == FIFO {
				return -1 // strict order: head blocked means all blocked
			}
		}
	}
	return pick
}

// Tick advances all channels by one cycle, in channel order. A channel
// whose next lies beyond now has nothing due, so its tick changes nothing
// and its next stays valid; a due channel's next is recomputed. With nothing
// queued or in flight no channel has work, and Tick returns at once: the
// tick that retired the last work ran the full loop, which left every
// channel's next at Never.
func (d *DRAM) Tick(now uint64) {
	d.next = sim.Never
	if d.quiet() {
		return
	}
	d.tickChannels(now)
}

// tickChannels ticks every channel and refreshes the DRAM's next.
func (d *DRAM) tickChannels(now uint64) {
	for ci := range d.channels {
		d.tickChannel(now, ci)
		ch := &d.channels[ci]
		if ch.next <= now {
			ch.next = d.channelNext(now+1, ch)
		}
		d.next = min(d.next, ch.next)
	}
}

// quiet reports whether no channel holds a queued request or a pending
// read. It reads the DRAM's own counts, never its next.
func (d *DRAM) quiet() bool { return d.queued == 0 && d.inflight == 0 }

// tickChannel advances one channel by one cycle. A channel with nothing
// queued and no read pending has nothing to do and returns at once: the
// guard reads only the channel's own state, never its next, so legacy
// stepping stays an independent reference, and outage windows are counted
// at issue, so skipping an idle cycle loses none.
func (d *DRAM) tickChannel(now uint64, ci int) {
	ch := &d.channels[ci]
	if len(ch.queue) == 0 && ch.pendHead == len(ch.pending) {
		return
	}
	// Retire pending reads whose data has arrived.
	for ch.pendHead < len(ch.pending) && ch.pending[ch.pendHead].ready <= now {
		ch.resps = append(ch.resps, ch.pending[ch.pendHead].resp)
		ch.pendHead++
		d.inflight--
		d.resps++
	}
	if ch.pendHead > 0 && ch.pendHead == len(ch.pending) {
		ch.pending = ch.pending[:0]
		ch.pendHead = 0
	}
	i := d.schedule(now, ch)
	if i < 0 {
		return
	}
	cr := ch.queue[i]
	ch.queue = append(ch.queue[:i], ch.queue[i+1:]...)
	d.queued--
	b, row := d.bankRowOf(cr.req.Line)
	bk := &ch.banks[b]
	lat := uint64(d.cfg.TCas)
	if ch.windows != nil {
		// Charge outage windows entered since the previous issue; both
		// stepping modes issue at identical cycles, so counts match.
		d.stats.FaultWindows += ch.windows.CountIn(ch.winCursor, now)
		ch.winCursor = now
	}
	if ch.stallInj.Fire() {
		// Injected timeout: the transaction retries internally and
		// completes late. One draw per issued transaction.
		lat += d.stallCycles
		d.stats.FaultStalls++
		d.stats.FaultStallCycles += d.stallCycles
	}
	rowHit := bk.openRow == row
	if rowHit {
		d.stats.RowHits++
	} else {
		d.stats.RowMisses++
		if bk.openRow >= 0 {
			d.stats.Precharges++
		}
		lat += uint64(d.cfg.TRowMiss)
		bk.openRow = row
	}
	bus := uint64(d.cfg.BusCyclesPerLn)
	bk.busyUntil = now + lat + bus
	ch.busFree = now + lat + bus // serialize transfers on the channel bus
	d.stats.BusCycles += bus
	if d.tr != nil {
		// One serialized service span per channel transaction, with
		// the queueing delay and row outcome in the slice name.
		rw, rowTag := "rd", "hit"
		if cr.req.Write {
			rw = "wr"
		}
		if !rowHit {
			rowTag = "miss"
		}
		d.tr.Span(fmt.Sprintf("%s[%d]", d.track, ci),
			fmt.Sprintf("%s line=%d q=%d row-%s", rw, cr.req.Line, now-cr.arrival, rowTag),
			now, now+lat+bus)
	}
	if cr.req.Write {
		d.stats.Writes++
		return // data already in store; no response
	}
	d.stats.Reads++
	resp := LineResp{ID: cr.req.ID, Line: cr.req.Line}
	d.store.LoadLine(cr.req.Line, &resp.Data)
	ch.pending = append(ch.pending, pendingResp{resp: resp, ready: now + lat + bus})
	d.inflight++
}

// NextEvent reports the earliest cycle at which any channel can do work
// (see the sim package doc), in O(1): an undelivered response is work now;
// otherwise the minimum of the channels' cached next events, which Accept
// and Tick keep current.
func (d *DRAM) NextEvent(now uint64) uint64 {
	if d.resps > 0 {
		return now
	}
	return max(now, d.next)
}

// channelNext returns the earliest cycle >= now at which ch can do work:
// the earliest pending-read completion or the earliest cycle a queued
// transaction can start (data bus free and a serviceable bank ready — the
// head's bank under FIFO, any queued request's bank under FR-FCFS).
func (d *DRAM) channelNext(now uint64, ch *channel) uint64 {
	ev := sim.Never
	// busFree serializes transfers, so pending completions are FIFO-ordered:
	// the head is the earliest.
	if ch.pendHead < len(ch.pending) {
		ev = max(now, ch.pending[ch.pendHead].ready)
	}
	if len(ch.queue) > 0 {
		ev = min(ev, d.nextIssue(now, ch))
	}
	return ev
}

// nextIssue returns the earliest cycle >= now at which ch can start a
// queued transaction under the configured policy, deferred past any injected
// outage window.
func (d *DRAM) nextIssue(now uint64, ch *channel) uint64 {
	var bankReady uint64
	if d.cfg.Policy == FIFO {
		// Strict order: only the head request can issue.
		b, _ := d.bankRowOf(ch.queue[0].req.Line)
		bankReady = ch.banks[b].busyUntil
	} else {
		bankReady = sim.Never
		for i := range ch.queue {
			b, _ := d.bankRowOf(ch.queue[i].req.Line)
			if u := ch.banks[b].busyUntil; u < bankReady {
				bankReady = u
			}
		}
	}
	t := bankReady
	if ch.busFree > t {
		t = ch.busFree
	}
	if t < now {
		t = now
	}
	// An injected channel outage defers the issue to the window's end.
	return ch.windows.Defer(t)
}

// PopResponse returns a completed read, draining channels round-robin.
func (d *DRAM) PopResponse(now uint64) (LineResp, bool) {
	if d.resps == 0 {
		return LineResp{}, false
	}
	for k := 0; k < len(d.channels); k++ {
		ci := (d.rrChan + k) % len(d.channels)
		ch := &d.channels[ci]
		if ch.respHead < len(ch.resps) {
			r := ch.resps[ch.respHead]
			ch.respHead++
			d.resps--
			if ch.respHead == len(ch.resps) {
				ch.resps = ch.resps[:0]
				ch.respHead = 0
			}
			d.rrChan = (ci + 1) % len(d.channels)
			return r, true
		}
	}
	return LineResp{}, false
}

// Busy reports whether any request is queued, in flight, or undelivered.
func (d *DRAM) Busy() bool { return d.queued > 0 || d.inflight > 0 || d.resps > 0 }
