// Package fault is the deterministic fault-injection subsystem. It supplies
// seed-driven injectors that the hardware models consult at well-defined
// event points (a packet granted onto a wire, a DRAM transaction scheduled,
// a combining-store operand consumed, an FU operation retired), so that a
// fault schedule is a pure function of (seed, component name, event index) —
// independent of wall-clock, of the -jobs worker count, and of whether the
// engine runs per-cycle or fast-forwards over quiescent stretches.
//
// Two injector shapes are provided:
//
//   - Injector: a Bernoulli stream — each Fire() call draws the next value
//     of a splitmix64 sequence and fires with the configured probability.
//     Rate-based faults (dropped flits, transient FU errors, corrupted
//     combining-store entries, stalled DRAM transactions) use this.
//
//   - Windows: a stateless schedule of outage windows (a DRAM channel that
//     stops responding for a stretch of cycles). Window placement is a pure
//     function of the cycle number, so components can query it at any cycle
//     in any order — including from NextEvent when computing how far the
//     fast-forward engine may jump.
//
// The faults themselves model *detected and recovered* errors: parity and
// residue checks catch the corruption and the hardware replays from a
// latched copy, so injected faults cost cycles (and retries, and fallbacks)
// but never silently corrupt a reduction. Loss that escapes a component —
// a dropped network flit — is recovered end-to-end by the multinode
// retry/ack protocol. Either way every figure must produce bit-exact sums
// with injection enabled; tests enforce it.
package fault

import "fmt"

// Config enables fault injection. The zero value disables everything; any
// component handed a zero Config installs no injectors and pays nothing on
// its hot path.
type Config struct {
	// Seed is the base seed. Every injector derives its own splitmix64
	// stream from (Seed, component class, instance), so two components never
	// share a schedule and the whole schedule moves with the seed.
	Seed uint64

	// Network flit faults (multi-node crossbar). A dropped packet vanishes
	// on the wire; a duplicated packet is delivered twice. Either engages
	// the multinode link-layer retry/ack/dedup protocol.
	NetDropRate float64 // per-granted-packet drop probability
	NetDupRate  float64 // per-granted-packet duplication probability

	// DRAM channel faults.
	DRAMStallRate   float64 // per-transaction probability of a timed-out access
	DRAMStallCycles int     // extra latency of a timed-out access (default 300)
	DRAMWindowEvery uint64  // period of channel outage windows (0 = none)
	DRAMWindowSpan  uint64  // outage length within each period (default 500)
	DRAMWindowRate  float64 // probability a period contains an outage (default 0.5)

	// CSCorruptRate is the probability that a combining-store entry (or a
	// combining-cache partial line on eviction) suffers a parity-detected
	// corruption and must be scrubbed — replayed from its latched copy at a
	// fixed cycle cost.
	CSCorruptRate float64

	// FUErrorRate is the probability a scatter-add FU operation suffers a
	// transient error: the residue check rejects the result and the
	// operation reissues through the pipeline.
	FUErrorRate float64

	// Recovery knobs (multinode link layer).
	RetryTimeout     uint64 // cycles before an unacked frame retransmits (default 128)
	RetryBackoffCap  int    // max exponent of the 2^n backoff (default 6)
	MaxRetries       int    // attempts before the run panics as unrecoverable (default 24)
	DegradeThreshold uint64 // combining-store faults per node before it falls
	// back from cache-combining to direct remote scatter-add (0 = never)
}

// Enabled reports whether any fault class is active.
func (c Config) Enabled() bool {
	return c.NetDropRate > 0 || c.NetDupRate > 0 ||
		c.DRAMStallRate > 0 || c.DRAMWindowEvery > 0 ||
		c.CSCorruptRate > 0 || c.FUErrorRate > 0
}

// NetFaults reports whether network flit faults are active (and therefore
// whether the multinode link layer must run its retry/ack protocol).
func (c Config) NetFaults() bool { return c.NetDropRate > 0 || c.NetDupRate > 0 }

// WithDefaults fills unset recovery and duration knobs with their defaults.
func (c Config) WithDefaults() Config {
	if c.DRAMStallCycles <= 0 {
		c.DRAMStallCycles = 300
	}
	if c.DRAMWindowSpan == 0 {
		c.DRAMWindowSpan = 500
	}
	if c.DRAMWindowRate <= 0 {
		c.DRAMWindowRate = 0.5
	}
	if c.RetryTimeout == 0 {
		c.RetryTimeout = 128
	}
	if c.RetryBackoffCap <= 0 {
		c.RetryBackoffCap = 6
	}
	if c.MaxRetries <= 0 {
		c.MaxRetries = 24
	}
	return c
}

// Scale multiplies every rate by x (and scales the window density), keeping
// the durations and recovery knobs. Scale(0), a negative x and NaN disable
// injection entirely.
func (c Config) Scale(x float64) Config {
	if !(x > 0) {
		return Config{}
	}
	clamp := func(r float64) float64 {
		r *= x
		if r > 1 {
			return 1
		}
		return r
	}
	c.NetDropRate = clamp(c.NetDropRate)
	c.NetDupRate = clamp(c.NetDupRate)
	c.DRAMStallRate = clamp(c.DRAMStallRate)
	c.DRAMWindowRate = clamp(c.DRAMWindowRate)
	c.CSCorruptRate = clamp(c.CSCorruptRate)
	c.FUErrorRate = clamp(c.FUErrorRate)
	return c
}

// DefaultChaos returns the repository's standard chaos configuration: every
// fault class active at a rate high enough that any figure run exercises
// drops, duplicates, stalls, scrubs, and FU retries, yet low enough that
// recovery (not the faults) dominates the timing.
func DefaultChaos() Config {
	return Config{
		Seed:             0x5EED_FA17,
		NetDropRate:      0.01,
		NetDupRate:       0.005,
		DRAMStallRate:    0.002,
		DRAMStallCycles:  300,
		DRAMWindowEvery:  50_000,
		DRAMWindowSpan:   500,
		DRAMWindowRate:   0.5,
		CSCorruptRate:    0.001,
		FUErrorRate:      0.001,
		DegradeThreshold: 64,
	}.WithDefaults()
}

// splitmix64 advances the state and returns the next value of the sequence
// (Steele, Lea, Flood; the JDK SplittableRandom generator).
func splitmix64(state *uint64) uint64 {
	*state += 0x9e3779b97f4a7c15
	z := *state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// mix hashes (seed, salt) into an independent stream seed.
func mix(seed uint64, salt string) uint64 {
	h := seed ^ 0xcbf29ce484222325 // FNV offset basis
	for i := 0; i < len(salt); i++ {
		h ^= uint64(salt[i])
		h *= 0x100000001b3 // FNV prime
	}
	// One splitmix step decorrelates nearby seeds.
	return splitmix64(&h)
}

// unit converts a raw 64-bit draw to a float64 in [0, 1).
func unit(v uint64) float64 { return float64(v>>11) / (1 << 53) }

// Injector is a deterministic Bernoulli fault stream. A nil *Injector is a
// valid, permanently-cold injector: Fire reports false, so components wire
// faults with a single nil check and pay nothing when injection is off.
type Injector struct {
	state uint64
	rate  float64
	count uint64 // faults fired
	draws uint64 // Fire calls
}

// NewInjector returns an injector firing with probability rate, on its own
// stream derived from (seed, name). A rate <= 0 returns nil (the cold
// injector).
func NewInjector(seed uint64, name string, rate float64) *Injector {
	if rate <= 0 {
		return nil
	}
	if rate > 1 {
		rate = 1
	}
	return &Injector{state: mix(seed, name), rate: rate}
}

// Fire draws the next value of the stream and reports whether the fault
// fires. It is the ONLY consumer of the stream: call it exactly once per
// fault opportunity (per packet, per transaction, per operand) so the
// schedule is a pure function of the event sequence.
func (i *Injector) Fire() bool {
	if i == nil {
		return false
	}
	i.draws++
	if unit(splitmix64(&i.state)) < i.rate {
		i.count++
		return true
	}
	return false
}

// Count returns the number of faults fired so far.
func (i *Injector) Count() uint64 {
	if i == nil {
		return 0
	}
	return i.count
}

// Draws returns the number of fault opportunities seen so far.
func (i *Injector) Draws() uint64 {
	if i == nil {
		return 0
	}
	return i.draws
}

// Windows is a stateless schedule of outage windows: period k (cycles
// [k*Every, (k+1)*Every)) contains, with probability Rate, one window of
// Span cycles whose offset within the period is drawn from the stream.
// Because placement is a pure function of k, any cycle can be queried in
// any order — including speculative queries from NextEvent.
//
// A nil *Windows never blocks.
type Windows struct {
	seed  uint64
	every uint64
	span  uint64
	rate  float64
}

// NewWindows returns a window schedule derived from (seed, name). every is
// the period, span the outage length (clamped to every-1 so a window never
// spans a period boundary), rate the probability each period contains an
// outage. A zero period or rate returns nil.
func NewWindows(seed uint64, name string, every, span uint64, rate float64) *Windows {
	if every == 0 || span == 0 || rate <= 0 {
		return nil
	}
	if span >= every {
		span = every - 1
	}
	return &Windows{seed: mix(seed, name), every: every, span: span, rate: rate}
}

// window returns period k's outage window [start, end), or ok=false when
// period k has none.
func (w *Windows) window(k uint64) (start, end uint64, ok bool) {
	s := w.seed ^ (k+1)*0x9e3779b97f4a7c15
	have := splitmix64(&s)
	if unit(have) >= w.rate {
		return 0, 0, false
	}
	off := splitmix64(&s) % (w.every - w.span + 1)
	start = k*w.every + off
	return start, start + w.span, true
}

// Blocked reports whether cycle t falls inside an outage window and, if so,
// the first cycle past it.
func (w *Windows) Blocked(t uint64) (until uint64, blocked bool) {
	if w == nil {
		return 0, false
	}
	if s, e, ok := w.window(t / w.every); ok && t >= s && t < e {
		return e, true
	}
	return 0, false
}

// Defer pushes t past any outage window covering it. Windows never abut
// (span < every and one window per period), so a single hop suffices —
// but the loop guards the span==every-1 edge where consecutive windows
// can touch.
func (w *Windows) Defer(t uint64) uint64 {
	if w == nil {
		return t
	}
	for {
		e, blocked := w.Blocked(t)
		if !blocked {
			return t
		}
		t = e
	}
}

// CountIn returns the number of outage windows that start in (from, to].
// Components use it to charge window counters at transaction grain (both
// stepping modes see the same transactions, so counts are mode-exact even
// when the fast-forward engine never ticks inside a window).
func (w *Windows) CountIn(from, to uint64) uint64 {
	if w == nil || to <= from {
		return 0
	}
	var n uint64
	for k := from / w.every; k <= to/w.every; k++ {
		if s, _, ok := w.window(k); ok && s > from && s <= to {
			n++
		}
	}
	return n
}

// String describes the schedule (testing/debug).
func (w *Windows) String() string {
	if w == nil {
		return "fault.Windows(nil)"
	}
	return fmt.Sprintf("fault.Windows(every=%d span=%d rate=%g)", w.every, w.span, w.rate)
}
