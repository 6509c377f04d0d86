// Package cluster steps the memory cluster of one node: its scatter-add
// units, stream-cache banks, optional combining banks, and DRAM or uniform
// memory. The single-node machine and every node of a multi-node system
// each own one, so both step the same components in the same fixed order
// each cycle: units, then banks, then combining banks, then the memory, and
// last the DRAM's completed line reads, handed to their banks as fills in
// the DRAM's round-robin order over its channels (dram.PopResponse).
//
// Under fast-forward the cluster keeps a due set: the cycle at which each
// component must next be ticked, in one compact array. A component is
// ticked at its turn only when that cycle has come, so an idle component's
// memory is not touched on a worked cycle. After its tick a component's due
// cycle is refreshed from its own NextEvent. Work that reaches a component
// from outside its tick lowers its due cycle where the work is pushed (see
// sim.Wake): an Accept from the owner or from the unit above, a fill, a
// response that becomes poppable for the unit that drains it, a transaction
// the DRAM accepts, or a freed eviction slot. The due cycles are
// conservative, never later than the component's true next event; ticking a
// component early is exact because an idle Tick changes nothing.
//
// Legacy stepping keeps no due set. Each cycle it passes over every unit,
// bank and combining bank whose own Quiet check says no stage of its Tick
// has work, and ticks the rest; the DRAM's Tick returns at once when nothing
// is queued or in flight. Quiet reads only the component's own counts and
// fast-forward never reads it, so legacy stepping is a schedule independent
// of NextEvent and the wakes: a quiet check or a due cycle that is wrong
// shows up as a difference between the two modes.
package cluster

import (
	"scatteradd/internal/cache"
	"scatteradd/internal/dram"
	"scatteradd/internal/mem"
	"scatteradd/internal/saunit"
	"scatteradd/internal/sim"
)

// Cluster is one node's memory cluster. Unit i sits in front of bank i, or
// the one unit in front of the uniform memory.
type Cluster struct {
	units []*saunit.Unit
	banks []*cache.Bank
	comb  []*cache.Bank
	dram  *dram.DRAM
	uni   *dram.Uniform

	ff bool

	// due holds each component's due cycle under fast-forward: the units,
	// then the banks, then the combining banks, then the memory. Legacy
	// stepping leaves every entry at 0 and asks each component's Quiet
	// instead.
	due []uint64

	holds []bool // combining bank i holds an evicted line for the owner
	held  int    // combining banks with holds set

	resp []int // units ticked this cycle with responses for the owner
}

// New returns the cluster over units, banks (bank i behind unit i), the
// combining banks (may be empty), and either d or the uniform memory u (with
// one unit in front of it). ff selects the due set; without it every
// component that is not quiet is ticked every cycle.
func New(units []*saunit.Unit, banks, comb []*cache.Bank, d *dram.DRAM, u *dram.Uniform, ff bool) *Cluster {
	c := &Cluster{
		units: units, banks: banks, comb: comb, dram: d, uni: u, ff: ff,
		due:   make([]uint64, len(units)+len(banks)+len(comb)+1),
		holds: make([]bool, len(comb)),
		resp:  make([]int, 0, len(units)),
	}
	if !ff {
		return c
	}
	wake := func(i int) sim.Wake { return sim.NewWake(&c.due[i]) }
	nu, nb := len(units), len(banks)
	for i, unit := range units {
		unit.SetWake(wake(i))
	}
	for i, b := range banks {
		b.SetWake(wake(nu+i), wake(i))
	}
	for i, b := range comb {
		// Nothing drains a combining bank's response pipe: the node only
		// sends it scatter-adds without a reply.
		b.SetWake(wake(nu+nb+i), sim.Wake{})
	}
	if d != nil {
		d.SetWake(wake(len(c.due) - 1))
	} else {
		u.SetWake(wake(len(c.due)-1), wake(0))
	}
	return c
}

// Tick advances the cluster one cycle: the components in the fixed order,
// under fast-forward those due and under legacy stepping those not quiet.
// It never allocates.
func (c *Cluster) Tick(now uint64) {
	due := c.due
	c.resp = c.resp[:0]
	for i, u := range c.units {
		// A quiet unit's response queue is empty, so its NextResponse
		// probe is skipped with its tick.
		if due[i] > now || !c.ff && u.Quiet() {
			continue
		}
		u.Tick(now)
		if c.ff {
			due[i] = u.NextEvent(now + 1)
		}
		if u.NextResponse(now) == now {
			c.resp = append(c.resp, i)
		}
	}
	k := len(c.units)
	for i, b := range c.banks {
		if due[k+i] > now || !c.ff && b.Quiet() {
			continue
		}
		b.Tick(now)
		if c.ff {
			due[k+i] = b.NextEvent(now + 1)
		}
	}
	k += len(c.banks)
	for i, b := range c.comb {
		// A quiet combining bank's eviction queue is unchanged, so
		// noteHeld is skipped with its tick.
		if due[k+i] > now || !c.ff && b.Quiet() {
			continue
		}
		b.Tick(now)
		if c.ff {
			due[k+i] = b.NextEvent(now + 1)
		}
		c.noteHeld(i)
	}
	k += len(c.comb)
	if due[k] > now {
		return
	}
	if c.uni != nil {
		c.uni.Tick(now)
		if c.ff {
			due[k] = c.uni.NextEvent(now + 1)
		}
		return
	}
	c.dram.Tick(now)
	// An idle DRAM holds no completed read: the check spares each idle
	// cycle of legacy stepping a PopResponse call.
	for c.dram.Busy() {
		r, ok := c.dram.PopResponse(now)
		if !ok {
			break
		}
		c.fill(now, r)
	}
	if c.ff {
		due[k] = c.dram.NextEvent(now + 1)
	}
}

// fill hands a completed line read to its bank, after the bank's turn: the
// bank marks itself and its unit due for what the fill left them.
func (c *Cluster) fill(now uint64, r dram.LineResp) {
	c.banks[cache.BankOf(r.Line, len(c.banks))].Fill(now, r.Line, r.Data)
}

// NextEvent returns the earliest cycle >= now at which a component of the
// cluster is due (see the sim package doc): the minimum of the due set.
func (c *Cluster) NextEvent(now uint64) uint64 {
	ev := sim.Never
	for _, d := range c.due {
		ev = min(ev, d)
	}
	return max(now, ev)
}

// Busy reports whether any component holds unfinished work. A component
// whose due cycle is Never has no event of its own, and the work it may
// hold (an entry waiting for a memory read, a miss waiting for DRAM, a
// response in its pipe) is then another component's event, so only the due
// components and the held evictions need asking. A unit's Busy covers the
// response pipe below it.
func (c *Cluster) Busy() bool {
	if c.held > 0 {
		return true
	}
	due := c.due
	for i, u := range c.units {
		if due[i] != sim.Never && u.Busy() {
			return true
		}
	}
	k := len(c.units)
	for i, b := range c.banks {
		if due[k+i] != sim.Never && b.Busy() {
			return true
		}
	}
	k += len(c.banks)
	for i, b := range c.comb {
		if due[k+i] != sim.Never && b.Busy() {
			return true
		}
	}
	k += len(c.comb)
	if due[k] == sim.Never {
		return false
	}
	if c.uni != nil {
		return c.uni.Busy()
	}
	return c.dram.Busy()
}

// PopResponses hands the owner every response the units queued this cycle,
// unit by unit. Call it after Tick in the same cycle: a unit's response
// queue only grows while it ticks.
func (c *Cluster) PopResponses(now uint64, fn func(mem.Response)) {
	for _, i := range c.resp {
		for {
			r, ok := c.units[i].PopResponse(now)
			if !ok {
				break
			}
			fn(r)
		}
	}
}

// StartFlush begins the flush-with-sum-back walk of every combining bank,
// due from cycle now.
func (c *Cluster) StartFlush(now uint64) {
	k := len(c.units) + len(c.banks)
	for i, b := range c.comb {
		b.StartFlush()
		c.due[k+i] = min(c.due[k+i], now)
	}
}

// Evicting reports whether any combining bank holds an evicted line for the
// owner. Only the owner drains them, so it stays awake while this holds.
func (c *Cluster) Evicting() bool { return c.held > 0 }

// PopEvict takes one evicted line from combining bank i at cycle now. The
// freed slot may be what the bank's flush walk or scrub pipe waits for, so
// the bank is due again.
func (c *Cluster) PopEvict(i int, now uint64) (cache.EvictedLine, bool) {
	ev, ok := c.comb[i].PopEvict()
	if ok {
		k := len(c.units) + len(c.banks) + i
		c.due[k] = min(c.due[k], now)
		c.noteHeld(i)
	}
	return ev, ok
}

// noteHeld refreshes whether combining bank i holds an evicted line.
func (c *Cluster) noteHeld(i int) {
	h := c.comb[i].HoldsEvictions()
	if h == c.holds[i] {
		return
	}
	c.holds[i] = h
	if h {
		c.held++
	} else {
		c.held--
	}
}

// FlushStats records every component's per-cycle samples up to cycle now,
// before a snapshot or a timeline sample reads them.
func (c *Cluster) FlushStats(now uint64) {
	for _, u := range c.units {
		u.FlushStats(now)
	}
	for _, b := range c.banks {
		b.FlushStats(now)
	}
	for _, b := range c.comb {
		b.FlushStats(now)
	}
}
