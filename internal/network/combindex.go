package network

import (
	"fmt"
	"math/bits"
)

// combIndex is a switch's combining index: the slab handles of its staged
// combinable packets, keyed by destination, kind and address. A switch
// stages at most one combinable packet per key (a later arrival with the
// key merges into it), so the index is exact: it finds the one packet a
// scan of the windows would find.
//
// It is an open-addressed table with linear probing, opened at the
// switch's first combinable arrival with at least twice as many slots as
// the switch can stage packets, so it never fills, never grows and never
// allocates again. A slot holds the staged packet's handle (0 when empty),
// which stays the packet's until it leaves the switch; the key is read from
// the packet in the slab.
type combIndex struct {
	slots []int32
	shift uint // 64 - log2(len(slots)): a key's home slot is its hash >> shift
	n     int  // packets indexed
}

// sameKey reports whether a and b merge: the same destination, kind and
// address.
func sameKey(a, b *Packet) bool {
	return a.Dst == b.Dst && a.Req.Kind == b.Req.Kind && a.Req.Addr == b.Req.Addr
}

// home returns the slot at which the probe for p's key starts.
func (x *combIndex) home(p *Packet) int {
	h := uint64(p.Req.Addr) ^ uint64(uint32(p.Dst))<<40 ^ uint64(p.Req.Kind)<<58
	return int(h * 0x9E3779B97F4A7C15 >> x.shift)
}

// find returns the handle of the indexed packet with p's key, or 0.
func (x *combIndex) find(sl *slab, p *Packet) int32 {
	if x.n == 0 {
		return 0
	}
	mask := len(x.slots) - 1
	for i := x.home(p); x.slots[i] != 0; i = (i + 1) & mask {
		if h := x.slots[i]; sameKey(sl.at(h), p) {
			return h
		}
	}
	return 0
}

// insert indexes the packet with handle h, just staged, whose key is not
// indexed yet. staging is the most packets the switch can stage.
func (x *combIndex) insert(sl *slab, h int32, staging int) {
	if x.slots == nil {
		n := 2
		for n < 2*staging {
			n <<= 1
		}
		x.slots = make([]int32, n)
		x.shift = uint(64 - bits.TrailingZeros(uint(n)))
	}
	mask := len(x.slots) - 1
	i := x.home(sl.at(h))
	for x.slots[i] != 0 {
		i = (i + 1) & mask
	}
	x.slots[i] = h
	x.n++
}

// remove drops the packet with handle h from the index before it leaves
// its window, and moves each later entry of its probe run whose home does
// not lie between the hole and the entry back into the hole, so that no
// probe stops short.
func (x *combIndex) remove(sl *slab, h int32) {
	mask := len(x.slots) - 1
	i := x.home(sl.at(h))
	for x.slots[i] != h {
		if x.slots[i] == 0 {
			st := sl.at(h)
			panic(fmt.Sprintf("network: staged packet %d->%d addr %d missing from the combining index", st.Src, st.Dst, st.Req.Addr))
		}
		i = (i + 1) & mask
	}
	x.slots[i] = 0
	x.n--
	for j := (i + 1) & mask; x.slots[j] != 0; j = (j + 1) & mask {
		k := x.home(sl.at(x.slots[j]))
		if stays := (i < j && i < k && k <= j) || (j < i && (k <= j || i < k)); !stays {
			x.slots[i], x.slots[j] = x.slots[j], 0
			i = j
		}
	}
}

// stageProbe, when set, sees every stageIn after its lookup: the switch,
// the arriving packet and the handle of the staged packet the index found
// for it (0 for none). Tests set it to hold the index against a scan of the
// windows. The arrival is passed by value, so that it does not escape to
// the heap.
var stageProbe func(m *MultiHop, s *mhSwitch, p Packet, hit int32)
