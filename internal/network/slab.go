package network

// slabPage is the packets per slab page: 18 KiB of 72-byte packets.
const (
	slabShift = 8
	slabPage  = 1 << slabShift
)

// slab holds a fabric's packets while they cross it. A packet is written
// into the slab once, at Send, and its queues pass a 4-byte handle to it
// from then on; Recv copies it out and frees the slot. The slab grows in
// fixed-size pages that never move, so a *Packet stays valid as long as its
// handle lives and growth never copies a packet. Freed slots are reused
// last-freed first, through a list threaded through the free slots
// themselves (a free slot's Src holds the next free handle), so freeing
// allocates nothing. Handle 0 is never handed out: a queue or index slot
// reading 0 holds no packet.
type slab struct {
	pages []*[slabPage]Packet
	free  int32 // the last freed handle, 0 when none is free
	next  int32 // handles below next have been handed out at least once
	n     int   // handles held: handed out and not freed
}

// newSlab returns an empty slab.
func newSlab() *slab { return &slab{next: 1} }

// at returns the packet with handle h where it sits.
func (s *slab) at(h int32) *Packet { return &s.pages[h>>slabShift][h&(slabPage-1)] }

// put copies *p into a free slot and returns its handle.
func (s *slab) put(p *Packet) int32 {
	h := s.free
	if h != 0 {
		s.free = s.at(h).Src
	} else {
		h = s.next
		s.next++
		if int(h>>slabShift) == len(s.pages) {
			s.pages = append(s.pages, new([slabPage]Packet))
		}
	}
	*s.at(h) = *p
	s.n++
	return h
}

// release frees handle h; the caller holds it no longer.
func (s *slab) release(h int32) {
	s.at(h).Src = s.free
	s.free = h
	s.n--
}

// live returns the packets held: the slots handed out and not freed.
func (s *slab) live() int { return s.n }
