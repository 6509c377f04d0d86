// Package mem defines the word-level memory model shared by every hardware
// component in the simulator: addresses, request/response records, the
// scatter-add combine semantics, and a functional backing store.
//
// All memory traffic is in 8-byte words. Cache lines are 8 words (64 bytes).
// Values travel as raw uint64 bit patterns; helpers convert to and from
// float64 and int64 so a single datapath serves both the integer and the
// floating-point adders of the scatter-add unit (paper §3.2).
package mem

import (
	"fmt"
	"math"
)

// Word is the raw 64-bit contents of one memory word.
type Word = uint64

// Addr is a word-granular global memory address.
type Addr uint64

// Geometry of the memory system.
const (
	WordBytes = 8                     // bytes per word
	LineWords = 8                     // words per cache line
	LineBytes = LineWords * WordBytes // bytes per cache line
)

// Line returns the address of the first word of the line containing a.
func (a Addr) Line() Addr { return a &^ (LineWords - 1) }

// LineOffset returns the word offset of a within its line.
func (a Addr) LineOffset() int { return int(a & (LineWords - 1)) }

// F64 converts a float64 to its word representation.
func F64(f float64) Word { return math.Float64bits(f) }

// AsF64 converts a word to float64.
func AsF64(w Word) float64 { return math.Float64frombits(w) }

// I64 converts an int64 to its word representation.
func I64(i int64) Word { return uint64(i) }

// AsI64 converts a word to int64.
func AsI64(w Word) int64 { return int64(w) }

// Kind identifies a memory operation. Read and Write are the ordinary vector
// load/store operations; the remaining kinds are the atomic read-modify-write
// operations executed by the scatter-add unit. AddF64 and AddI64 are the
// paper's core scatter-add; Min/Max/Mul are the commutative-and-associative
// extensions of §3.3; FetchAddF64/FetchAddI64 implement the data-parallel
// Fetch&Op extension, which returns the pre-update value to the requester.
type Kind uint8

const (
	Read Kind = iota
	Write
	AddF64
	AddI64
	MinF64
	MaxF64
	MulF64
	MinI64
	MaxI64
	FetchAddF64
	FetchAddI64
)

var kindNames = [...]string{
	Read: "Read", Write: "Write",
	AddF64: "AddF64", AddI64: "AddI64",
	MinF64: "MinF64", MaxF64: "MaxF64", MulF64: "MulF64",
	MinI64: "MinI64", MaxI64: "MaxI64",
	FetchAddF64: "FetchAddF64", FetchAddI64: "FetchAddI64",
}

func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// IsScatterAdd reports whether k is handled by the scatter-add unit (any
// atomic read-modify-write, including the extension ops).
func (k Kind) IsScatterAdd() bool { return k >= AddF64 }

// IsFetch reports whether k returns the pre-update memory value.
func (k Kind) IsFetch() bool { return k == FetchAddF64 || k == FetchAddI64 }

// IsFP reports whether k performs floating-point arithmetic (counts as an FP
// operation in the paper's "FP Operations" metric).
func (k Kind) IsFP() bool {
	switch k {
	case AddF64, MinF64, MaxF64, MulF64, FetchAddF64:
		return true
	}
	return false
}

// Combine applies the read-modify-write semantics of kind k: it merges the
// incoming value v into the current memory contents old and returns the new
// contents. It panics for non-RMW kinds, which have no combine semantics.
func Combine(k Kind, old, v Word) Word {
	switch k {
	case AddF64, FetchAddF64:
		return F64(AsF64(old) + AsF64(v))
	case AddI64, FetchAddI64:
		return I64(AsI64(old) + AsI64(v))
	case MinF64:
		return F64(math.Min(AsF64(old), AsF64(v)))
	case MaxF64:
		return F64(math.Max(AsF64(old), AsF64(v)))
	case MulF64:
		return F64(AsF64(old) * AsF64(v))
	case MinI64:
		if AsI64(v) < AsI64(old) {
			return v
		}
		return old
	case MaxI64:
		if AsI64(v) > AsI64(old) {
			return v
		}
		return old
	}
	panic(fmt.Sprintf("mem: Combine on non-RMW kind %v", k))
}

// Identity returns the identity element of the combine operation of kind k:
// Combine(k, Identity(k), v) == v for every v. It is used by the multi-node
// cache-combining optimization, which allocates remote lines with the
// identity instead of fetching them (paper §3.2, "local phase").
func Identity(k Kind) Word {
	switch k {
	case AddF64, FetchAddF64:
		return F64(0)
	case AddI64, FetchAddI64:
		return I64(0)
	case MinF64:
		return F64(math.Inf(1))
	case MaxF64:
		return F64(math.Inf(-1))
	case MulF64:
		return F64(1)
	case MinI64:
		return I64(math.MaxInt64)
	case MaxI64:
		return I64(math.MinInt64)
	}
	panic(fmt.Sprintf("mem: Identity on non-RMW kind %v", k))
}

// Request is one word-granular memory operation flowing through the memory
// system. ID is an opaque token chosen by the issuer and echoed in the
// Response; Node identifies the issuing node in multi-node configurations.
type Request struct {
	ID   uint64
	Kind Kind
	Addr Addr
	Val  Word // store data or scatter-add operand; unused for Read
	Node int  // issuing node (multi-node only)
}

// Response acknowledges completion of a Request. For Read and Fetch* kinds
// Val carries the loaded (respectively pre-update) value.
type Response struct {
	ID   uint64
	Kind Kind
	Addr Addr
	Val  Word
	Node int
}

// pageWords is the granularity of the sparse backing store: eight cache
// lines, 512 bytes. A run that writes scattered lines (a cache flush after a
// histogram over a wide range) opens one small page per line it writes, and
// a range read still takes one map lookup per page.
const pageWords = 64

// Store is the functional backing state of a memory: a sparse, word-granular
// image of the address space. It has no timing; timing models (DRAM, cache)
// hold or reference a Store for the actual data. Unwritten words read as 0.
type Store struct {
	pages map[Addr]*[pageWords]Word
}

// NewStore returns an empty store (all words zero).
func NewStore() *Store { return &Store{pages: make(map[Addr]*[pageWords]Word)} }

// page returns the page containing a, allocating it if needed.
func (s *Store) page(a Addr) *[pageWords]Word {
	pidx := a / pageWords
	p, ok := s.pages[pidx]
	if !ok {
		p = new([pageWords]Word)
		s.pages[pidx] = p
	}
	return p
}

// Load returns the word at address a.
func (s *Store) Load(a Addr) Word {
	p, ok := s.pages[a/pageWords]
	if !ok {
		return 0
	}
	return p[a%pageWords]
}

// StoreWord sets the word at address a.
func (s *Store) StoreWord(a Addr, v Word) { s.page(a)[a%pageWords] = v }

// LoadLine copies the 8-word line containing a into dst. A line is
// 8-aligned inside an aligned page, so it never straddles two pages.
func (s *Store) LoadLine(a Addr, dst *[LineWords]Word) {
	base := a.Line()
	if p, ok := s.pages[base/pageWords]; ok {
		off := base % pageWords
		copy(dst[:], p[off:off+LineWords])
	} else {
		*dst = [LineWords]Word{}
	}
}

// StoreLine writes the 8-word line containing a from src.
func (s *Store) StoreLine(a Addr, src *[LineWords]Word) {
	base := a.Line()
	off := base % pageWords
	copy(s.page(base)[off:off+LineWords], src[:])
}

// LoadF64 returns the float64 at address a.
func (s *Store) LoadF64(a Addr) float64 { return AsF64(s.Load(a)) }

// LoadI64 returns the int64 at address a.
func (s *Store) LoadI64(a Addr) int64 { return AsI64(s.Load(a)) }

// StoreF64 writes f at address a.
func (s *Store) StoreF64(a Addr, f float64) { s.StoreWord(a, F64(f)) }

// StoreI64 writes i at address a.
func (s *Store) StoreI64(a Addr, i int64) { s.StoreWord(a, I64(i)) }

// WriteF64Slice writes vals to consecutive addresses starting at base.
func (s *Store) WriteF64Slice(base Addr, vals []float64) {
	for i, v := range vals {
		s.StoreWord(base+Addr(i), F64(v))
	}
}

// WriteI64Slice writes vals to consecutive addresses starting at base.
func (s *Store) WriteI64Slice(base Addr, vals []int64) {
	for i, v := range vals {
		s.StoreWord(base+Addr(i), I64(v))
	}
}

// LoadRange copies the len(dst) words starting at base into dst, with one
// page lookup per page the range spans. Unwritten words read as 0.
func (s *Store) LoadRange(base Addr, dst []Word) {
	clear(dst)
	s.eachPage(base, len(dst), func(i int, words []Word) { copy(dst[i:], words) })
}

// ReadF64Slice reads n float64 values from consecutive addresses at base.
func (s *Store) ReadF64Slice(base Addr, n int) []float64 {
	out := make([]float64, n)
	s.eachPage(base, n, func(i int, words []Word) {
		for j, w := range words {
			out[i+j] = AsF64(w)
		}
	})
	return out
}

// ReadI64Slice reads n int64 values from consecutive addresses at base.
func (s *Store) ReadI64Slice(base Addr, n int) []int64 {
	out := make([]int64, n)
	s.eachPage(base, n, func(i int, words []Word) {
		for j, w := range words {
			out[i+j] = AsI64(w)
		}
	})
	return out
}

// eachPage walks the n words starting at base one page at a time and calls
// fn with the offset into the range and the words of each written page that
// the range covers; unwritten pages, which read as 0, are passed over.
func (s *Store) eachPage(base Addr, n int, fn func(i int, words []Word)) {
	for i := 0; i < n; {
		a := base + Addr(i)
		off := a % pageWords
		k := min(n-i, int(pageWords-off))
		if p, ok := s.pages[a/pageWords]; ok {
			fn(i, p[off:off+Addr(k)])
		}
		i += k
	}
}
