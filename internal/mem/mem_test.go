package mem

import (
	"math"
	"testing"
	"testing/quick"
)

func TestWordConversions(t *testing.T) {
	for _, f := range []float64{0, 1, -1, math.Pi, math.Inf(1), math.Inf(-1), 1e-300, -1e300} {
		if got := AsF64(F64(f)); got != f {
			t.Errorf("F64 roundtrip %g -> %g", f, got)
		}
	}
	for _, i := range []int64{0, 1, -1, math.MaxInt64, math.MinInt64, 42} {
		if got := AsI64(I64(i)); got != i {
			t.Errorf("I64 roundtrip %d -> %d", i, got)
		}
	}
}

func TestAddrLineGeometry(t *testing.T) {
	cases := []struct {
		a    Addr
		line Addr
		off  int
	}{
		{0, 0, 0}, {7, 0, 7}, {8, 8, 0}, {13, 8, 5}, {1023, 1016, 7},
	}
	for _, c := range cases {
		if c.a.Line() != c.line || c.a.LineOffset() != c.off {
			t.Errorf("addr %d: line=%d off=%d, want %d/%d",
				c.a, c.a.Line(), c.a.LineOffset(), c.line, c.off)
		}
	}
}

func TestCombineAdd(t *testing.T) {
	if got := AsF64(Combine(AddF64, F64(1.5), F64(2.25))); got != 3.75 {
		t.Errorf("AddF64 = %g", got)
	}
	if got := AsI64(Combine(AddI64, I64(-5), I64(7))); got != 2 {
		t.Errorf("AddI64 = %d", got)
	}
	if got := AsF64(Combine(FetchAddF64, F64(1), F64(2))); got != 3 {
		t.Errorf("FetchAddF64 = %g", got)
	}
}

func TestCombineExtensionOps(t *testing.T) {
	if got := AsF64(Combine(MinF64, F64(3), F64(-2))); got != -2 {
		t.Errorf("MinF64 = %g", got)
	}
	if got := AsF64(Combine(MaxF64, F64(3), F64(-2))); got != 3 {
		t.Errorf("MaxF64 = %g", got)
	}
	if got := AsF64(Combine(MulF64, F64(3), F64(-2))); got != -6 {
		t.Errorf("MulF64 = %g", got)
	}
	if got := AsI64(Combine(MinI64, I64(3), I64(-2))); got != -2 {
		t.Errorf("MinI64 = %d", got)
	}
	if got := AsI64(Combine(MaxI64, I64(3), I64(-2))); got != 3 {
		t.Errorf("MaxI64 = %d", got)
	}
}

func TestCombinePanicsOnRead(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Combine(Read, 0, 0)
}

// Property: Identity(k) is a true identity for Combine(k, ., .).
func TestIdentityProperty(t *testing.T) {
	kinds := []Kind{AddF64, AddI64, MinF64, MaxF64, MulF64, MinI64, MaxI64, FetchAddF64, FetchAddI64}
	f := func(bits uint64) bool {
		for _, k := range kinds {
			v := bits
			if k.IsFP() || k == MinF64 || k == MaxF64 {
				// keep FP values finite and non-NaN for exact comparison
				v = F64(float64(int64(bits%1000000)) / 7)
			} else if k == AddI64 || k == FetchAddI64 {
				v = I64(int64(bits % (1 << 40)))
			} else if k == MinI64 || k == MaxI64 {
				v = I64(int64(bits))
			}
			if Combine(k, Identity(k), v) != v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: Combine is commutative in its combining argument order for add:
// folding values in any of two orders gives the same result for integers.
func TestAddI64CommutativeProperty(t *testing.T) {
	f := func(a, b, c int64) bool {
		ab := Combine(AddI64, Combine(AddI64, I64(c), I64(a)), I64(b))
		ba := Combine(AddI64, Combine(AddI64, I64(c), I64(b)), I64(a))
		return ab == ba
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestKindPredicates(t *testing.T) {
	if Read.IsScatterAdd() || Write.IsScatterAdd() {
		t.Error("Read/Write must not be scatter-add")
	}
	for _, k := range []Kind{AddF64, AddI64, MinF64, MulF64, FetchAddI64} {
		if !k.IsScatterAdd() {
			t.Errorf("%v should be scatter-add", k)
		}
	}
	if !FetchAddF64.IsFetch() || !FetchAddI64.IsFetch() {
		t.Error("FetchAdd kinds must be fetch")
	}
	if AddF64.IsFetch() {
		t.Error("AddF64 must not be fetch")
	}
	if !AddF64.IsFP() || AddI64.IsFP() {
		t.Error("IsFP misclassification")
	}
	if Kind(200).String() == "" || AddF64.String() != "AddF64" {
		t.Error("String() misbehaved")
	}
}

func TestStoreBasics(t *testing.T) {
	s := NewStore()
	if s.Load(12345) != 0 {
		t.Fatal("unwritten word must read 0")
	}
	s.StoreWord(12345, 99)
	if s.Load(12345) != 99 {
		t.Fatal("load after store")
	}
	s.StoreF64(7, 2.5)
	if s.LoadF64(7) != 2.5 {
		t.Fatal("F64 load/store")
	}
	s.StoreI64(8, -42)
	if s.LoadI64(8) != -42 {
		t.Fatal("I64 load/store")
	}
}

func TestStoreSparsePages(t *testing.T) {
	s := NewStore()
	// Touch addresses in widely separated pages.
	addrs := []Addr{0, 4095, 4096, 1 << 20, 1 << 30, 1 << 40}
	for i, a := range addrs {
		s.StoreWord(a, Word(i+1))
	}
	for i, a := range addrs {
		if s.Load(a) != Word(i+1) {
			t.Errorf("addr %d: got %d", a, s.Load(a))
		}
	}
}

func TestStoreLineOps(t *testing.T) {
	s := NewStore()
	var line [LineWords]Word
	for i := range line {
		line[i] = Word(100 + i)
	}
	s.StoreLine(19, &line) // line base = 16
	var got [LineWords]Word
	s.LoadLine(16, &got)
	if got != line {
		t.Fatalf("line roundtrip: %v != %v", got, line)
	}
	if s.Load(16) != 100 || s.Load(23) != 107 {
		t.Fatal("line word placement wrong")
	}
}

func TestStoreSlices(t *testing.T) {
	s := NewStore()
	fs := []float64{1, 2.5, -3, 0.125}
	s.WriteF64Slice(1000, fs)
	got := s.ReadF64Slice(1000, len(fs))
	for i := range fs {
		if got[i] != fs[i] {
			t.Fatalf("F64 slice roundtrip: %v != %v", got, fs)
		}
	}
	is := []int64{-1, 0, 7, math.MaxInt64}
	s.WriteI64Slice(2000, is)
	igot := s.ReadI64Slice(2000, len(is))
	for i := range is {
		if igot[i] != is[i] {
			t.Fatalf("I64 slice roundtrip: %v != %v", igot, is)
		}
	}
}

// TestStoreRangeReadsMatchLoad: the page-wise range reads (LoadRange,
// ReadI64Slice, ReadF64Slice) return exactly what per-word Load does, across
// page boundaries, over unwritten pages and for empty ranges.
func TestStoreRangeReadsMatchLoad(t *testing.T) {
	s := NewStore()
	// Page 0 partly written, page 1 unwritten, page 2 fully written, page 3
	// written only in its first word.
	for a := Addr(10); a < 100; a++ {
		s.StoreWord(a, Word(a)*3+1)
	}
	for a := Addr(2 * pageWords); a < 3*pageWords; a++ {
		s.StoreWord(a, Word(a)^0xF0F0)
	}
	s.StoreF64(3*pageWords, -2.5)
	cases := []struct {
		name string
		base Addr
		n    int
	}{
		{"empty", 50, 0},
		{"inside one page", 5, 120},
		{"unwritten page", pageWords + 7, 300},
		{"ends at a page boundary", 2*pageWords - 16, 16},
		{"starts at a page boundary", 2 * pageWords, 9},
		{"crosses written into unwritten", 90, pageWords},
		{"crosses unwritten into written", 2*pageWords - 5, 10},
		{"spans four pages", 3, 3*pageWords + 2},
	}
	for _, tc := range cases {
		words := make([]Word, tc.n)
		for i := range words {
			words[i] = 0xDEAD // LoadRange must overwrite stale contents
		}
		s.LoadRange(tc.base, words)
		is := s.ReadI64Slice(tc.base, tc.n)
		fs := s.ReadF64Slice(tc.base, tc.n)
		if len(is) != tc.n || len(fs) != tc.n {
			t.Fatalf("%s: lengths %d, %d (want %d)", tc.name, len(is), len(fs), tc.n)
		}
		for i := 0; i < tc.n; i++ {
			want := s.Load(tc.base + Addr(i))
			if words[i] != want || is[i] != AsI64(want) || math.Float64bits(fs[i]) != want {
				t.Fatalf("%s: word %d (addr %d) = %#x / %d / %g, Load says %#x",
					tc.name, i, tc.base+Addr(i), words[i], is[i], fs[i], want)
			}
		}
	}
}

// Property: store behaves like a map from Addr to Word.
func TestStoreMapEquivalence(t *testing.T) {
	f := func(writes []struct {
		A uint16
		V uint64
	}) bool {
		s := NewStore()
		ref := map[Addr]Word{}
		for _, w := range writes {
			a := Addr(w.A)
			s.StoreWord(a, w.V)
			ref[a] = w.V
		}
		for a, v := range ref {
			if s.Load(a) != v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
