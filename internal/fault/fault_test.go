package fault

import (
	"math"
	"testing"
)

func TestNilInjectorIsCold(t *testing.T) {
	var i *Injector
	for k := 0; k < 100; k++ {
		if i.Fire() {
			t.Fatal("nil injector fired")
		}
	}
	if i.Count() != 0 || i.Draws() != 0 {
		t.Fatal("nil injector counted")
	}
	if NewInjector(1, "x", 0) != nil {
		t.Fatal("zero-rate injector not nil")
	}
	if NewInjector(1, "x", -0.5) != nil {
		t.Fatal("negative-rate injector not nil")
	}
}

func TestInjectorDeterminism(t *testing.T) {
	a := NewInjector(42, "net.drop", 0.1)
	b := NewInjector(42, "net.drop", 0.1)
	for k := 0; k < 10_000; k++ {
		if a.Fire() != b.Fire() {
			t.Fatalf("same-seed injectors diverge at draw %d", k)
		}
	}
	if a.Count() == 0 {
		t.Fatal("rate-0.1 injector never fired in 10k draws")
	}
	if a.Count() != b.Count() || a.Draws() != b.Draws() {
		t.Fatal("same-seed injectors count differently")
	}
}

func TestInjectorStreamsIndependent(t *testing.T) {
	a := NewInjector(42, "net.drop", 0.5)
	b := NewInjector(42, "net.dup", 0.5)
	same := 0
	const n = 10_000
	for k := 0; k < n; k++ {
		if a.Fire() == b.Fire() {
			same++
		}
	}
	// Independent fair streams agree ~50% of the time; identical streams 100%.
	if same > n*6/10 || same < n*4/10 {
		t.Fatalf("streams correlate: agree %d/%d", same, n)
	}
}

func TestInjectorRate(t *testing.T) {
	i := NewInjector(7, "dram.stall", 0.02)
	const n = 200_000
	for k := 0; k < n; k++ {
		i.Fire()
	}
	got := float64(i.Count()) / n
	if got < 0.015 || got > 0.025 {
		t.Fatalf("rate 0.02 injector fired at %.4f over %d draws", got, n)
	}
}

func TestInjectorSeedMoves(t *testing.T) {
	a := NewInjector(1, "x", 0.5)
	b := NewInjector(2, "x", 0.5)
	same := true
	for k := 0; k < 64; k++ {
		if a.Fire() != b.Fire() {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds produced the same 64-draw schedule")
	}
}

func TestWindowsNil(t *testing.T) {
	var w *Windows
	if _, blocked := w.Blocked(10); blocked {
		t.Fatal("nil Windows blocked")
	}
	if w.Defer(10) != 10 {
		t.Fatal("nil Windows deferred")
	}
	if w.CountIn(0, 1000) != 0 {
		t.Fatal("nil Windows counted")
	}
	if NewWindows(1, "x", 0, 10, 0.5) != nil {
		t.Fatal("zero-period Windows not nil")
	}
	if NewWindows(1, "x", 100, 10, 0) != nil {
		t.Fatal("zero-rate Windows not nil")
	}
}

func TestWindowsStateless(t *testing.T) {
	w := NewWindows(9, "dram.window", 1000, 100, 0.7)
	// Query out of order, twice: answers must agree.
	probe := []uint64{5_000, 123, 99_999, 42, 5_000, 123, 777_777, 42}
	first := map[uint64]uint64{}
	for pass := 0; pass < 2; pass++ {
		for _, t0 := range probe {
			until, blocked := w.Blocked(t0)
			if !blocked {
				until = ^uint64(0)
			}
			if pass == 0 {
				first[t0] = until
			} else if first[t0] != until {
				t.Fatalf("Blocked(%d) changed between passes", t0)
			}
		}
	}
}

func TestWindowsGeometry(t *testing.T) {
	w := NewWindows(3, "w", 1000, 100, 1.0) // every period has a window
	seen := 0
	for k := uint64(0); k < 50; k++ {
		s, e, ok := w.window(k)
		if !ok {
			t.Fatalf("rate-1.0 period %d has no window", k)
		}
		if e-s != 100 {
			t.Fatalf("window %d span %d, want 100", k, e-s)
		}
		if s < k*1000 || e > (k+1)*1000 {
			t.Fatalf("window %d [%d,%d) escapes period [%d,%d)", k, s, e, k*1000, (k+1)*1000)
		}
		seen++
	}
	if got := w.CountIn(0, 50_000); got != uint64(seen) {
		t.Fatalf("CountIn(0,50000) = %d, want %d", got, seen)
	}
}

func TestWindowsDefer(t *testing.T) {
	w := NewWindows(3, "w", 1000, 100, 1.0)
	for k := uint64(0); k < 50; k++ {
		s, e, _ := w.window(k)
		if got := w.Defer(s); got != e {
			t.Fatalf("Defer(%d) = %d, want window end %d", s, got, e)
		}
		if got := w.Defer(e); got != e {
			t.Fatalf("Defer(%d) moved a free cycle to %d", e, got)
		}
		mid := s + 50
		if got := w.Defer(mid); got != e {
			t.Fatalf("Defer(mid=%d) = %d, want %d", mid, got, e)
		}
	}
}

func TestWindowsSpanClamp(t *testing.T) {
	w := NewWindows(1, "w", 100, 5000, 1.0) // span > every: clamped to 99
	s, e, ok := w.window(0)
	if !ok || e-s != 99 {
		t.Fatalf("clamped window = [%d,%d) ok=%v, want span 99", s, e, ok)
	}
	// Defer must terminate even when consecutive windows touch.
	if got := w.Defer(s); got < e {
		t.Fatalf("Defer(%d) = %d inside window [%d,%d)", s, got, s, e)
	}
}

func TestConfigEnabledAndDefaults(t *testing.T) {
	var z Config
	if z.Enabled() || z.NetFaults() {
		t.Fatal("zero Config enabled")
	}
	c := DefaultChaos()
	if !c.Enabled() || !c.NetFaults() {
		t.Fatal("DefaultChaos not enabled")
	}
	if c.RetryTimeout == 0 || c.MaxRetries == 0 || c.RetryBackoffCap == 0 {
		t.Fatal("DefaultChaos missing recovery defaults")
	}
	d := Config{NetDropRate: 0.1}.WithDefaults()
	if d.DRAMStallCycles != 300 || d.RetryTimeout != 128 || d.MaxRetries != 24 {
		t.Fatalf("WithDefaults left zeros: %+v", d)
	}
}

func TestConfigScale(t *testing.T) {
	c := DefaultChaos()
	if s := c.Scale(0); s.Enabled() {
		t.Fatal("Scale(0) still enabled")
	}
	if s := c.Scale(math.NaN()); s != (Config{}) {
		t.Fatalf("Scale(NaN) = %+v, want the zero Config", s)
	}
	h := c.Scale(2)
	if h.NetDropRate != c.NetDropRate*2 {
		t.Fatalf("Scale(2) drop = %g, want %g", h.NetDropRate, c.NetDropRate*2)
	}
	if x := c.Scale(1e9); x.NetDropRate > 1 || x.FUErrorRate > 1 {
		t.Fatal("Scale did not clamp to 1")
	}
	if h.RetryTimeout != c.RetryTimeout {
		t.Fatal("Scale changed recovery knobs")
	}
}
