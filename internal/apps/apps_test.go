package apps

import (
	"fmt"
	"strings"
	"testing"

	"scatteradd/internal/machine"
	"scatteradd/internal/mem"
)

// fastMachine returns a full-featured machine with reduced startup costs so
// small test workloads finish quickly.
func fastMachine() *machine.Machine {
	cfg := machine.DefaultConfig()
	cfg.KernelStartup = 16
	cfg.MemOpStartup = 8
	return machine.New(cfg)
}

func TestHistogramHWCorrect(t *testing.T) {
	h := NewHistogram(2000, 256, 42)
	m := fastMachine()
	res := h.RunHW(m)
	if err := h.Verify(m); err != nil {
		t.Fatal(err)
	}
	if res.Cycles == 0 || res.MemRefs < uint64(2*h.N) {
		t.Fatalf("result implausible: %+v", res)
	}
}

func TestHistogramSortScanCorrect(t *testing.T) {
	h := NewHistogram(1500, 128, 7)
	m := fastMachine()
	h.RunSortScan(m, 256)
	if err := h.Verify(m); err != nil {
		t.Fatal(err)
	}
}

func TestHistogramPrivatizationCorrect(t *testing.T) {
	h := NewHistogram(800, 96, 11)
	m := fastMachine()
	h.RunPrivatization(m, 32)
	if err := h.Verify(m); err != nil {
		t.Fatal(err)
	}
}

func TestHistogramHWBeatsSoftware(t *testing.T) {
	// The paper's core result (Figures 6 and 8): hardware scatter-add beats
	// both software methods.
	h := NewHistogram(4096, 512, 3)
	hw := h.RunHW(fastMachine())
	sw := h.RunSortScan(fastMachine(), 0)
	priv := h.RunPrivatization(fastMachine(), 0)
	if hw.Cycles >= sw.Cycles {
		t.Fatalf("HW (%d) not faster than sort&scan (%d)", hw.Cycles, sw.Cycles)
	}
	if hw.Cycles >= priv.Cycles {
		t.Fatalf("HW (%d) not faster than privatization (%d)", hw.Cycles, priv.Cycles)
	}
}

func TestHistogramOverlappedCorrectAndFaster(t *testing.T) {
	h := NewHistogram(16384, 1024, 21)
	mSeq := fastMachine()
	seq := h.RunHW(mSeq)
	if err := h.Verify(mSeq); err != nil {
		t.Fatal(err)
	}
	mOvl := fastMachine()
	ovl := h.RunHWOverlapped(mOvl, 0)
	if err := h.Verify(mOvl); err != nil {
		t.Fatal(err)
	}
	if ovl.Cycles >= seq.Cycles {
		t.Fatalf("overlapped (%d cycles) not faster than sequential (%d)", ovl.Cycles, seq.Cycles)
	}
}

func TestHistogramVerifyDetectsCorruption(t *testing.T) {
	h := NewHistogram(100, 16, 1)
	m := fastMachine()
	h.RunHW(m)
	m.FlushCaches() // make the store authoritative before corrupting it
	m.Store().StoreI64(h.BinBase, -999)
	if err := h.Verify(m); err == nil {
		t.Fatal("Verify missed corrupted bin")
	}
}

// TestHistogramVerifyNamesChunkedBins corrupts one bin at a time on either
// side of the first 4096-bin chunk boundary and in the last, partial chunk;
// Verify must name each by its bin number.
func TestHistogramVerifyNamesChunkedBins(t *testing.T) {
	h := NewHistogram(2000, 2*4096+100, 3)
	m := fastMachine()
	h.RunHW(m)
	if err := h.Verify(m); err != nil {
		t.Fatal(err)
	}
	for _, b := range []int{4095, 4096, 2*4096 + 57} {
		a := h.BinBase + mem.Addr(b)
		m.Store().StoreI64(a, h.Ref[b]+7)
		err := h.Verify(m)
		if want := fmt.Sprintf("bin %d = %d,", b, h.Ref[b]+7); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("corrupted bin %d: Verify = %v, want an error naming %q", b, err, want)
		}
		m.Store().StoreI64(a, h.Ref[b])
	}
	if err := h.Verify(m); err != nil {
		t.Fatalf("restored bins: %v", err)
	}
}

func TestSpMVCSRAndEBEAgree(t *testing.T) {
	s := NewSpMV(2, 2, 2, 5)
	mCSR := fastMachine()
	s.RunCSR(mCSR)
	if err := s.Verify(mCSR); err != nil {
		t.Fatal(err)
	}
	mHW := fastMachine()
	s.RunEBEHW(mHW)
	if err := s.Verify(mHW); err != nil {
		t.Fatal(err)
	}
	mSW := fastMachine()
	s.RunEBESW(mSW, 256)
	if err := s.Verify(mSW); err != nil {
		t.Fatal(err)
	}
}

func TestSpMVEBETradeoffDirections(t *testing.T) {
	// EBE trades more FP operations for fewer memory references (§4.1).
	s := NewSpMV(3, 3, 2, 9)
	csr := s.RunCSR(fastMachine())
	hw := s.RunEBEHW(fastMachine())
	if hw.FPOps <= csr.FPOps {
		t.Fatalf("EBE FP ops (%d) should exceed CSR (%d)", hw.FPOps, csr.FPOps)
	}
	if hw.MemRefs >= csr.MemRefs {
		t.Fatalf("EBE mem refs (%d) should be below CSR (%d)", hw.MemRefs, csr.MemRefs)
	}
}

func TestMolDynAllVariantsMatchReference(t *testing.T) {
	md := NewMolDyn(27, 5.0, 13)
	if len(md.Pairs) == 0 {
		t.Fatal("no neighbor pairs")
	}
	mNo := fastMachine()
	md.RunNoSA(mNo)
	if err := md.Verify(mNo); err != nil {
		t.Fatalf("NoSA: %v", err)
	}
	mHW := fastMachine()
	md.RunHWSA(mHW)
	if err := md.Verify(mHW); err != nil {
		t.Fatalf("HWSA: %v", err)
	}
	mSW := fastMachine()
	md.RunSWSA(mSW, 256)
	if err := md.Verify(mSW); err != nil {
		t.Fatalf("SWSA: %v", err)
	}
}

func TestMolDynNoSADoublesComputation(t *testing.T) {
	md := NewMolDyn(64, 5.0, 17)
	no := md.RunNoSA(fastMachine())
	hw := md.RunHWSA(fastMachine())
	// The duplicated variant performs ~2x the kernel flops (the HW variant
	// adds scatter-add FU ops, so the ratio is a bit under 2).
	ratio := float64(no.FPOps) / float64(hw.FPOps)
	if ratio < 1.5 || ratio > 2.1 {
		t.Fatalf("flop ratio NoSA/HWSA = %.2f, want ~2 (Newton's third law)", ratio)
	}
}

func TestMolDynForcesAreBalanced(t *testing.T) {
	// Newton's third law: total force over all atoms ≈ 0 in a periodic box.
	md := NewMolDyn(27, 5.0, 23)
	var sum [3]float64
	for i := 0; i < len(md.RefForce); i += 3 {
		sum[0] += md.RefForce[i]
		sum[1] += md.RefForce[i+1]
		sum[2] += md.RefForce[i+2]
	}
	for c := 0; c < 3; c++ {
		if sum[c] > 1e-6 || sum[c] < -1e-6 {
			t.Fatalf("net force component %d = %g", c, sum[c])
		}
	}
}

func TestMolDynSARefCount(t *testing.T) {
	md := NewMolDyn(27, 5.0, 29)
	addrs, vals := md.saRefs()
	if len(addrs) != md.NumSARefs() || len(vals) != len(addrs) {
		t.Fatalf("SA refs: %d addrs, %d vals, want %d", len(addrs), len(vals), md.NumSARefs())
	}
	if md.NumSARefs() != len(md.Pairs)*18 {
		t.Fatalf("refs per pair != 18")
	}
}

func TestMolDynVariantOrdering(t *testing.T) {
	// Figure 10's shape: software scatter-add is the slowest; hardware
	// scatter-add beats the duplicated-computation variant.
	md := NewMolDyn(125, 6.0, 31)
	no := md.RunNoSA(fastMachine())
	hw := md.RunHWSA(fastMachine())
	sw := md.RunSWSA(fastMachine(), 0)
	if !(hw.Cycles < no.Cycles && no.Cycles < sw.Cycles) {
		t.Fatalf("cycle ordering: HW=%d NoSA=%d SW=%d, want HW < NoSA < SW",
			hw.Cycles, no.Cycles, sw.Cycles)
	}
}
