package exp

import (
	"encoding/csv"
	"strconv"
	"strings"
	"testing"
)

// quick runs experiments at 1/16 data scale.
func quick() Options { return Options{Scale: 16} }

// cell parses a numeric table cell.
func cell(t *testing.T, tab Table, row, col int) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(tab.Rows[row][col], 64)
	if err != nil {
		t.Fatalf("%s: cell (%d,%d) = %q not numeric", tab.Title, row, col, tab.Rows[row][col])
	}
	return v
}

func TestTableRendering(t *testing.T) {
	tab := Table{
		Title:  "T",
		Header: []string{"a", "bb"},
		Rows:   [][]string{{"1", "2"}, {"33", "4"}},
		Notes:  []string{"n1"},
	}
	s := tab.String()
	for _, want := range []string{"T\n", "a", "bb", "33", "note: n1"} {
		if !strings.Contains(s, want) {
			t.Fatalf("rendering missing %q in:\n%s", want, s)
		}
	}
	csv := tab.CSV()
	if !strings.HasPrefix(csv, "a,bb\n1,2\n") {
		t.Fatalf("csv = %q", csv)
	}
}

func TestCSVQuotesSpecialCells(t *testing.T) {
	tab := Table{
		Title:  "Q",
		Header: []string{"label", "value"},
		Rows: [][]string{
			{"per-bank (8 units), combined", "1.5"},
			{`say "hi"`, "2"},
		},
	}
	r := csv.NewReader(strings.NewReader(tab.CSV()))
	recs, err := r.ReadAll()
	if err != nil {
		t.Fatalf("CSV output does not re-parse: %v", err)
	}
	want := [][]string{{"label", "value"}, {"per-bank (8 units), combined", "1.5"}, {`say "hi"`, "2"}}
	if len(recs) != len(want) {
		t.Fatalf("got %d records, want %d", len(recs), len(want))
	}
	for i := range want {
		for j := range want[i] {
			if recs[i][j] != want[i][j] {
				t.Fatalf("record (%d,%d) = %q, want %q", i, j, recs[i][j], want[i][j])
			}
		}
	}
}

// TestCellNumPanicsWithContext is the regression test for the silent-zero
// bug: a malformed table cell must halt the report with the figure, row, and
// column rather than flipping a claim check.
func TestCellNumPanicsWithContext(t *testing.T) {
	tab := Table{
		Title:  "Figure X: malformed",
		Header: []string{"a"},
		Rows:   [][]string{{"1.5"}, {"not-a-number"}},
	}
	if got := cellNum(tab, 0, 0); got != 1.5 {
		t.Fatalf("cellNum = %g, want 1.5", got)
	}
	expectPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			r := recover()
			if r == nil {
				t.Fatalf("%s: no panic", name)
			}
			msg := r.(string)
			if !strings.Contains(msg, "Figure X: malformed") {
				t.Fatalf("%s: panic lacks figure context: %q", name, msg)
			}
		}()
		fn()
	}
	expectPanic("malformed cell", func() { cellNum(tab, 1, 0) })
	expectPanic("row out of range", func() { cellNum(tab, 5, 0) })
	expectPanic("negative row", func() { cellNum(tab, -1, 0) })
	expectPanic("column out of range", func() { cellNum(tab, 0, 3) })
}

func TestOptionsScaling(t *testing.T) {
	o := Options{Scale: 4}
	if o.scaled(1024) != 256 {
		t.Fatalf("scaled = %d", o.scaled(1024))
	}
	if o.scaled(8) != 16 { // floor
		t.Fatalf("floor = %d", o.scaled(8))
	}
	if DefaultOptions().scaled(100) != 100 {
		t.Fatal("default must not scale")
	}
}

func TestTable1MatchesPaper(t *testing.T) {
	tab := Table1()
	if len(tab.Rows) < 10 {
		t.Fatalf("table 1 has %d rows", len(tab.Rows))
	}
	byName := map[string]string{}
	for _, r := range tab.Rows {
		byName[r[0]] = r[1]
	}
	if byName["stream cache banks"] != "8" || byName["combining store entries"] != "8" ||
		byName["peak FP ops per cycle"] != "128" {
		t.Fatalf("table 1 values drifted: %v", byName)
	}
}

func TestFig6SpeedupShape(t *testing.T) {
	tab := Fig6(quick())
	if len(tab.Rows) < 2 {
		t.Fatalf("fig6 rows: %d", len(tab.Rows))
	}
	for i := range tab.Rows {
		if sp := cell(t, tab, i, 3); sp < 1 {
			t.Fatalf("fig6 row %d: HW slower than SW (speedup %.2f)", i, sp)
		}
	}
	// Speedup grows with n (paper: 3x at small n up to 11x at large).
	first := cell(t, tab, 0, 3)
	last := cell(t, tab, len(tab.Rows)-1, 3)
	if last <= first {
		t.Fatalf("fig6 speedup not growing: %.2f -> %.2f", first, last)
	}
}

func TestFig7HotBankShape(t *testing.T) {
	tab := Fig7(quick())
	// Range 1 (row 0) must be slower than the mid-range minimum, and the
	// largest range slower than the minimum (cache overflow).
	min := cell(t, tab, 0, 1)
	minRow := 0
	for i := range tab.Rows {
		if v := cell(t, tab, i, 1); v < min {
			min, minRow = v, i
		}
	}
	if minRow == 0 || minRow == len(tab.Rows)-1 {
		t.Fatalf("fig7 HW curve not U-shaped (min at row %d)", minRow)
	}
	if cell(t, tab, 0, 1) < 2*min {
		t.Fatalf("fig7 hot-bank penalty too small: %.2f vs min %.2f", cell(t, tab, 0, 1), min)
	}
}

func TestFig8PrivatizationGrowsWithRange(t *testing.T) {
	tab := Fig8(quick())
	// Within each n group, privatization time grows with the range.
	var lastN string
	prev := -1.0
	for i := range tab.Rows {
		n := tab.Rows[i][1]
		v := cell(t, tab, i, 3)
		if n != lastN {
			lastN, prev = n, v
			continue
		}
		if v <= prev {
			t.Fatalf("fig8: privatization not growing with range at row %d", i)
		}
		prev = v
	}
	// Largest range: speedup over 4x even at reduced scale.
	if sp := cell(t, tab, len(tab.Rows)-1, 4); sp < 4 {
		t.Fatalf("fig8 large-range speedup %.2f too small", sp)
	}
}

func TestFig9Shape(t *testing.T) {
	tab := Fig9(Options{Scale: 4})
	if len(tab.Rows) != 3 {
		t.Fatalf("fig9 rows: %d", len(tab.Rows))
	}
	csr, sw, hw := cell(t, tab, 0, 1), cell(t, tab, 1, 1), cell(t, tab, 2, 1)
	if !(hw < csr && csr < sw) {
		t.Fatalf("fig9 cycle ordering: CSR %.3f, EBE-SW %.3f, EBE-HW %.3f; want HW < CSR < SW", csr, sw, hw)
	}
	// EBE trades flops for memory references.
	if cell(t, tab, 2, 2) <= cell(t, tab, 0, 2) {
		t.Fatal("fig9: EBE-HW flops should exceed CSR")
	}
	if cell(t, tab, 2, 3) >= cell(t, tab, 0, 3) {
		t.Fatal("fig9: EBE-HW mem refs should be below CSR")
	}
}

func TestFig10Shape(t *testing.T) {
	tab := Fig10(Options{Scale: 4})
	no, sw, hw := cell(t, tab, 0, 1), cell(t, tab, 1, 1), cell(t, tab, 2, 1)
	if !(hw < no && no < sw) {
		t.Fatalf("fig10 cycle ordering: no-SA %.3f, SW %.3f, HW %.3f; want HW < no-SA < SW", no, sw, hw)
	}
	// Duplicated computation doubles kernel flops.
	if cell(t, tab, 0, 2) < 1.5*cell(t, tab, 2, 2) {
		t.Fatal("fig10: no-SA flops should be ~2x HW-SA")
	}
}

func TestFig11LatencyTolerance(t *testing.T) {
	tab := Fig11(quick())
	// Column 4 is mem-latency 256: a 64-entry store (last row) must beat a
	// 2-entry store (first row) by a wide margin.
	small := cell(t, tab, 0, 4)
	big := cell(t, tab, len(tab.Rows)-1, 4)
	if big*4 > small {
		t.Fatalf("fig11: 64 entries (%f us) should tolerate 256-cycle latency far better than 2 (%f us)", big, small)
	}
	// More entries never hurt, per column.
	for col := 1; col <= 7; col++ {
		for row := 1; row < len(tab.Rows); row++ {
			if cell(t, tab, row, col) > cell(t, tab, row-1, col)*1.05 {
				t.Fatalf("fig11: column %d not (weakly) improving with entries at row %d", col, row)
			}
		}
	}
}

func TestFig12CombiningLocality(t *testing.T) {
	tab := Fig12(quick())
	last := len(tab.Rows) - 1
	// At the lowest throughput (interval 16), 16 bins (combining works)
	// must beat 65536 bins for the 64-entry store.
	if cell(t, tab, last, 7) >= cell(t, tab, last, 8) {
		t.Fatal("fig12: combining should help the 16-bin case at low throughput")
	}
	// The wide case at interval 16 is throughput-bound: entries don't help.
	if first, lastV := cell(t, tab, 0, 8), cell(t, tab, last, 8); lastV < first*0.9 {
		t.Fatalf("fig12: wide low-throughput case should be insensitive to entries (%f -> %f)", first, lastV)
	}
}

func TestFig13Shape(t *testing.T) {
	tab := Fig13(Options{Scale: 8})
	if len(tab.Rows) != 10 {
		t.Fatalf("fig13 rows: %d", len(tab.Rows))
	}
	byLabel := map[string][]float64{}
	for i, r := range tab.Rows {
		var vals []float64
		for c := 1; c <= 4; c++ {
			vals = append(vals, cell(t, tab, i, c))
		}
		byLabel[r[0]] = vals
	}
	nlc := byLabel["narrow-low-comb"]
	nl := byLabel["narrow-low"]
	if nlc[3] <= nl[3] {
		t.Fatalf("fig13: combining (%f) should beat direct (%f) on narrow-low at 8 nodes", nlc[3], nl[3])
	}
	nh := byLabel["narrow-high"]
	if nh[3] <= nh[0]*1.5 {
		t.Fatalf("fig13: narrow-high should scale (%f -> %f)", nh[0], nh[3])
	}
	wl := byLabel["wide-low"]
	wlc := byLabel["wide-low-comb"]
	if wlc[3] > wl[3] {
		t.Fatalf("fig13: combining should not help wide data (%f vs %f)", wlc[3], wl[3])
	}
}

func TestAblationsRun(t *testing.T) {
	o := quick()
	for _, tab := range []Table{
		AblationDRAMSched(o),
		AblationSAPlacement(o),
		AblationBatchSize(o),
		AblationEagerCombine(o),
		AblationCombiningStore(o),
	} {
		if len(tab.Rows) == 0 {
			t.Fatalf("%s: empty", tab.Title)
		}
		for i := range tab.Rows {
			if cell(t, tab, i, 1) <= 0 {
				t.Fatalf("%s: non-positive time", tab.Title)
			}
		}
	}
}

func TestAblationPlacementPerBankWins(t *testing.T) {
	tab := AblationSAPlacement(quick())
	if cell(t, tab, 0, 1) >= cell(t, tab, 1, 1) {
		t.Fatal("per-bank placement should beat a single unit")
	}
}

func TestAblationCombiningStoreMonotone(t *testing.T) {
	tab := AblationCombiningStore(quick())
	first := cell(t, tab, 0, 1)
	last := cell(t, tab, len(tab.Rows)-1, 1)
	if last >= first {
		t.Fatalf("more combining-store entries should help: %f -> %f", first, last)
	}
}

// TestAblationsCarryNoAppendices: ablation runs are built like figure
// points, under the options' tracer too, but their tables stay without a
// counter or span appendix when the options collect both.
func TestAblationsCarryNoAppendices(t *testing.T) {
	o := Options{Scale: 16, Jobs: 2, CollectStats: true, CollectSpans: true}
	for _, gen := range []func(Options) Table{
		AblationDRAMSched, AblationSAPlacement, AblationBatchSize, AblationEagerCombine,
		AblationCombiningStore, AblationOverlap, AblationHierarchical, AblationWritePolicy,
	} {
		tab := gen(o)
		if tab.Counters.Len() > 0 || len(tab.Spans) > 0 || strings.Contains(tab.String(), "appendix") {
			t.Errorf("%s: ablation table carries an appendix", tab.Title)
		}
	}
}
