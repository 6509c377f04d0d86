package exp

import (
	"scatteradd/internal/apps"
	"scatteradd/internal/machine"
)

// appVariant is one bar of Figures 9 and 10: a run of the application
// workload W on the paper's machine.
type appVariant[W any] struct {
	label, what string
	run         func(W, *machine.Machine) machine.Result
}

// appRows runs every variant on its own clone of w and its own machine,
// verifies it, and sets t's rows in variant order. Span rows are labeled by
// the variant.
func appRows[W interface {
	Clone() W
	Verify(*machine.Machine) error
}](o Options, t *Table, w W, variants []appVariant[W]) {
	t.Rows = runPoints(o, t, len(variants), func(i int) ([]string, pointRecord) {
		v := variants[i]
		m, tr := o.newMachine(machine.DefaultConfig())
		c := w.Clone()
		res := v.run(c, m)
		mustVerify(m, c, v.what)
		return appRow(v.label, res), o.record(v.label, m, tr)
	})
}

// appRow renders the three Figure 9/10 metrics (millions, as the paper
// plots them).
func appRow(name string, r machine.Result) []string {
	return []string{
		name,
		f(float64(r.Cycles) / 1e6),
		f(float64(r.FPOps) / 1e6),
		f(float64(r.MemRefs) / 1e6),
	}
}

// Fig9Input builds the paper-scale SpMV workload (1,920 elements, ~10k
// DOF, ~44 nnz/row; paper: 1,916 elements, 9,978 DOF, 44.26 nnz/row).
func Fig9Input(o Options) *apps.SpMV {
	nx, ny, nz := 8, 8, 5
	if o.Scale >= 4 {
		nx, ny, nz = 4, 4, 3
	} else if o.Scale > 1 {
		nx, ny, nz = 6, 6, 4
	}
	return apps.NewSpMV(nx, ny, nz, o.seed(0xF16_9))
}

// Fig9 reproduces Figure 9: sparse matrix-vector multiplication as CSR,
// EBE with software scatter-add, and EBE with hardware scatter-add —
// execution cycles, FP operations, and memory references.
func Fig9(o Options) Table { return o.checkpointed("fig9", fig9) }

func fig9(o Options) Table {
	t := Table{
		Title:  "Figure 9: SpMV — CSR vs EBE-SW vs EBE-HW (millions)",
		Header: []string{"variant", "cycles_M", "fp_ops_M", "mem_refs_M"},
		Notes: []string{
			"paper (M): CSR 0.334/1.217/1.836, EBE-SW 0.739/1.735/1.031, EBE-HW 0.230/1.536/0.922",
			"shape: without HW scatter-add CSR beats EBE (~2.2x); with it EBE-HW beats CSR (~1.45x)",
		},
	}
	// The mesh assembly is expensive, so the workload is built once and each
	// concurrent variant run gets its own clone and its own machine.
	appRows(o, &t, Fig9Input(o), []appVariant[*apps.SpMV]{
		{"CSR", "fig9 CSR",
			func(w *apps.SpMV, m *machine.Machine) machine.Result { return w.RunCSR(m) }},
		{"EBE SW scatter-add", "fig9 EBE-SW",
			func(w *apps.SpMV, m *machine.Machine) machine.Result { return w.RunEBESW(m, 0) }},
		{"EBE HW scatter-add", "fig9 EBE-HW",
			func(w *apps.SpMV, m *machine.Machine) machine.Result { return w.RunEBEHW(m) }},
	})
	return t
}

// Fig10Input builds the paper-scale molecular-dynamics workload: 903 water
// molecules; the cutoff is chosen so the Newton's-law variants issue close
// to the paper's 590K scatter-add references over ~8192 force indices.
func Fig10Input(o Options) *apps.MolDyn {
	nMol, cutoff := 903, 8.0
	if o.Scale >= 4 {
		nMol, cutoff = 216, 6.0
	} else if o.Scale > 1 {
		nMol, cutoff = 512, 7.0
	}
	return apps.NewMolDyn(nMol, cutoff, o.seed(0xF16_10))
}

// Fig10 reproduces Figure 10: the GROMACS-like water force kernel without
// scatter-add (duplicated computation), with software scatter-add, and with
// hardware scatter-add.
func Fig10(o Options) Table { return o.checkpointed("fig10", fig10) }

func fig10(o Options) Table {
	t := Table{
		Title:  "Figure 10: molecular dynamics — no-SA vs SW-SA vs HW-SA (millions)",
		Header: []string{"variant", "cycles_M", "fp_ops_M", "mem_refs_M"},
		Notes: []string{
			"paper (M): no-SA 0.975/45.24/1.722, SW-SA 3.022/24.9/4.865, HW-SA 0.553/29.16/1.87",
			"shape: SW scatter-add is slowest; duplicating computation beats it (~3.1x);",
			"HW scatter-add beats the best software (~1.76x)",
		},
	}
	appRows(o, &t, Fig10Input(o), []appVariant[*apps.MolDyn]{
		{"no scatter-add", "fig10 no-SA",
			func(w *apps.MolDyn, m *machine.Machine) machine.Result { return w.RunNoSA(m) }},
		{"SW scatter-add", "fig10 SW-SA",
			func(w *apps.MolDyn, m *machine.Machine) machine.Result { return w.RunSWSA(m, 0) }},
		{"HW scatter-add", "fig10 HW-SA",
			func(w *apps.MolDyn, m *machine.Machine) machine.Result { return w.RunHWSA(m) }},
	})
	return t
}
