package exp

// Figure is one entry of the figure registry.
type Figure struct {
	// Name is what the CLI and the simulation daemon call the figure
	// ("fig6"); it also names the figure's checkpoint file.
	Name string
	// Number is the paper's figure number (14 is the interconnect
	// scale-out extension).
	Number int
	// Gen regenerates the figure's table.
	Gen func(Options) Table
	// Topology marks Fig 14's interconnect axis: only a figure with it reads
	// Options.Topology and Options.FanIn.
	Topology bool
}

// Figures is the figure registry, in paper order. The root package's
// Figure, cmd/scatteradd, the simulation daemon and internal/differ all
// dispatch through it.
var Figures = []Figure{
	{"fig6", 6, Fig6, false},
	{"fig7", 7, Fig7, false},
	{"fig8", 8, Fig8, false},
	{"fig9", 9, Fig9, false},
	{"fig10", 10, Fig10, false},
	{"fig11", 11, Fig11, false},
	{"fig12", 12, Fig12, false},
	{"fig13", 13, Fig13, false},
	{"fig14", 14, Fig14, true},
}

// LookupFigure returns the registry entry called name.
func LookupFigure(name string) (Figure, bool) {
	for _, f := range Figures {
		if f.Name == name {
			return f, true
		}
	}
	return Figure{}, false
}

// FigureNumber returns the registry entry of the paper's figure n.
func FigureNumber(n int) (Figure, bool) {
	for _, f := range Figures {
		if f.Number == n {
			return f, true
		}
	}
	return Figure{}, false
}
