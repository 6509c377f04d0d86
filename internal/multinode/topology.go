// Topology is the first-class interconnect surface that replaced the ad-hoc
// Combining/Hierarchical bool pair: one value names the switch graph the
// nodes sit on and where scatter-add combining happens (in the sending
// node's cache, inside every switch, both, or nowhere). The deprecated bools
// still work — TopoDefault maps them onto the equivalent Topology — but
// mixing the two surfaces is a configuration error.
package multinode

import (
	"fmt"

	"scatteradd/internal/network"
)

// TopologyKind names an interconnect arrangement.
type TopologyKind int

const (
	// TopoDefault derives the kind from the deprecated Config.Combining and
	// Config.Hierarchical bools: hypercube when Hierarchical is set, flat
	// otherwise. Zero-value configs keep their exact pre-Topology meaning.
	// It takes no options.
	TopoDefault TopologyKind = iota
	// TopoFlat is the paper's single full crossbar (§4.5).
	TopoFlat
	// TopoHypercube keeps the flat crossbar but routes sum-backs along
	// logical hypercube dimensions so they combine across nodes in
	// logarithmic instead of linear complexity — the paper's §5 future-work
	// optimization. Each evicted partial line travels one hypercube
	// dimension toward its owner per flush round, merging with other nodes'
	// partials at every hop. Requires cache combining and a power-of-two
	// node count.
	TopoHypercube
	// TopoTree is a multi-hop fat-tree of small crossbar switches with
	// configurable fan-in.
	TopoTree
	// TopoMesh is a multi-hop 2D mesh of per-node switches with XY routing.
	TopoMesh
)

func (k TopologyKind) String() string {
	switch k {
	case TopoDefault:
		return "default"
	case TopoFlat:
		return "flat"
	case TopoHypercube:
		return "hypercube"
	case TopoTree:
		return "tree"
	case TopoMesh:
		return "mesh"
	}
	return fmt.Sprintf("TopologyKind(%d)", int(k))
}

// Topology selects the interconnect and the combining placement.
type Topology struct {
	Kind TopologyKind

	// FanIn is the tree's children per switch (TopoTree only; 0 = 4).
	FanIn int
	// MeshX, MeshY are the mesh grid dimensions (TopoMesh only; both zero
	// picks the most-square factorization of the node count).
	MeshX, MeshY int

	// CombineCache enables the paper's local-combining + sum-back mode:
	// remote references merge into the sending node's own cache and evicted
	// partial lines sum back to their owners.
	CombineCache bool
	// CombineSwitch enables Ultracomputer-style combining inside every
	// switch of a multi-hop topology: same-address scatter-add packets that
	// meet in a switch's staging window merge into one. Requires TopoTree
	// or TopoMesh.
	CombineSwitch bool
}

// Flat returns the paper's single-crossbar topology.
func Flat() Topology { return Topology{Kind: TopoFlat} }

// FlatCombining returns the flat crossbar with the paper's cache-combining
// mode.
func FlatCombining() Topology { return Topology{Kind: TopoFlat, CombineCache: true} }

// Hypercube returns the hypercube sum-back topology (cache combining
// implied — the hierarchy exists to route sum-backs).
func Hypercube() Topology { return Topology{Kind: TopoHypercube, CombineCache: true} }

// Tree returns a multi-hop fat-tree of the given fan-in (0 = 4), with
// in-switch combining on or off.
func Tree(fanIn int, inSwitch bool) Topology {
	return Topology{Kind: TopoTree, FanIn: fanIn, CombineSwitch: inSwitch}
}

// Mesh returns a multi-hop 2D mesh (most-square grid), with in-switch
// combining on or off.
func Mesh(inSwitch bool) Topology {
	return Topology{Kind: TopoMesh, CombineSwitch: inSwitch}
}

// ParseTopology maps a CLI/server name onto a Topology: flat, flat+comb,
// hypercube, tree, tree+comb, mesh, or mesh+comb ("+comb" = in-switch
// combining for the multi-hop kinds, cache combining for flat). fanIn
// applies to the tree kinds (0 = 4).
func ParseTopology(name string, fanIn int) (Topology, error) {
	switch name {
	case "flat":
		return Flat(), nil
	case "flat+comb":
		return FlatCombining(), nil
	case "hypercube":
		return Hypercube(), nil
	case "tree":
		return Tree(fanIn, false), nil
	case "tree+comb":
		return Tree(fanIn, true), nil
	case "mesh":
		return Mesh(false), nil
	case "mesh+comb":
		return Mesh(true), nil
	}
	return Topology{}, fmt.Errorf("unknown topology %q (want flat, flat+comb, hypercube, tree, tree+comb, mesh, or mesh+comb)", name)
}

// multiHop reports whether the topology is a switched multi-hop graph.
func (t Topology) multiHop() bool { return t.Kind == TopoTree || t.Kind == TopoMesh }

// graphKind maps a multi-hop topology onto its network switch-graph kind.
func (t Topology) graphKind() network.GraphKind {
	if t.Kind == TopoMesh {
		return network.MeshGraph
	}
	return network.TreeGraph
}

// normalized resolves TopoDefault against the deprecated bools, applies
// defaults, and validates the combination. It panics on conflicts —
// topology selection is construction-time configuration, like the rest of
// Config.
func (t Topology) normalized(cfg Config) Topology {
	if t.Kind == TopoDefault {
		if t != (Topology{}) {
			panic("multinode: Topology options require an explicit Topology.Kind")
		}
		t.Kind = TopoFlat
		if cfg.Hierarchical {
			t.Kind = TopoHypercube
		}
		t.CombineCache = cfg.Combining
	} else if cfg.Combining || cfg.Hierarchical {
		panic("multinode: set Config.Topology or the deprecated Combining/Hierarchical bools, not both")
	}
	switch t.Kind {
	case TopoFlat, TopoHypercube:
		if t.CombineSwitch {
			panic("multinode: in-switch combining requires a multi-hop topology (tree or mesh)")
		}
		if t.FanIn != 0 || t.MeshX != 0 || t.MeshY != 0 {
			panic(fmt.Sprintf("multinode: fan-in/mesh dimensions are meaningless for a %v topology", t.Kind))
		}
		if t.Kind == TopoHypercube {
			if !t.CombineCache {
				panic("multinode: hypercube topology requires cache combining (the hierarchy routes sum-backs)")
			}
			if cfg.Nodes&(cfg.Nodes-1) != 0 {
				panic(fmt.Sprintf("multinode: hypercube topology requires a power-of-two node count, got %d", cfg.Nodes))
			}
		}
	case TopoTree:
		if t.MeshX != 0 || t.MeshY != 0 {
			panic("multinode: mesh dimensions are meaningless for a tree topology")
		}
		if t.FanIn == 0 {
			t.FanIn = 4
		}
		if t.FanIn < 2 {
			panic(fmt.Sprintf("multinode: tree fan-in must be >= 2, got %d", t.FanIn))
		}
	case TopoMesh:
		if t.FanIn != 0 {
			panic("multinode: fan-in is meaningless for a mesh topology")
		}
		if (t.MeshX == 0) != (t.MeshY == 0) {
			panic("multinode: set both mesh dimensions or neither")
		}
		if t.MeshX != 0 && t.MeshX*t.MeshY != cfg.Nodes {
			panic(fmt.Sprintf("multinode: mesh %dx%d does not cover %d nodes", t.MeshX, t.MeshY, cfg.Nodes))
		}
	default:
		panic(fmt.Sprintf("multinode: unknown topology kind %v", t.Kind))
	}
	return t
}
