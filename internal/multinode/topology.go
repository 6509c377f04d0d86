// Topology is the interconnect surface: one value names the switch graph
// the nodes sit on and where scatter-add combining happens (in the sending
// node's cache, inside every switch, both, or nowhere).
package multinode

import (
	"fmt"

	"scatteradd/internal/network"
)

// TopologyKind names an interconnect arrangement.
type TopologyKind int

const (
	// TopoDefault is the zero value: the paper's flat crossbar without
	// combining. It takes no options.
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
	// TopoTree is a multi-hop k-ary tree of small crossbar switches with
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

// Tree returns a multi-hop k-ary tree of the given fan-in (0 = 4), with
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
// applies to the tree kinds (0 = 4) and must be 0 or at least 2.
func ParseTopology(name string, fanIn int) (Topology, error) {
	if fanIn != 0 && fanIn < 2 {
		return Topology{}, fmt.Errorf("fan-in %d invalid (want 0 or >= 2)", fanIn)
	}
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

// CheckNodeCount reports whether topology t can connect the given number of
// nodes: a hypercube needs a power of two. New panics on a count this
// rejects; a command that takes the count as input checks it first.
func CheckNodeCount(t Topology, nodes int) error {
	if t.Kind == TopoHypercube && nodes&(nodes-1) != 0 {
		return fmt.Errorf("hypercube topology requires a power-of-two node count, got %d", nodes)
	}
	return nil
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

// normalized resolves TopoDefault to the flat crossbar, applies defaults,
// and validates the combination for a system of the given node count. It
// panics on conflicts — topology selection is construction-time
// configuration, like the rest of Config.
func (t Topology) normalized(nodes int) Topology {
	if t.Kind == TopoDefault {
		if t != (Topology{}) {
			panic("multinode: Topology options require an explicit Topology.Kind")
		}
		t.Kind = TopoFlat
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
			if err := CheckNodeCount(t, nodes); err != nil {
				panic("multinode: " + err.Error())
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
		if t.MeshX != 0 && t.MeshX*t.MeshY != nodes {
			panic(fmt.Sprintf("multinode: mesh %dx%d does not cover %d nodes", t.MeshX, t.MeshY, nodes))
		}
	default:
		panic(fmt.Sprintf("multinode: unknown topology kind %v", t.Kind))
	}
	return t
}
