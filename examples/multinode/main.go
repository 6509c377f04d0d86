// Multinode: scatter-add scaling across 1-8 nodes connected by an
// input-queued crossbar (paper §4.5, Figure 13), showing the effect of
// network bandwidth and of the cache-combining + sum-back optimization on
// a high-locality ("narrow") histogram trace.
//
// Run with:
//
//	go run ./examples/multinode
package main

import (
	"fmt"

	"scatteradd"
)

func main() {
	// The narrow trace: 64K increments over 256 bins — so much locality
	// that local combining pays off handsomely.
	const rangeSize = 256
	const n = 65536
	refs := make([]scatteradd.MultiNodeRef, n)
	seed := uint64(13)
	for i := range refs {
		seed = seed*6364136223846793005 + 1442695040888963407
		refs[i] = scatteradd.MultiNodeRef{
			Addr: scatteradd.Addr((seed >> 33) % rangeSize),
			Val:  scatteradd.I64(1),
		}
	}

	configs := []struct {
		label     string
		bandwidth int
		topo      scatteradd.Topology
	}{
		{"high-bandwidth network (8 w/cyc)", 8, scatteradd.FlatTopology()},
		{"low-bandwidth network (1 w/cyc)", 1, scatteradd.FlatTopology()},
		{"low-bandwidth + cache combining", 1, scatteradd.FlatCombiningTopology()},
	}

	fmt.Printf("narrow histogram trace: %d scatter-adds over %d bins\n\n", n, rangeSize)
	fmt.Printf("%-36s  %8s  %8s  %8s  %8s\n", "configuration (GB/s)", "1 node", "2 nodes", "4 nodes", "8 nodes")
	for _, c := range configs {
		fmt.Printf("%-36s", c.label)
		for _, nodes := range []int{1, 2, 4, 8} {
			span := scatteradd.Addr((rangeSize/nodes + 8) &^ 7)
			cfg := scatteradd.DefaultMultiNodeConfig(nodes, c.bandwidth, span)
			cfg.Topology = c.topo
			s := scatteradd.NewMultiNode(cfg, scatteradd.AddI64)
			res := s.RunTrace(refs)
			fmt.Printf("  %8.1f", res.GBps())
			// Verify the distributed result on the largest configuration.
			if nodes == 8 {
				verify(s, refs, rangeSize)
			}
		}
		fmt.Println()
	}
	fmt.Println("\n(the paper's Figure 13: combining lets even the slow network scale on narrow data)")

	// The same system under chaos faults: packets dropped and duplicated on
	// the crossbar, DRAM stalls and outage windows, combining-store scrubs.
	// The reliable link layer (sequence numbers, acks, retransmission)
	// recovers everything — the sums stay exact, only the cycles change.
	fmt.Println("\nresilience demo: low-bandwidth + combining, 8 nodes, chaos faults on")
	span := scatteradd.Addr((rangeSize/8 + 8) &^ 7)
	cfg := scatteradd.DefaultMultiNodeConfig(8, 1, span)
	cfg.Topology = scatteradd.FlatCombiningTopology()
	cfg.Faults = scatteradd.DefaultChaosFaults()
	s := scatteradd.NewMultiNode(cfg, scatteradd.AddI64)
	res := s.RunTrace(refs)
	verify(s, refs, rangeSize)
	fmt.Printf("  %.1f GB/s, %d frames retransmitted, %d duplicates dropped — sums exact\n",
		res.GBps(), res.Retransmits, res.DupsDropped)
}

func verify(s *scatteradd.MultiNode, refs []scatteradd.MultiNodeRef, rangeSize int) {
	want := make(map[scatteradd.Addr]int64)
	for _, r := range refs {
		want[r.Addr] += scatteradd.AsI64(r.Val)
	}
	addrs := make([]scatteradd.Addr, rangeSize)
	for i := range addrs {
		addrs[i] = scatteradd.Addr(i)
	}
	got := s.ReadResult(addrs)
	for i, a := range addrs {
		if scatteradd.AsI64(got[i]) != want[a] {
			panic(fmt.Sprintf("bin %d: got %d want %d", a, scatteradd.AsI64(got[i]), want[a]))
		}
	}
}
