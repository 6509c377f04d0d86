package exp

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"scatteradd/internal/fault"
	"scatteradd/internal/machine"
	"scatteradd/internal/mem"
	"scatteradd/internal/multinode"
	"scatteradd/internal/stats"
)

// TestSnapshotKeysGolden pins the uncollapsed counter keys, with their
// kinds, of four small systems' StatsSnapshot: a machine with two cache
// banks over DRAM, a uniform-memory machine, a 2-node flat crossbar with
// cache combining under the chaos faults (which carries the link and comb
// groups), and a 4-node tree (the multi-hop net keys). The figure goldens
// collapse instance names and the differ compares two snapshots built by the
// same code, so neither pins which keys each instance carries. Values are
// left out: the figure goldens pin those. Regenerate with `go test
// ./internal/exp -run TestSnapshotKeysGolden -update` only when a change is
// meant to move the keys.
func TestSnapshotKeysGolden(t *testing.T) {
	banked := machine.DefaultConfig()
	banked.Cache.Banks = 2
	uniform := machine.DefaultConfig()
	uniform.UniformMem = &machine.UniformMemConfig{Latency: 10, Interval: 2}
	flat := multinode.DefaultConfig(2, 1, 1<<12)
	flat.Cache.Banks = 2
	flat.Topology = multinode.FlatCombining()
	flat.Faults = fault.DefaultChaos()
	tree := multinode.DefaultConfig(4, 1, 1<<12)
	tree.Cache.Banks = 2
	tree.Topology = multinode.Tree(2, true)

	var b bytes.Buffer
	for _, c := range []struct {
		name string
		snap stats.Snapshot
	}{
		{"machine, 2 cache banks", machine.New(banked).StatsSnapshot()},
		{"machine, uniform memory", machine.New(uniform).StatsSnapshot()},
		{"2 nodes, flat+comb, chaos faults", multinode.New(flat, mem.AddI64).StatsSnapshot()},
		{"4 nodes, tree+comb", multinode.New(tree, mem.AddI64).StatsSnapshot()},
	} {
		fmt.Fprintf(&b, "# %s\n", c.name)
		for _, e := range c.snap.Entries {
			kind := "counter"
			if e.Kind == stats.KindGauge {
				kind = "gauge"
			}
			fmt.Fprintf(&b, "%s %s\n", e.Key, kind)
		}
	}
	path := filepath.Join("testdata", "snapshot_keys.golden")
	if *update {
		if err := os.WriteFile(path, b.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if !bytes.Equal(b.Bytes(), want) {
		t.Errorf("snapshot keys differ from %s", path)
	}
}
