package scatteradd

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"

	"scatteradd/internal/differ"
	"scatteradd/internal/exp"
	"scatteradd/internal/server"
)

// TestFigureRegistry: root Figure, the daemon and the differential gate
// serve exactly the figure registry. Figure is probed through a checkpoint
// snapshot under each registry name, so nothing is simulated.
func TestFigureRegistry(t *testing.T) {
	o := ExpOptions{Scale: 8, CheckpointDir: t.TempDir()}
	var names []string
	var numbers []int
	byNumber := map[int]string{}
	for _, f := range exp.Figures {
		names = append(names, f.Name)
		numbers = append(numbers, f.Number)
		byNumber[f.Number] = f.Name
		snap, err := json.Marshal(map[string]any{"Fingerprint": o.Fingerprint(), "Table": ExpTable{Title: f.Name}})
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(o.CheckpointDir, f.Name+".json"), snap, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	var accepted []int
	for n := 0; n <= 20; n++ {
		tab, err := Figure(n, o)
		if err != nil {
			continue
		}
		accepted = append(accepted, n)
		if tab.Title != byNumber[n] {
			t.Errorf("Figure(%d) served %q, want the registry's %q", n, tab.Title, byNumber[n])
		}
	}
	if !reflect.DeepEqual(accepted, numbers) {
		t.Errorf("Figure accepts %v, registry has %v", accepted, numbers)
	}

	if !reflect.DeepEqual(differ.Figures, numbers) {
		t.Errorf("differ.Figures = %v, registry has %v", differ.Figures, numbers)
	}

	var daemon []string
	for _, name := range server.Figures() {
		if name != "table1" {
			daemon = append(daemon, name)
		}
	}
	sort.Strings(names)
	if !reflect.DeepEqual(daemon, names) {
		t.Errorf("daemon accepts figures %v, registry has %v", daemon, names)
	}
}
