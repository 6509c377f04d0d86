package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// fixture writes a one-file package exporting Kept and a previous golden
// that also listed Gone, and returns the package dir and the old golden.
func fixture(t *testing.T) (pkg, old string) {
	t.Helper()
	dir := t.TempDir()
	pkg = filepath.Join(dir, "p")
	if err := os.Mkdir(pkg, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(pkg, "p.go"), []byte("package p\n\nfunc Kept() {}\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	old = filepath.Join(dir, "API-main.txt")
	if err := os.WriteFile(old, []byte("Gone :: func Gone()\nKept :: func Kept()\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	return pkg, old
}

func runCmd(args ...string) (int, string) {
	var out bytes.Buffer
	code := run(args, &out, &out)
	return code, out.String()
}

// TestRecordedRemovalAccepted: a "# removed:" record in the golden lets the
// compatibility check pass, and -write keeps the record.
func TestRecordedRemovalAccepted(t *testing.T) {
	pkg, old := fixture(t)
	golden := filepath.Join(t.TempDir(), "API.txt")
	if err := os.WriteFile(golden, []byte("# removed: Gone (replaced by Kept)\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if code, out := runCmd("-pkg", pkg, "-golden", golden, "-write"); code != 0 {
		t.Fatalf("-write: exit %d: %s", code, out)
	}
	data, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "# removed: Gone (replaced by Kept)\n") {
		t.Fatalf("-write dropped the removal record:\n%s", data)
	}
	if code, out := runCmd("-pkg", pkg, "-golden", golden); code != 0 {
		t.Fatalf("exact golden check: exit %d: %s", code, out)
	}
	if code, out := runCmd("-pkg", pkg, "-golden", golden, "-against", old); code != 0 {
		t.Fatalf("recorded removal rejected: exit %d: %s", code, out)
	}
}

// TestUnrecordedRemovalFails: without a record, removing a symbol is still
// a breaking change, and a record naming a symbol that is still exported
// fails the exact golden check.
func TestUnrecordedRemovalFails(t *testing.T) {
	pkg, old := fixture(t)
	golden := filepath.Join(t.TempDir(), "API.txt")
	if code, out := runCmd("-pkg", pkg, "-golden", golden, "-write"); code != 0 {
		t.Fatalf("-write: exit %d: %s", code, out)
	}
	code, out := runCmd("-pkg", pkg, "-golden", golden, "-against", old)
	if code == 0 || !strings.Contains(out, "removed: Gone") {
		t.Fatalf("unrecorded removal accepted: exit %d: %s", code, out)
	}
	if code, out := runCmd("-pkg", pkg, "-against", old); code == 0 {
		t.Fatalf("removal accepted without a golden: %s", out)
	}

	stale := "# removed: Kept (not really)\nKept :: func Kept()\n"
	if err := os.WriteFile(golden, []byte(stale), 0o644); err != nil {
		t.Fatal(err)
	}
	if code, out := runCmd("-pkg", pkg, "-golden", golden); code == 0 || !strings.Contains(out, "still exported: Kept") {
		t.Fatalf("stale removal record accepted: exit %d: %s", code, out)
	}
}
