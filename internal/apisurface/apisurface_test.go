package apisurface

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

func writePkg(t *testing.T, src string) string {
	t.Helper()
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "p.go"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	return dir
}

func TestSurfaceExtraction(t *testing.T) {
	dir := writePkg(t, `package p

// Exported docs are stripped from signatures.
func Exported(a int, b ...string) (int, error) { return 0, nil }

func unexported() {}

type Public struct{ X int }

type Alias = Public

func (p *Public) Method(n int) int { return n }

func (p *Public) unexportedMethod() {}

const (
	A = 1
	b = 2
)

var V, w = 3, 4
`)
	decls, err := Surface(dir)
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]string{}
	for _, d := range decls {
		got[d.Name] = d.Sig
	}
	want := map[string]string{
		"Exported":      "func Exported(a int, b ...string) (int, error)",
		"Public":        "type Public struct{ X int }",
		"Alias":         "type Alias = Public",
		"Public.Method": "func (p *Public) Method(n int) int",
		"A":             "const A = 1",
		"V":             "var V = 3",
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("surface = %#v\nwant %#v", got, want)
	}
}

func TestFormatParseRoundTrip(t *testing.T) {
	in := []Decl{{Name: "A", Sig: "const A = 1"}, {Name: "F", Sig: "func F()"}}
	out := Parse(Format(in))
	if !reflect.DeepEqual(in, out) {
		t.Fatalf("round trip: %#v != %#v", out, in)
	}
}

func TestCompareRules(t *testing.T) {
	old := []Decl{
		{Name: "Kept", Sig: "func Kept()"},
		{Name: "Changed", Sig: "func Changed(a int)"},
		{Name: "Removed", Sig: "func Removed()"},
	}
	new := []Decl{
		{Name: "Kept", Sig: "func Kept()"},
		{Name: "Changed", Sig: "func Changed(a, b int)"},
		{Name: "Added", Sig: "func Added()"},
	}
	breaking, additions := Compare(old, new)
	if len(breaking) != 2 {
		t.Fatalf("breaking = %v, want changed+removed", breaking)
	}
	if !strings.HasPrefix(breaking[0], "changed: Changed") || !strings.HasPrefix(breaking[1], "removed: Removed") {
		t.Fatalf("breaking = %v", breaking)
	}
	if len(additions) != 1 || !strings.HasPrefix(additions[0], "added: Added") {
		t.Fatalf("additions = %v", additions)
	}
}

// TestRemovalRecords: "# removed:" records round-trip through Format and
// ParseRemovals, Parse ignores them, and Compare accepts exactly the
// recorded removals.
func TestRemovalRecords(t *testing.T) {
	decls := []Decl{{Name: "Kept", Sig: "func Kept()"}}
	rec := []Removal{{Name: "Gone", Reason: "superseded by Kept"}}
	text := Format(decls, rec...)
	if got := ParseRemovals(text); !reflect.DeepEqual(got, rec) {
		t.Fatalf("removals round trip: %#v != %#v", got, rec)
	}
	if got := Parse(text); !reflect.DeepEqual(got, decls) {
		t.Fatalf("Parse picked up a removal record: %#v", got)
	}
	old := []Decl{{Name: "Gone", Sig: "func Gone()"}, {Name: "Other", Sig: "func Other()"}, decls[0]}
	breaking, _ := Compare(old, decls, rec...)
	if len(breaking) != 1 || !strings.HasPrefix(breaking[0], "removed: Other") {
		t.Fatalf("breaking = %v, want only the unrecorded removal of Other", breaking)
	}
}
