// Package apisurface extracts the exported API of a Go package as a stable,
// human-readable list of declarations. It is the engine behind cmd/apicheck
// and the public-API golden test: the surface of the root scatteradd package
// is dumped to API.txt, and CI fails any change that removes or alters an
// exported symbol without the golden being regenerated.
//
// The dump is source-derived (go/parser, no type checking), which keeps it
// dependency-free and fast; signatures are rendered exactly as written, so
// a rename of a parameter counts as a change (that is deliberate — parameter
// names are documentation).
package apisurface

import (
	"bytes"
	"fmt"
	"go/ast"
	"go/parser"
	"go/printer"
	"go/token"
	"io/fs"
	"regexp"
	"sort"
	"strings"
)

// Decl is one exported declaration of the surface.
type Decl struct {
	Name string // symbol name ("New", "Config", "Machine.Run" for methods)
	Sig  string // rendered one-line declaration
}

// Surface returns the exported API of the Go package in dir (test files
// excluded), sorted by symbol name.
func Surface(dir string) ([]Decl, error) {
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, dir, func(fi fs.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, 0)
	if err != nil {
		return nil, err
	}
	var decls []Decl
	for _, pkg := range pkgs {
		for _, file := range pkg.Files {
			for _, d := range file.Decls {
				decls = append(decls, fromDecl(fset, d)...)
			}
		}
	}
	sort.Slice(decls, func(i, j int) bool {
		if decls[i].Name != decls[j].Name {
			return decls[i].Name < decls[j].Name
		}
		return decls[i].Sig < decls[j].Sig
	})
	return decls, nil
}

// fromDecl extracts the exported symbols of one top-level declaration.
func fromDecl(fset *token.FileSet, d ast.Decl) []Decl {
	switch d := d.(type) {
	case *ast.FuncDecl:
		if !d.Name.IsExported() {
			return nil
		}
		name := d.Name.Name
		if d.Recv != nil && len(d.Recv.List) == 1 {
			recv := typeName(d.Recv.List[0].Type)
			if recv == "" || !ast.IsExported(recv) {
				return nil
			}
			name = recv + "." + name
		}
		fn := *d
		fn.Body = nil
		fn.Doc = nil
		return []Decl{{Name: name, Sig: render(fset, &fn)}}
	case *ast.GenDecl:
		var out []Decl
		for _, spec := range d.Specs {
			switch s := spec.(type) {
			case *ast.TypeSpec:
				if !s.Name.IsExported() {
					continue
				}
				c := *s
				c.Doc, c.Comment = nil, nil
				out = append(out, Decl{Name: s.Name.Name, Sig: "type " + render(fset, &c)})
			case *ast.ValueSpec:
				kw := d.Tok.String() // const or var
				for i, n := range s.Names {
					if !n.IsExported() {
						continue
					}
					sig := kw + " " + n.Name
					if s.Type != nil {
						sig += " " + render(fset, s.Type)
					}
					if i < len(s.Values) {
						sig += " = " + render(fset, s.Values[i])
					}
					out = append(out, Decl{Name: n.Name, Sig: sig})
				}
			}
		}
		return out
	}
	return nil
}

// typeName unwraps a receiver type expression to its base identifier.
func typeName(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.Ident:
		return e.Name
	case *ast.StarExpr:
		return typeName(e.X)
	case *ast.IndexExpr: // generic receiver
		return typeName(e.X)
	case *ast.IndexListExpr:
		return typeName(e.X)
	}
	return ""
}

var wsRE = regexp.MustCompile(`\s+`)

// render prints a node and collapses it to one line.
func render(fset *token.FileSet, n any) string {
	var b bytes.Buffer
	if err := printer.Fprint(&b, fset, n); err != nil {
		return fmt.Sprintf("<unprintable: %v>", err)
	}
	return wsRE.ReplaceAllString(strings.TrimSpace(b.String()), " ")
}

// Removal is a deliberate API break recorded in a golden file as a
// "# removed: NAME (reason)" line. Compare accepts the removal of a recorded
// symbol; the removal of any other symbol stays a breaking change.
type Removal struct {
	Name, Reason string
}

const removedPrefix = "# removed: "

// Format renders a surface as the canonical golden-file text: the recorded
// removals, then one "name :: signature" line per declaration.
func Format(decls []Decl, removed ...Removal) string {
	var b strings.Builder
	b.WriteString("# Exported API surface. Regenerate with: go run ./cmd/apicheck -golden API.txt -write\n")
	for _, r := range removed {
		fmt.Fprintf(&b, "%s%s (%s)\n", removedPrefix, r.Name, r.Reason)
	}
	for _, d := range decls {
		fmt.Fprintf(&b, "%s :: %s\n", d.Name, d.Sig)
	}
	return b.String()
}

// Parse reads a golden-file text back into a surface. Unparseable lines are
// skipped (comments, blanks).
func Parse(text string) []Decl {
	var decls []Decl
	for _, line := range strings.Split(text, "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		name, sig, ok := strings.Cut(line, " :: ")
		if !ok {
			continue
		}
		decls = append(decls, Decl{Name: name, Sig: sig})
	}
	return decls
}

// ParseRemovals reads the "# removed: NAME (reason)" records of a
// golden-file text, in file order.
func ParseRemovals(text string) []Removal {
	var out []Removal
	for _, line := range strings.Split(text, "\n") {
		rest, ok := strings.CutPrefix(strings.TrimSpace(line), removedPrefix)
		if !ok {
			continue
		}
		name, reason, _ := strings.Cut(rest, " ")
		reason = strings.TrimSuffix(strings.TrimPrefix(reason, "("), ")")
		out = append(out, Removal{Name: name, Reason: reason})
	}
	return out
}

// Compare diffs a new surface against an old one under API-compatibility
// rules: removals and signature changes are breaking, additions are fine,
// and so is the removal of a symbol listed in removed. It returns the
// breaking findings (empty = compatible) and the additions.
func Compare(old, new []Decl, removed ...Removal) (breaking, additions []string) {
	oldBy := map[string]string{}
	for _, d := range old {
		oldBy[d.Name] = d.Sig
	}
	newBy := map[string]string{}
	for _, d := range new {
		newBy[d.Name] = d.Sig
		if oldSig, ok := oldBy[d.Name]; !ok {
			additions = append(additions, fmt.Sprintf("added: %s :: %s", d.Name, d.Sig))
		} else if oldSig != d.Sig {
			breaking = append(breaking, fmt.Sprintf("changed: %s\n  old: %s\n  new: %s", d.Name, oldSig, d.Sig))
		}
	}
	recorded := map[string]bool{}
	for _, r := range removed {
		recorded[r.Name] = true
	}
	for _, d := range old {
		if _, ok := newBy[d.Name]; !ok && !recorded[d.Name] {
			breaking = append(breaking, fmt.Sprintf("removed: %s :: %s", d.Name, d.Sig))
		}
	}
	sort.Strings(breaking)
	sort.Strings(additions)
	return breaking, additions
}
