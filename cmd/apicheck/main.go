// Command apicheck guards the public API of the root scatteradd package.
//
// Usage:
//
//	apicheck [-pkg DIR] -golden API.txt [-write]
//	apicheck [-pkg DIR] [-golden API.txt] -against OTHER.txt
//
// With -golden, the current exported surface is compared to the golden
// file: any mismatch (removal, change, or an addition not yet recorded)
// fails, keeping the checked-in API.txt an exact inventory. -write
// regenerates the golden instead, keeping its "# removed:" records.
//
// With -against, the comparison is API-compatibility: removals and
// signature changes of symbols present in OTHER.txt fail; additions are
// allowed. A deliberate break is recorded in the -golden file as a line
//
//	# removed: NAME (reason)
//
// and the removal of NAME is then accepted; any other removal still fails.
// CI uses this to diff a branch against the main branch's API.txt.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"scatteradd/internal/apisurface"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the command body: it returns the process exit status.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("apicheck", flag.ContinueOnError)
	fs.SetOutput(stderr)
	pkg := fs.String("pkg", ".", "package directory to extract the surface from")
	golden := fs.String("golden", "", "golden surface file to compare against exactly (with -against: the source of recorded removals)")
	write := fs.Bool("write", false, "regenerate the -golden file instead of comparing")
	against := fs.String("against", "", "older surface file to check compatibility against (additions allowed)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintf(stderr, "apicheck: %v\n", err)
		return 1
	}

	decls, err := apisurface.Surface(*pkg)
	if err != nil {
		return fail(err)
	}
	var goldenText string
	if *golden != "" {
		data, err := os.ReadFile(*golden)
		if err != nil && !(*write && os.IsNotExist(err)) {
			return fail(fmt.Errorf("%v (run with -write to create it)", err))
		}
		goldenText = string(data)
	}
	removed := apisurface.ParseRemovals(goldenText)

	switch {
	case *golden != "" && *write:
		if err := os.WriteFile(*golden, []byte(apisurface.Format(decls, removed...)), 0o644); err != nil {
			return fail(err)
		}
		fmt.Fprintf(stdout, "apicheck: wrote %d symbols and %d removal records to %s\n", len(decls), len(removed), *golden)
	case *against != "":
		data, err := os.ReadFile(*against)
		if err != nil {
			return fail(err)
		}
		old := apisurface.Parse(string(data))
		breaking, additions := apisurface.Compare(old, decls, removed...)
		for _, m := range additions {
			fmt.Fprintln(stdout, m) // informational
		}
		if len(breaking) > 0 {
			for _, m := range breaking {
				fmt.Fprintln(stderr, m)
			}
			fmt.Fprintf(stderr, "apicheck: %d breaking API change(s) vs %s (record deliberate removals as \"# removed: NAME (reason)\" in the -golden file)\n",
				len(breaking), *against)
			return 1
		}
		fmt.Fprintf(stdout, "apicheck: compatible with %s (%d additions, %d recorded removals)\n", *against, len(additions), len(removed))
	case *golden != "":
		breaking, additions := apisurface.Compare(apisurface.Parse(goldenText), decls)
		msgs := append(breaking, additions...)
		for _, r := range removed {
			if exported(decls, r.Name) {
				msgs = append(msgs, fmt.Sprintf("recorded as removed but still exported: %s", r.Name))
			}
		}
		if len(msgs) > 0 {
			fmt.Fprintln(stderr, strings.Join(msgs, "\n"))
			fmt.Fprintf(stderr, "apicheck: surface differs from %s in %d places (regenerate with -write if intended)\n",
				*golden, len(msgs))
			return 1
		}
		fmt.Fprintf(stdout, "apicheck: %d symbols match %s\n", len(decls), *golden)
	default:
		fmt.Fprint(stdout, apisurface.Format(decls))
	}
	return 0
}

// exported reports whether the surface declares name.
func exported(decls []apisurface.Decl, name string) bool {
	for _, d := range decls {
		if d.Name == name {
			return true
		}
	}
	return false
}
