// Command hopdb-vet runs the repository's invariant analyzers (see
// internal/analysis) over Go packages:
//
//	hopdb-vet [-list] [packages]
//
// With no package patterns it checks ./... from the current directory.
// Findings print one per line as file:line:col: analyzer: message; the
// exit status is 0 when clean, 1 when there are findings, and 2 when
// loading or analysis itself failed. Suppress a deliberate exception with
//
//	//hopdb:ignore <analyzer> <reason>
//
// on the offending line or alone on the line above it; the reason is
// mandatory.
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/analysis"
)

func main() {
	list := flag.Bool("list", false, "print the analyzer catalog and exit")
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(), "usage: hopdb-vet [-list] [packages]\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	if *list {
		for _, a := range analysis.All {
			fmt.Printf("%s\n    %s\n", a.Name, a.Doc)
		}
		return
	}

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	wd, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(os.Stderr, "hopdb-vet:", err)
		os.Exit(2)
	}
	pkgs, err := analysis.Load(wd, patterns...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "hopdb-vet:", err)
		os.Exit(2)
	}
	diags, err := analysis.Run(pkgs, analysis.All)
	if err != nil {
		fmt.Fprintln(os.Stderr, "hopdb-vet:", err)
		os.Exit(2)
	}
	for _, d := range diags {
		fmt.Println(d)
	}
	if len(diags) > 0 {
		os.Exit(1)
	}
}
