// Command ashlint runs the ashlint analyzer suite (internal/lint) over
// the module: determinism, obsguard, allocdiscipline, bufdiscipline.
//
//	go run ./cmd/ashlint ./...          # whole module
//	go run ./cmd/ashlint internal/sim   # one package (module-relative)
//	go run ./cmd/ashlint -list          # describe the analyzers
//
// Packages are loaded with internal/lint's own loader. Exit status: 0
// clean, 1 findings or failure.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"ashs/internal/lint"
)

func main() { os.Exit(run(os.Args[1:])) }

// active returns the analyzers whose scope covers importPath.
func active(importPath string) []*lint.Analyzer {
	var out []*lint.Analyzer
	for _, a := range lint.All {
		if a.Scope == nil || a.Scope(importPath) {
			out = append(out, a)
		}
	}
	return out
}

func run(args []string) int {
	fs := flag.NewFlagSet("ashlint", flag.ExitOnError)
	list := fs.Bool("list", false, "describe the analyzers and exit")
	fs.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: ashlint [-list] [module-relative packages, e.g. ./... or internal/sim]\n")
		fs.PrintDefaults()
	}
	fs.Parse(args)
	if *list {
		for _, a := range lint.All {
			fmt.Printf("ashlint/%s\n\t%s\n", a.Name, a.Doc)
		}
		return 0
	}

	wd, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(os.Stderr, "ashlint:", err)
		return 1
	}
	root, err := lint.FindModRoot(wd)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	loader, err := lint.NewLoader(root)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	pkgs, err := loader.LoadAll(fs.Args())
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}

	exit := 0
	for _, pkg := range pkgs {
		diags, err := lint.Run(pkg, active(pkg.Path))
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		for _, d := range diags {
			pos := pkg.Fset.Position(d.Pos)
			name := pos.Filename
			if rel, err := filepath.Rel(root, name); err == nil && !strings.HasPrefix(rel, "..") {
				name = rel
			}
			fmt.Printf("%s:%d:%d: ashlint/%s: %s\n", name, pos.Line, pos.Column, d.Analyzer, d.Message)
			exit = 1
		}
	}
	return exit
}
