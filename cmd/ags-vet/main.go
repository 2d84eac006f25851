// Command ags-vet runs the repo-specific static checks in internal/lint over
// every package in the module: maprange, nondetsource, hotalloc and
// goroutine-site (see that package's documentation for what each enforces
// and the //ags:hotpath / //ags:allow directives that drive them).
//
// Usage:
//
//	ags-vet [./...]
//
// There are no options: every check always runs, and findings print one per
// line as file:line:col: [check] message. The package pattern is accepted for
// familiarity but the tool always analyzes the whole module containing the
// working directory — the checks are module-wide contracts, not per-package
// style rules.
//
// Exit status: 0 when the tree is clean, 1 when findings were reported,
// 2 when the module failed to load or type-check.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"ags/internal/lint"
)

func main() {
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(), "usage: ags-vet [./...]\n")
	}
	flag.Parse()

	root, err := moduleRoot()
	if err != nil {
		fmt.Fprintln(os.Stderr, "ags-vet:", err)
		os.Exit(2)
	}
	findings, err := lint.Run(lint.Config{Dir: root})
	if err != nil {
		fmt.Fprintln(os.Stderr, "ags-vet:", err)
		os.Exit(2)
	}
	for _, f := range findings {
		fmt.Println(f)
	}
	if len(findings) > 0 {
		fmt.Fprintf(os.Stderr, "ags-vet: %d finding(s)\n", len(findings))
		os.Exit(1)
	}
}

// moduleRoot walks upward from the working directory to the nearest go.mod.
// Package-pattern arguments (./...) are tolerated but do not narrow the
// analysis; anything else is rejected to avoid pretending to support it.
func moduleRoot() (string, error) {
	for _, arg := range flag.Args() {
		if arg != "./..." && arg != "." && arg != "all" {
			return "", fmt.Errorf("unsupported package pattern %q (ags-vet always analyzes the enclosing module; run with ./... or no argument)", arg)
		}
	}
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no go.mod found above %s", dir)
		}
		dir = parent
	}
}
