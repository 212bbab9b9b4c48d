// Command dcslint runs the project's invariant checks (internal/lint) over
// the whole module: seed-reproducibility (seededrand, walltime), lock
// discipline on the annotated concurrent structs (lockdiscipline),
// crash-safety error handling on the write paths (errcrit), order-independent
// results from map iteration (maporder) and a join or stop path for every
// library goroutine (gorolifecycle). It prints findings in the standard
// file:line:col format and exits 1 when any unsuppressed finding remains, so
// `make lint` and CI fail the build on a violated invariant.
//
// Usage:
//
//	dcslint [-C dir] [-show-suppressed] [-list] [packages]
//
// Package arguments are accepted for muscle-memory compatibility ("./...")
// but the tool always analyzes the whole module containing -C (default: the
// current directory): the invariants are module-global, and partial runs
// would let a violation hide in an unlisted package.
package main

import (
	"flag"
	"fmt"
	"os"

	"dcstream/internal/lint"
)

func main() {
	var (
		chdir          = flag.String("C", ".", "analyze the module containing this directory")
		showSuppressed = flag.Bool("show-suppressed", false, "also print suppressed findings with their reasons")
		list           = flag.Bool("list", false, "list the registered rules and exit")
	)
	flag.Parse()

	if *list {
		for _, r := range lint.Rules() {
			fmt.Printf("%-16s %s\n", r.Name, r.Doc)
		}
		return
	}

	root, err := lint.FindModuleRoot(*chdir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "dcslint:", err)
		os.Exit(2)
	}
	pkgs, err := lint.LoadModule(root)
	if err != nil {
		fmt.Fprintln(os.Stderr, "dcslint:", err)
		os.Exit(2)
	}

	rules := lint.Rules()
	failed := false
	for _, pkg := range pkgs {
		for _, f := range lint.RunRules(pkg, rules) {
			switch {
			case !f.Suppressed:
				failed = true
				fmt.Println(f)
			case *showSuppressed:
				fmt.Printf("%s [suppressed: %s]\n", f, f.SuppressReason)
			}
		}
	}
	if failed {
		os.Exit(1)
	}
}
