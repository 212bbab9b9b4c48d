package lint

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestModuleIsClean runs every dcslint rule over the real dcstream module and
// asserts zero unsuppressed findings — the same bar `make lint` enforces, so
// a rule change that trips on the tree fails here first.
func TestModuleIsClean(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module from source; skipped in -short")
	}
	root, err := FindModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := LoadModule(root)
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) == 0 {
		t.Fatal("LoadModule returned no packages")
	}
	total := 0
	for _, pkg := range pkgs {
		findings := RunRules(pkg, Rules())
		for _, f := range Unsuppressed(findings) {
			t.Errorf("unsuppressed finding: %s", f)
		}
		total += len(findings)
	}
	t.Logf("checked %d packages, %d findings total (all suppressed)", len(pkgs), total)
}

// dcsBinaries are the entry points shipped from cmd/. The selftest pins them
// by name so "the whole module is lint-clean" provably includes the binaries:
// a loader regression that silently dropped cmd/ would otherwise keep this
// suite green while `make lint` stopped seeing a sixth of the tree.
var dcsBinaries = []string{"dcsbench", "dcsd", "dcslint", "dcsnode", "dcsreplay", "dcstrace"}

// TestLoadModuleCoversWholeModule asserts LoadModule returns exactly the
// package set a directory walk of the module finds — every cmd/ binary by
// name, and no directory with non-test Go files missing. This is the
// machine-checked form of "dcslint lints everything it claims to".
func TestLoadModuleCoversWholeModule(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module from source; skipped in -short")
	}
	root, err := FindModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := LoadModule(root)
	if err != nil {
		t.Fatal(err)
	}
	loaded := make(map[string]bool, len(pkgs))
	for _, pkg := range pkgs {
		loaded[pkg.Path] = true
	}
	for _, bin := range dcsBinaries {
		if !loaded["dcstream/cmd/"+bin] {
			t.Errorf("LoadModule dropped cmd/%s; the binary is not being linted", bin)
		}
	}
	// Independent ground truth: every directory under the module with at
	// least one non-test .go file (minus the loader's documented exclusions)
	// must appear in the load.
	err = filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if path != root && (name == "testdata" || name == "vendor" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		ents, err := os.ReadDir(path)
		if err != nil {
			return err
		}
		hasGo := false
		for _, e := range ents {
			if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") && !strings.HasSuffix(e.Name(), "_test.go") {
				hasGo = true
				break
			}
		}
		if !hasGo {
			return nil
		}
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		want := "dcstream"
		if rel != "." {
			want = "dcstream/" + filepath.ToSlash(rel)
		}
		if !loaded[want] {
			t.Errorf("LoadModule dropped %s (%s has non-test Go files)", want, path)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("LoadModule covers all %d packages incl. %d cmd binaries", len(pkgs), len(dcsBinaries))
}

// incrementalStateFiles are the files holding the ingest-time analysis state
// added for the streaming/incremental path. Their correctness contract is
// determinism (incremental must reproduce batch bit-for-bit), so each must
// be (a) actually loaded by the linter and (b) inside the scope of the
// determinism rules — walltime for the accumulator packages, maporder for
// everything, lockdiscipline via the center's guarded-by annotations.
var incrementalStateFiles = map[string][]string{
	"dcstream/internal/aligned":   {"accumulator.go", "matrix.go"},
	"dcstream/internal/unaligned": {"tracker.go"},
	"dcstream/internal/center":    {"streaming.go"},
}

// shardCriticalFiles are the scatter/gather tier's write-path files. The
// coordinator's scatter sends and the nodes' report pushes are exactly the
// writes whose dropped errors turn routed digests into silently missing ones,
// so internal/shard and internal/daemon — the assembly that owns the push,
// the journal and the listeners, and the in-process Cluster — must stay
// inside the errcrit scope and inside the lint load. This test fails on a
// scope-list edit or package rename that would drop either out.
var shardCriticalFiles = map[string][]string{
	"dcstream/internal/shard":  {"coordinator.go", "report.go"},
	"dcstream/internal/daemon": {"node.go", "run.go", "cluster.go", "events.go"},
}

// TestErrcritCoversShardTier pins the shard and daemon packages into the
// errcrit scope.
func TestErrcritCoversShardTier(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module from source; skipped in -short")
	}
	for _, seg := range []string{"shard", "daemon"} {
		if !segmentIn(seg, errcritPkgs) {
			t.Errorf("errcrit scope lost %q; dropped scatter, report-push and journal-close errors would go unlinted", seg)
		}
	}
	root, err := FindModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := LoadModule(root)
	if err != nil {
		t.Fatal(err)
	}
	remaining := map[string][]string{}
	for k, v := range shardCriticalFiles {
		remaining[k] = v
	}
	for _, pkg := range pkgs {
		want := remaining[pkg.Path]
		if want == nil {
			continue
		}
		have := map[string]bool{}
		for _, f := range pkg.Files {
			have[filepath.Base(pkg.Fset.File(f.Pos()).Name())] = true
		}
		for _, name := range want {
			if !have[name] {
				t.Errorf("%s: %s not in the lint load; the shard write path is not being linted", pkg.Path, name)
			}
		}
		delete(remaining, pkg.Path)
	}
	for path := range remaining {
		t.Errorf("package %s not loaded at all", path)
	}
}

// TestDeterminismRulesCoverIncrementalState pins the accumulator files into
// the dcslint scope: a rename, a package split, or a scope-list edit that
// silently dropped the incremental state out of the determinism rules would
// fail here, not in a later debugging session.
func TestDeterminismRulesCoverIncrementalState(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module from source; skipped in -short")
	}
	for path := range incrementalStateFiles {
		seg := path[strings.LastIndex(path, "/")+1:]
		if !segmentIn(seg, maporderPkgs) {
			t.Errorf("maporder scope lost %q; incremental state in %s is no longer order-checked", seg, path)
		}
		if seg != "center" && !segmentIn(seg, deterministicPkgs) {
			t.Errorf("walltime scope lost %q; accumulators in %s may silently read the clock", seg, path)
		}
	}

	root, err := FindModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := LoadModule(root)
	if err != nil {
		t.Fatal(err)
	}
	for _, pkg := range pkgs {
		want := incrementalStateFiles[pkg.Path]
		if want == nil {
			continue
		}
		have := map[string]bool{}
		for _, f := range pkg.Files {
			have[filepath.Base(pkg.Fset.File(f.Pos()).Name())] = true
		}
		for _, name := range want {
			if !have[name] {
				t.Errorf("%s: %s not in the lint load; the incremental state is not being linted", pkg.Path, name)
			}
		}
		delete(incrementalStateFiles, pkg.Path)
	}
	for path := range incrementalStateFiles {
		t.Errorf("package %s not loaded at all", path)
	}
}

func segmentIn(seg string, list []string) bool {
	for _, s := range list {
		if s == seg {
			return true
		}
	}
	return false
}
