package lint

import (
	"path/filepath"
	"testing"
)

// runGolden checks one testdata package against its // want expectations,
// running only the named rules so each corpus pins exactly one rule's
// behaviour (plus the always-on suppression machinery).
func runGolden(t *testing.T, rel string, ruleNames ...string) {
	t.Helper()
	var rules []Rule
	for _, r := range Rules() {
		for _, n := range ruleNames {
			if r.Name == n {
				rules = append(rules, r)
			}
		}
	}
	if len(rules) != len(ruleNames) {
		t.Fatalf("unknown rule in %v (registry has %d of them)", ruleNames, len(rules))
	}
	dir := filepath.Join("testdata", "src", filepath.FromSlash(rel))
	problems, err := CheckGolden(dir, rel, rules)
	if err != nil {
		t.Fatalf("golden %s: %v", rel, err)
	}
	for _, p := range problems {
		t.Errorf("golden %s: %s", rel, p)
	}
}

func TestGoldenSeededrand(t *testing.T) {
	runGolden(t, "seededrand", "seededrand")
}

func TestGoldenWalltime(t *testing.T) {
	// aligned is in walltime's deterministic-package scope; clock is the
	// out-of-scope negative where wall-clock reads are fine.
	runGolden(t, "walltime/aligned", "walltime")
	runGolden(t, "walltime/clock", "walltime")
}

func TestGoldenLockdiscipline(t *testing.T) {
	runGolden(t, "lockdiscipline", "lockdiscipline")
}

func TestGoldenErrcrit(t *testing.T) {
	// journal and metrics are in errcrit's crash-safety scope (the registry
	// because a dropped exposition-write error truncates /metrics silently);
	// other is the out-of-scope negative where best-effort closes are
	// tolerated.
	runGolden(t, "errcrit/journal", "errcrit")
	runGolden(t, "errcrit/metrics", "errcrit")
	runGolden(t, "errcrit/other", "errcrit")
	// transport pins the UDP write-path coverage: datagram sends and
	// socket-buffer sizing.
	runGolden(t, "errcrit/transport", "errcrit")
	// traceio and packet pin the PR 8 scope extension: trace capture and
	// packet serialization write paths.
	runGolden(t, "errcrit/traceio", "errcrit")
	runGolden(t, "errcrit/packet", "errcrit")
	// shard pins the scatter/gather tier's scope entry: coordinator scatter
	// writes, report-push closes, and the simulated-crash carve-out.
	runGolden(t, "errcrit/shard", "errcrit")
	// daemon pins the assembly's scope entry: the journal, listener and
	// event-log closes that used to sit outside library scope in cmd/dcsd.
	runGolden(t, "errcrit/daemon", "errcrit")
}

func TestGoldenMaporder(t *testing.T) {
	// center is under the PR 4 determinism contract; other is the
	// out-of-scope negative where unordered map consumption is fine.
	runGolden(t, "maporder/center", "maporder")
	runGolden(t, "maporder/other", "maporder")
}

func TestGoldenGorolifecycle(t *testing.T) {
	// lib is library code where every go statement needs a join/stop path;
	// cmd is the process-lifetime negative.
	runGolden(t, "gorolifecycle/lib", "gorolifecycle")
	runGolden(t, "gorolifecycle/cmd", "gorolifecycle")
}
