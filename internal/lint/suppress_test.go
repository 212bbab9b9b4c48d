package lint

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// suppressionSource exercises every branch of the //dcslint:ignore machinery:
// a used suppression, a reasonless one, a multi-rule list, a stale comment,
// and one naming an unknown rule. (Golden files cannot host the reasonless
// case — its bare comment would swallow a trailing // want pattern as the
// "reason" — so the mechanics get this dedicated unit test.)
const suppressionSource = `package supp

import "math/rand"

func used() int {
	return rand.Intn(10) //dcslint:ignore seededrand fixed fanout for the demo
}

func noReason() int {
	//dcslint:ignore seededrand
	return rand.Intn(10)
}

func multi() int {
	return rand.Intn(3) //dcslint:ignore seededrand,walltime one comment, two rules
}

//dcslint:ignore seededrand nothing on the next line violates anything
func clean() int { return 4 }

func typo() int {
	return rand.Intn(2) //dcslint:ignore nosuchrule the rule name is misspelt
}
`

func TestSuppressionMechanics(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "a.go"), []byte(suppressionSource), 0o644); err != nil {
		t.Fatal(err)
	}
	pkg, err := LoadDir(dir, "supp")
	if err != nil {
		t.Fatal(err)
	}
	findings := RunRules(pkg, Rules())

	type check struct {
		name string
		ok   func(Finding) bool
	}
	checks := []check{
		{"used suppression silences the finding and records its reason", func(f Finding) bool {
			return f.Rule == "seededrand" && f.Suppressed && f.SuppressReason == "fixed fanout for the demo"
		}},
		{"reasonless comment yields a dcslint meta-finding", func(f Finding) bool {
			return f.Rule == "dcslint" && strings.Contains(f.Message, "without a reason")
		}},
		{"reasonless comment suppresses nothing: its rand.Intn stays unsuppressed", func(f Finding) bool {
			return f.Rule == "seededrand" && !f.Suppressed && f.Pos.Line == 11
		}},
		{"multi-rule list covers the finding", func(f Finding) bool {
			return f.Rule == "seededrand" && f.Suppressed && f.SuppressReason == "one comment, two rules"
		}},
		{"stale suppression is itself a finding", func(f Finding) bool {
			return f.Rule == "dcslint" && strings.Contains(f.Message, "stale suppression")
		}},
		{"unknown rule name is itself a finding", func(f Finding) bool {
			return f.Rule == "dcslint" && strings.Contains(f.Message, `unknown rule "nosuchrule"`)
		}},
		{"misspelt suppression covers nothing: its rand.Intn stays unsuppressed", func(f Finding) bool {
			return f.Rule == "seededrand" && !f.Suppressed && f.Pos.Line == 22
		}},
	}
	for _, c := range checks {
		found := false
		for _, f := range findings {
			if c.ok(f) {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("missing expected finding: %s", c.name)
			for _, f := range findings {
				t.Logf("  have: %s (suppressed=%v reason=%q)", f, f.Suppressed, f.SuppressReason)
			}
		}
	}

	// dcslint meta-findings about the suppression machinery are not
	// themselves suppressible.
	for _, f := range findings {
		if f.Rule == "dcslint" && f.Suppressed {
			t.Errorf("meta-finding was suppressed: %s", f)
		}
	}
}

// closeBefore is a write-path file whose discarded Close error is excused by
// a suppression; closeAfter is the same file after the fix lands (the error
// is returned) with the suppression left behind. The lifecycle contract: the
// moment the fix makes the suppression unnecessary, the leftover comment must
// flip from "used" to a stale-suppression finding — suppressions cannot
// quietly outlive the code they excused.
const closeBefore = `package transport

import "net"

func teardown(conn net.Conn) error {
	//dcslint:ignore errcrit read-side teardown; nothing was written to this connection
	conn.Close()
	return nil
}
`

const closeAfter = `package transport

import "net"

func teardown(conn net.Conn) error {
	//dcslint:ignore errcrit read-side teardown; nothing was written to this connection
	return conn.Close()
}
`

func TestSuppressionGoesStaleWhenSanitizerAdded(t *testing.T) {
	load := func(src string) []Finding {
		t.Helper()
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, "a.go"), []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
		// The "transport" segment puts the package in errcrit's scope, as in
		// the real module.
		pkg, err := LoadDir(dir, "supp/transport")
		if err != nil {
			t.Fatal(err)
		}
		return RunRules(pkg, Rules())
	}

	before := load(closeBefore)
	usedSuppression, staleBefore := false, false
	for _, f := range before {
		if f.Rule == "errcrit" && f.Suppressed && f.SuppressReason == "read-side teardown; nothing was written to this connection" {
			usedSuppression = true
		}
		if f.Rule == "dcslint" && strings.Contains(f.Message, "stale suppression") {
			staleBefore = true
		}
	}
	if !usedSuppression {
		t.Errorf("before the fix: expected a suppressed errcrit finding, got %v", before)
	}
	if staleBefore {
		t.Errorf("before the fix: suppression wrongly reported stale: %v", before)
	}

	after := load(closeAfter)
	var errcritAfter, staleAfter []Finding
	for _, f := range after {
		if f.Rule == "errcrit" {
			errcritAfter = append(errcritAfter, f)
		}
		if f.Rule == "dcslint" && strings.Contains(f.Message, "stale suppression") {
			staleAfter = append(staleAfter, f)
		}
	}
	if len(errcritAfter) != 0 {
		t.Errorf("after the fix: a returned Close error is not discarded, got %v", errcritAfter)
	}
	if len(staleAfter) != 1 {
		t.Errorf("after the fix: want exactly one stale-suppression finding, got %v", after)
	}
	// And the stale finding must fail the build: stale comments are not
	// suppressible noise.
	if len(staleAfter) == 1 && staleAfter[0].Suppressed {
		t.Errorf("stale-suppression finding was itself suppressed: %s", staleAfter[0])
	}
}
