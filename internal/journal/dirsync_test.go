package journal

import (
	"errors"
	"testing"
)

// swapFsyncDir replaces the package fsync hook for the test's duration.
// Journal tests do not run in parallel, so the swap cannot race.
func swapFsyncDir(t *testing.T, fn func(string) error) {
	t.Helper()
	orig := fsyncDir
	fsyncDir = fn
	t.Cleanup(func() { fsyncDir = orig })
}

// TestCrashDirSyncPoints pins the directory-fsync call points: after Open
// (fresh active segment, truncations, sidecar creation), once per retiring
// step that seals a segment or purges one (the new segment's name and the
// deletions together), and after Close removes an empty active segment. Before the fix the journal never fsynced its
// directory at all — file contents were durable but the entries naming them
// were not, so a crash could lose a rotated segment or resurrect a purged
// one. This test fails against that version with 0 recorded syncs.
func TestCrashDirSyncPoints(t *testing.T) {
	dir := t.TempDir()
	realSync := fsyncDir
	var syncs int
	swapFsyncDir(t, func(d string) error {
		if d != dir {
			t.Errorf("dir sync aimed at %s, journal lives in %s", d, dir)
		}
		syncs++
		return realSync(d)
	})

	j, err := Open(dir, Options{SyncEveryAppend: true})
	if err != nil {
		t.Fatal(err)
	}
	if syncs != 1 {
		t.Fatalf("Open performed %d dir syncs, want 1 (covering the fresh active segment)", syncs)
	}

	if err := j.Append(alignedMsg(1, 1)); err != nil {
		t.Fatal(err)
	}
	if got := syncs; got != 1 {
		t.Fatalf("Append alone dir-synced (%d total); only entry mutations need it", got)
	}

	// EpochAnalyzed seals the active segment and immediately purges it —
	// epoch 1 is analyzed: one sync covers the new segment's entry and the
	// deletion.
	if err := j.EpochAnalyzed(1); err != nil {
		t.Fatal(err)
	}
	if syncs != 2 {
		t.Fatalf("EpochAnalyzed brought dir syncs to %d, want 2 (one for rotate and purge)", syncs)
	}

	if got := j.Stats().DirSyncs.Load(); got != int64(syncs) {
		t.Fatalf("Stats reports %d dir syncs, hook saw %d", got, syncs)
	}

	// Close removes the (empty) active segment: one final sync.
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	if syncs != 3 {
		t.Fatalf("Close brought dir syncs to %d, want 3", syncs)
	}

	// Hard reopen: the purge must have stuck — nothing left to replay.
	j2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := j2.Close(); err != nil {
			t.Fatal(err)
		}
	}()
	if got := collectReplay(t, j2); len(got) != 0 {
		t.Fatalf("reopen replayed %d frames from purged epochs, want 0", len(got))
	}
}

// TestCrashDirSyncFailureSurfaces injects fsync failures and checks every
// write-path entry point reports them instead of acknowledging frames whose
// directory entries may not survive a crash.
func TestCrashDirSyncFailureSurfaces(t *testing.T) {
	boom := errors.New("injected dir-sync failure")

	dir := t.TempDir()
	j, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Append(alignedMsg(1, 1)); err != nil {
		t.Fatal(err)
	}

	realSync := fsyncDir
	swapFsyncDir(t, func(string) error { return boom })

	if err := j.EpochAnalyzed(1); !errors.Is(err, boom) {
		t.Fatalf("EpochAnalyzed swallowed the dir-sync failure, returned %v", err)
	}

	// Open of a fresh journal must also refuse to proceed on a failed sync.
	if _, err := Open(t.TempDir(), Options{}); !errors.Is(err, boom) {
		t.Fatalf("Open swallowed the dir-sync failure, returned %v", err)
	}

	fsyncDir = realSync
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
}
