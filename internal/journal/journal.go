// Package journal gives the analysis center a crash-safe ingest path: an
// append-only write-ahead log of every digest frame the center accepts, so a
// dcsd that dies between ingest and analysis (panic, OOM, kill -9) can replay
// the surviving frames through Center.Ingest on restart instead of silently
// discarding every buffered epoch. ReconnectingClient's bounded resend buffer
// cannot re-supply those windows — once a frame was written in full the
// collector considers it delivered — so durability has to live on the center
// side.
//
// The on-disk format reuses the transport wire encoding verbatim: a segment
// file (seg-NNNNNNNN.dcsj) is a concatenation of CRC-32C framed digest
// messages, exactly the bytes a collector put on the wire. Opening a journal
// scans every segment and truncates the torn tail a crash mid-append leaves
// behind (the CRC and length checks of the frame decoder decide where the
// valid prefix ends).
//
// A small ANALYZED sidecar holds the books: the center's watermark (the start
// of the newest reported span; the center has closed every epoch at or below
// it) and a mark per retired epoch above it (shed or evicted), pruned as the
// watermark rises — bounded by how far the center runs ahead of its oldest open
// span, not by uptime. Replay skips every frame of a retired epoch, a straggler
// the center counted late included. Retiring is one durable step per call: the
// marks in one write(2) and one fsync of the sidecar, then the active segment
// sealed if it holds epochs and the next one opened, every sealed segment whose
// epochs are all retired deleted, and one directory sync for both. The sidecar
// still gains a line per report (ROADMAP: compaction).
//
// Durability is a group commit: Append is one write(2) per call with no
// fsync — daemon.Node calls it once per UDP datagram or TCP frame, so a
// process crash loses nothing of a datagram or frame whose handler returned —
// and Sync makes every frame appended since the last one durable at once. The
// owner places that barrier — daemon.Node syncs before a report reaches any
// sink and once per window tick — so a burst of N digests costs one fsync and
// what an OS crash can take is set by the barrier's contract. A segment is
// never closed with unsynced frames.
//
// Disk faults do not kill the journal: an append, rotate, or fsync failure
// (ENOSPC, EIO) flips it to a Degraded state that absorbs the failure —
// appends are suspended and counted in UnjournaledFrames instead of written,
// so the ingest path keeps serving while crash durability is honestly
// suspended — and re-arming is retried on a capped exponential backoff. A
// failed Sync counts every frame written since the last good one.
// Mid-segment corruption found at recovery quarantines the damaged segment
// into a quarantine/ subdirectory and rescues every frame that still decodes
// on both sides of the corrupt gap, instead of losing everything after the
// torn point. All filesystem access goes through the FS interface so
// faultinject.FS can schedule these failures deterministically in tests.
//
// Duplicates are expected and harmless: a frame can be both delivered and
// journaled twice (collector resend after a reconnect) or replayed into a
// center that already holds it; the center replaces a stored digest with its
// resend, which absorbs them and is what makes the at-least-once journal safe.
package journal

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"maps"
	"math"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"dcstream/internal/metrics"
	"dcstream/internal/transport"
)

const (
	segPrefix = "seg-"
	segSuffix = ".dcsj"
	// analyzedName is the sidecar holding the books, one mark per line:
	// "through <epoch>" raises the watermark, a bare "<epoch>" retires that
	// epoch alone, and "span <epoch>" records that the span ending at that
	// epoch was reported while the epoch stays buffered as context — later
	// spans still need its frames, but it must not be reported again. Only
	// newline-terminated lines count: a crash mid-mark leaves at most a torn
	// last line, which means a report is repeated, never that one is lost.
	analyzedName = "ANALYZED"
	// quarantineDir is the subdirectory that receives segments with
	// mid-segment corruption: they are moved aside for forensics, replayed
	// with resynchronization, and never purged automatically.
	quarantineDir = "quarantine"
)

// ErrClosed reports an operation on a closed journal.
var ErrClosed = errors.New("journal: closed")

// ErrDegraded reports an Append absorbed by degraded mode: the digest was NOT
// journaled (it is counted in UnjournaledFrames) because a disk fault has
// suspended appends. Ingest should proceed — the in-memory window still gets
// the digest — but its crash durability is gone until the journal re-arms.
var ErrDegraded = errors.New("journal: degraded, append suspended")

// Options tunes a journal. The zero value is usable.
type Options struct {
	// SyncEveryAppend runs the Sync barrier inside every Append: one fsync
	// per digest, on the receive path — the whole of a 256-router burst's
	// report lag when it was dcsd's default. Nothing in the daemon sets it;
	// it survives for bench/replica.go alone and goes with the replica
	// (ROADMAP item 1). Callers batch with Sync instead.
	SyncEveryAppend bool
	// RetryInterval is the base backoff between re-arm attempts after the
	// journal degrades; each failed attempt doubles the wait, capped at
	// 64x the base. Zero means 1 second.
	RetryInterval time.Duration
	// FS is the filesystem the journal runs on; nil means the real one.
	// Tests wrap it with faultinject.FS to schedule ENOSPC/EIO/short-write
	// faults deterministically.
	FS FS
}

func (o Options) withDefaults() Options {
	if o.RetryInterval == 0 {
		o.RetryInterval = time.Second
	}
	if o.FS == nil {
		o.FS = OSFS{}
	}
	return o
}

// Stats are the journal's lifetime counters. Each field is the instrument
// RegisterMetrics exports, read live with Load: the zero value is ready, and
// a Stats must not be copied after first use.
type Stats struct {
	// FramesAppended counts frames written to the active segment. Fault free,
	// it and UnjournaledFrames sum to the frames handed to Append (bench's
	// ledger checks that); a frame written whose Sync then failed is in both.
	FramesAppended metrics.Counter
	// FramesReplayed and FramesSkipped count Replay outcomes: fed to the
	// callback vs dropped because their epoch was retired.
	FramesReplayed, FramesSkipped metrics.Counter
	// TailsTruncated counts segments whose torn or corrupt tail was cut
	// back to the last well-formed frame at Open.
	TailsTruncated metrics.Counter
	// SegmentsPurged counts sealed segments deleted because every epoch
	// they contained had been retired.
	SegmentsPurged metrics.Counter
	// DirSyncs counts fsyncs of the journal directory itself — one after
	// every batch of segment create/delete operations and after the
	// ANALYZED sidecar is first created, so directory entries are as
	// durable as the file contents they point at.
	DirSyncs metrics.Counter
	// UnjournaledFrames counts digests that passed through ingest while the
	// journal could not durably record them: every frame of the append that
	// triggered a degradation or was absorbed while degraded, each frame the
	// encoder rejected, and every frame written since the last good Sync when
	// a Sync fails. This is the replay-honesty ledger — after a crash, at
	// most this many frames are missing from the replayed state, and the
	// operator knows it.
	UnjournaledFrames metrics.Counter
	// RearmAttempts and Rearms count degraded-mode recovery tries and
	// successes.
	RearmAttempts, Rearms metrics.Counter
	// SegmentsQuarantined counts segments moved to quarantine/ because
	// corruption was found mid-segment (decodable frames existed beyond the
	// corrupt gap) rather than at the tail.
	SegmentsQuarantined metrics.Counter
	// FramesRescued counts frames recovered from beyond a corrupt gap by
	// the resynchronizing scan of a quarantined segment.
	FramesRescued metrics.Counter
	// UnsyncedFrames is how many appended frames the next Sync will make
	// durable: the current exposure to an OS crash.
	UnsyncedFrames metrics.Gauge
	// Degraded is 1 while appends are suspended, else 0 (Journal.Degraded).
	Degraded metrics.Gauge
}

// fsyncDir makes a batch of directory-entry mutations (segment creates and
// deletes, the ANALYZED sidecar's creation) durable: fsyncing a file
// persists its contents, not the directory entry naming it, so without this
// a crash can resurrect purged segments — re-replaying analyzed epochs — or
// lose a freshly rotated segment entirely, however often its contents are synced. A
// package variable so crash-simulation tests can observe and fail it; it is
// the OSFS implementation of FS.SyncDir.
var fsyncDir = func(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

// segment is one sealed (no longer written) on-disk segment.
type segment struct {
	seq    int
	path   string
	epochs map[int]bool
	// quarantined marks a segment living under quarantine/: it carried
	// mid-segment corruption, is replayed with resynchronization, and its
	// file is never auto-deleted (forensics beat disk hygiene for a
	// corruption artifact — operators clean quarantine/ by hand).
	quarantined bool
}

// Journal is an append-only digest log. All methods are safe for concurrent
// use; Append is called from the transport server's per-connection handler
// goroutines.
type Journal struct {
	dir string
	opt Options
	fs  FS

	mu           sync.Mutex
	active       File         // guarded by mu; nil while degraded with a broken segment
	activeSeq    int          // guarded by mu
	activeEpochs map[int]bool // guarded by mu
	// activeOffset is the byte offset of the last well-formed frame boundary
	// in the active segment — only bytes of fully written frames count, so a
	// failed append can reconcile the on-disk file back to this offset
	// instead of leaving a torn frame (or worse, assuming the write
	// happened and desynchronizing every frame after it).
	activeOffset int64     // guarded by mu
	frame        []byte    // guarded by mu; Append's encode buffer, reused so a call is one write(2)
	sealed       []segment // guarded by mu
	// The books: every epoch at or below through is retired, and so is each
	// in analyzed, all above it; span is the newest span reported with its
	// epoch kept as context. math.MinInt stands for none yet.
	through   int          // guarded by mu
	analyzed  map[int]bool // guarded by mu
	span      int          // guarded by mu
	analyzedF File         // guarded by mu
	closed    bool         // guarded by mu

	// degradedCause is the first or latest fault while degraded, nil while
	// healthy. guarded by mu
	degradedCause error
	nextRetry     time.Time     // guarded by mu; earliest next re-arm attempt
	retryWait     time.Duration // guarded by mu; current backoff step

	// stats, fsync and syncFrames are atomic; they are read by scrapes and
	// RegisterMetrics gauges without taking mu.
	stats      Stats
	fsync      metrics.Histogram
	syncFrames metrics.Histogram // frames one active-segment fsync made durable
}

// Open opens (creating if needed) the journal in dir. Existing segments are
// scanned: torn tails are truncated, and segments with decodable frames
// beyond a corrupt gap are quarantined (moved under quarantine/ and replayed
// with resynchronization). Frames surviving either scan are available to
// Replay. A fresh segment is started for subsequent Appends, so recovery
// never appends into a file it also replays from.
func Open(dir string, opt Options) (*Journal, error) {
	opt = opt.withDefaults()
	j := &Journal{
		dir:          dir,
		opt:          opt,
		fs:           opt.FS,
		activeEpochs: make(map[int]bool),
		through:      math.MinInt,
		analyzed:     make(map[int]bool),
		span:         math.MinInt,
	}
	j.syncFrames.SetBuckets([]float64{1, 4, 16, 64, 256, 1024, 4096}) // frames per fsync
	if err := j.fs.MkdirAll(dir); err != nil {
		return nil, fmt.Errorf("journal: %w", err)
	}
	// The journal is not shared yet, but the load helpers touch guarded
	// fields, so take the (uncontended) lock for construction and keep the
	// lock discipline mechanically checkable.
	j.mu.Lock()
	defer j.mu.Unlock()
	if err := j.loadAnalyzedLocked(); err != nil {
		return nil, err
	}
	if err := j.loadSegmentsLocked(); err != nil {
		return nil, err
	}
	last := 0
	for _, s := range j.sealed {
		if s.seq > last {
			last = s.seq
		}
	}
	j.activeSeq = last + 1
	f, err := j.fs.OpenAppend(j.segPath(j.activeSeq))
	if err != nil {
		return nil, fmt.Errorf("journal: open active segment: %w", err)
	}
	j.active = f
	j.activeOffset = 0
	// One directory sync covers everything Open mutated: the ANALYZED
	// sidecar's creation, torn-tail truncations, frameless-segment removals,
	// quarantine moves, and the fresh active segment's entry. Without it a
	// crash right after Open can lose the active segment's name — every
	// synced append after that would be appending to an unreachable inode.
	if err := j.syncDirLocked(); err != nil {
		return nil, err
	}
	return j, nil
}

// syncDirLocked fsyncs the journal directory and counts it. Caller holds
// j.mu (or is constructing the journal).
func (j *Journal) syncDirLocked() error {
	if err := j.fs.SyncDir(j.dir); err != nil {
		return fmt.Errorf("journal: sync dir %s: %w", j.dir, err)
	}
	j.stats.DirSyncs.Inc()
	return nil
}

func (j *Journal) segPath(seq int) string {
	return filepath.Join(j.dir, j.segName(seq))
}

// loadAnalyzedLocked reads the books from the ANALYZED sidecar; a torn last
// line and unparsable lines are ignored. Caller holds j.mu.
func (j *Journal) loadAnalyzedLocked() error {
	path := filepath.Join(j.dir, analyzedName)
	data, err := j.fs.ReadFile(path)
	if err != nil && !os.IsNotExist(err) {
		return fmt.Errorf("journal: read %s: %w", analyzedName, err)
	}
	data = data[:bytes.LastIndexByte(data, '\n')+1]
	for _, line := range strings.Split(string(data), "\n") {
		kind, num, ok := strings.Cut(strings.TrimSpace(line), " ")
		if !ok {
			kind, num = "", kind
		}
		e, err := strconv.Atoi(num)
		if err != nil {
			continue
		}
		switch kind {
		case "through":
			j.through = max(j.through, e)
		case "span":
			j.span = max(j.span, e)
		case "":
			j.analyzed[e] = true
		}
	}
	through := j.through
	maps.DeleteFunc(j.analyzed, func(e int, _ bool) bool { return e <= through })
	f, err := j.fs.OpenAppend(path)
	if err != nil {
		return fmt.Errorf("journal: open %s: %w", analyzedName, err)
	}
	j.analyzedF = f
	return nil
}

// parseSegName extracts the sequence number from a segment file name, or
// (0, false) for foreign files.
func parseSegName(name string) (int, bool) {
	if !strings.HasPrefix(name, segPrefix) || !strings.HasSuffix(name, segSuffix) {
		return 0, false
	}
	n, err := strconv.Atoi(strings.TrimSuffix(strings.TrimPrefix(name, segPrefix), segSuffix))
	if err != nil || n <= 0 {
		return 0, false
	}
	return n, true
}

// loadSegmentsLocked scans every existing segment — the journal directory
// proper plus any survivors already under quarantine/ — classifying each as
// clean, torn-tail (truncate back to the valid prefix), or mid-segment
// corrupt (decodable frames exist beyond the corrupt gap: move the file to
// quarantine/ and keep every frame the resynchronizing scan can rescue).
// Caller holds j.mu.
func (j *Journal) loadSegmentsLocked() error {
	entries, err := j.fs.ReadDir(j.dir)
	if err != nil {
		return fmt.Errorf("journal: %w", err)
	}
	var seqs []int
	for _, e := range entries {
		if n, ok := parseSegName(e.Name()); ok {
			seqs = append(seqs, n)
		}
	}
	sort.Ints(seqs)
	for _, seq := range seqs {
		if err := j.loadSegmentLocked(seq, j.segPath(seq), false); err != nil {
			return err
		}
	}
	// Segments the pass above just moved into quarantine/ are already in
	// j.sealed; the survivor scan below must not load them a second time.
	loaded := make(map[int]bool, len(j.sealed))
	for _, s := range j.sealed {
		loaded[s.seq] = true
	}
	// Quarantined survivors from an earlier run: re-scan them (with resync)
	// so their un-retired frames stay replayable across multiple crashes.
	// A missing quarantine directory just means nothing was ever moved.
	qdir := filepath.Join(j.dir, quarantineDir)
	qentries, err := j.fs.ReadDir(qdir)
	if err != nil {
		if os.IsNotExist(err) {
			return nil
		}
		return fmt.Errorf("journal: %w", err)
	}
	var qseqs []int
	for _, e := range qentries {
		if n, ok := parseSegName(e.Name()); ok {
			qseqs = append(qseqs, n)
		}
	}
	sort.Ints(qseqs)
	for _, seq := range qseqs {
		if loaded[seq] {
			continue
		}
		if err := j.loadSegmentLocked(seq, filepath.Join(qdir, j.segName(seq)), true); err != nil {
			return err
		}
	}
	return nil
}

func (j *Journal) segName(seq int) string {
	return fmt.Sprintf("%s%08d%s", segPrefix, seq, segSuffix)
}

// loadSegmentLocked scans one segment file and files it into j.sealed.
// Caller holds j.mu.
func (j *Journal) loadSegmentLocked(seq int, path string, quarantined bool) error {
	data, err := j.fs.ReadFile(path)
	if err != nil {
		return fmt.Errorf("journal: %w", err)
	}
	epochs := make(map[int]bool)
	collect := func(m transport.Message) error {
		if e, ok := epochOf(m); ok {
			epochs[e] = true
		}
		return nil
	}
	valid, torn, _ := scanFrames(data, collect)
	rescued := 0
	if torn || quarantined {
		// Look past the corruption: frames that still decode (each one CRC
		// verified) prove the damage is mid-segment, not a torn tail.
		rescued, _ = resyncFrames(data[valid:], collect)
	}
	switch {
	case quarantined:
		// Already quarantined by an earlier run; keep it replayable.
	case torn && rescued > 0:
		// Mid-segment corruption: a plain truncate would discard the
		// rescued frames along with the garbage. Move the whole file aside
		// and replay it with resynchronization.
		qpath := filepath.Join(j.dir, quarantineDir, j.segName(seq))
		if err := j.fs.MkdirAll(filepath.Join(j.dir, quarantineDir)); err != nil {
			return fmt.Errorf("journal: quarantine dir: %w", err)
		}
		if err := j.fs.Rename(path, qpath); err != nil {
			// The move failed (the disk may be the very thing that is
			// broken); fall back to the old lose-the-tail truncation so
			// recovery still converges.
			if terr := j.fs.Truncate(path, int64(valid)); terr != nil {
				return fmt.Errorf("journal: quarantine %s failed (%v) and truncate failed: %w", path, err, terr)
			}
			j.stats.TailsTruncated.Inc()
			if valid == 0 {
				//dcslint:ignore errcrit best-effort cleanup of a frameless file; a survivor holds no replayable data and is re-tried next Open
				j.fs.Remove(path)
				return nil
			}
			j.sealed = append(j.sealed, segment{seq: seq, path: path, epochs: epochs})
			return nil
		}
		j.stats.SegmentsQuarantined.Inc()
		j.stats.FramesRescued.Add(int64(rescued))
		j.sealed = append(j.sealed, segment{seq: seq, path: qpath, epochs: epochs, quarantined: true})
		return nil
	case torn:
		if err := j.fs.Truncate(path, int64(valid)); err != nil {
			return fmt.Errorf("journal: truncate torn tail of %s: %w", path, err)
		}
		j.stats.TailsTruncated.Inc()
	}
	if valid == 0 && rescued == 0 {
		if quarantined {
			// Nothing recoverable, but the artifact stays for forensics.
			return nil
		}
		// Nothing recoverable (an empty active segment from a clean
		// shutdown, or a tail torn at frame zero).
		//dcslint:ignore errcrit best-effort cleanup of a frameless file; a survivor holds no replayable data and is re-tried next Open
		j.fs.Remove(path)
		return nil
	}
	j.sealed = append(j.sealed, segment{seq: seq, path: path, epochs: epochs, quarantined: quarantined})
	return nil
}

// epochOf extracts the measurement epoch a digest message is stamped with.
func epochOf(m transport.Message) (int, bool) {
	switch d := m.(type) {
	case transport.AlignedDigest:
		return d.Epoch, true
	case transport.UnalignedDigest:
		return d.Epoch, true
	}
	return 0, false
}

// scanFrames decodes the consecutive transport frames data opens with,
// invoking fn on each. It returns the offset just past the last well-formed
// frame and whether data is torn there — ends mid-frame or goes on with bytes
// the decoder rejects (bad magic, bad CRC, implausible geometry). Framing
// cannot resynchronize blindly past corruption — that is resyncFrames's job,
// which hunts for the next CRC-verified frame — and a digest with a valid
// frame but corrupt payload would silently perturb the correlation
// statistics, which is exactly what the CRC exists to prevent. fn errors
// abort the scan and are returned verbatim.
func scanFrames(data []byte, fn func(transport.Message) error) (valid int, torn bool, err error) {
	for valid < len(data) {
		m, rest, rerr := transport.ReadFrame(data[valid:])
		if rerr != nil {
			return valid, true, nil
		}
		if ferr := fn(m); ferr != nil {
			return valid, false, ferr
		}
		valid = len(data) - len(rest)
	}
	return valid, false, nil // clean end at a frame boundary
}

// frameMagic is the on-disk byte pattern opening every frame ("DCS1",
// little-endian), the needle the resynchronizing scan hunts for.
var frameMagic = []byte("DCS1")

// resyncFrames rescues decodable frames from data, which starts at the frame
// boundary where scanFrames gave up (or somewhere inside a corrupt region):
// it searches for the next frame-magic candidate, decodes consecutive frames
// from there, and on further corruption repeats the hunt. Every rescued frame
// passed its CRC-32C, so a false-positive magic inside garbage is rejected
// rather than delivered (the odds of random bytes passing the checksum are
// 2^-32 per candidate — rescue can lose frames, it cannot invent them).
// Returns how many frames it handed fn; fn errors abort the scan.
func resyncFrames(data []byte, fn func(transport.Message) error) (int, error) {
	rescued := 0
	off := 0
	for off < len(data) {
		idx := bytes.Index(data[off:], frameMagic)
		if idx < 0 {
			return rescued, nil
		}
		start := off + idx
		valid, _, err := scanFrames(data[start:], func(m transport.Message) error {
			rescued++
			return fn(m)
		})
		if err != nil {
			return rescued, err
		}
		if valid > 0 {
			off = start + valid
		} else {
			off = start + 1 // false-positive magic; step past it
		}
	}
	return rescued, nil
}

// Append writes digest frames to the active segment — one, or every frame of
// a datagram — encoded back to back and handed over in one write(2) per call,
// with no fsync: once it returns, a process crash loses none of them, and an
// OS crash none once the next Sync returns. Call it before (or concurrently
// with) Center.Ingest — the duplicate policy makes the ordering immaterial. A
// frame the encoder rejects is counted in UnjournaledFrames alone; its
// neighbours are still written, and the first such error is returned.
//
// Failures never propagate as fatal: a write or rotate failure flips the
// journal to Degraded — every frame of the call is counted in
// UnjournaledFrames, the on-disk segment is reconciled back to the last
// whole-frame boundary before the call, and Append returns ErrDegraded
// (wrapping the fault) for this and every subsequent call until a
// backoff-timed re-arm succeeds. Callers keep ingesting; only crash
// durability is suspended, and the counter says by exactly how much.
func (j *Journal) Append(ms ...transport.Message) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return ErrClosed
	}
	if j.degradedCause != nil {
		if time.Now().After(j.nextRetry) {
			j.rearmLocked()
		}
		if j.degradedCause != nil {
			j.stats.UnjournaledFrames.Add(int64(len(ms)))
			return fmt.Errorf("%w: %w", ErrDegraded, j.degradedCause)
		}
	}
	buf, frames := j.frame[:0], int64(0)
	var rejected error
	for _, m := range ms {
		var err error
		if buf, err = transport.AppendFrame(buf, m); err != nil {
			// The encoder rejected it, leaving buf as it was: the disk is
			// fine, but ingest has a frame the log does not.
			j.stats.UnjournaledFrames.Inc()
			if rejected == nil {
				rejected = err
			}
			continue
		}
		frames++
		// Marked before the write: should it fail, the segment's epoch set
		// is a superset of its frames', which only holds a purge back.
		if e, ok := epochOf(m); ok {
			j.activeEpochs[e] = true
		}
	}
	j.frame = buf
	if frames == 0 {
		return rejected
	}
	if n, err := j.active.Write(buf); err != nil {
		// Reconcile the on-disk offset with what actually happened: n bytes
		// of the batch, ending inside some frame, may follow the last good
		// boundary. Cutting them back keeps the segment's surviving prefix
		// cleanly framed; if even the truncate fails, Open-time recovery will
		// do the same cut at the last whole frame.
		if n > 0 {
			if terr := j.fs.Truncate(j.segPath(j.activeSeq), j.activeOffset); terr == nil {
				j.stats.TailsTruncated.Inc()
			}
		}
		j.stats.UnjournaledFrames.Add(frames)
		return j.failLocked(fmt.Errorf("append: %w", err))
	}
	j.activeOffset += int64(len(buf))
	j.stats.FramesAppended.Add(frames)
	j.stats.UnsyncedFrames.Add(frames)
	// A successful append is the all-clear that resets the re-arm backoff to
	// its base for the next incident.
	j.retryWait = 0
	if j.opt.SyncEveryAppend {
		if err := j.syncLocked(); err != nil {
			return err
		}
	}
	return rejected
}

// degradeLocked flips the journal into degraded mode (or refreshes the cause
// while already degraded) and schedules the next re-arm attempt on a capped
// exponential backoff. Caller holds j.mu.
func (j *Journal) degradeLocked(cause error) {
	j.degradedCause = cause
	j.stats.Degraded.Set(1)
	if j.retryWait == 0 {
		j.retryWait = j.opt.RetryInterval
	} else if j.retryWait < 64*j.opt.RetryInterval {
		j.retryWait *= 2
	}
	j.nextRetry = time.Now().Add(j.retryWait)
}

// rearmLocked attempts to leave degraded mode: the broken active segment is
// abandoned (its cleanly framed prefix stays sealed for replay), a fresh
// segment and sidecar handle are opened, and the directory is synced. Any
// failure keeps the journal degraded and pushes the backoff. Caller holds
// j.mu.
func (j *Journal) rearmLocked() {
	j.stats.RearmAttempts.Inc()
	if j.active != nil {
		if err := j.flushLocked(); err != nil {
			j.degradedCause = err // its frames are counted; the cause names the latest fault
		}
		//dcslint:ignore errcrit degraded-mode teardown of an already-failed segment file; its cleanly framed prefix is sealed below and Open-time recovery re-truncates any torn tail a failed close leaves
		j.active.Close()
		j.active = nil
	}
	f, err := j.sealLocked()
	if err != nil {
		j.degradeLocked(fmt.Errorf("rearm: %w", err))
		return
	}
	// Reopen the sidecar too: the fault that degraded the journal may have
	// hit it (EpochAnalyzed's mark path), and a stale broken handle would
	// re-degrade on the first mark after an otherwise clean re-arm.
	sf, err := j.fs.OpenAppend(filepath.Join(j.dir, analyzedName))
	if err != nil {
		//dcslint:ignore errcrit the fresh segment is empty — no frame has been written to it — so closing it on the abort path cannot lose data
		f.Close()
		j.degradeLocked(fmt.Errorf("rearm sidecar: %w", err))
		return
	}
	if err := j.fs.SyncDir(j.dir); err != nil {
		//dcslint:ignore errcrit the fresh segment is empty — no frame has been written to it — so closing it on the abort path cannot lose data
		f.Close()
		//dcslint:ignore errcrit the reopened sidecar took no writes on this path; the ANALYZED contents it points at are already durable
		sf.Close()
		j.degradeLocked(fmt.Errorf("rearm: sync dir: %w", err))
		return
	}
	j.stats.DirSyncs.Inc()
	if j.analyzedF != nil {
		//dcslint:ignore errcrit replacing a possibly-broken sidecar handle; every durable mark was already Synced at write time, so this close cannot lose one
		j.analyzedF.Close()
	}
	j.analyzedF = sf
	j.active = f
	j.activeOffset = 0
	j.degradedCause = nil
	j.stats.Degraded.Set(0)
	j.stats.Rearms.Inc()
}

// sealLocked files the closed active segment among the sealed ones, if it
// holds epochs, and opens the next. Caller holds j.mu.
func (j *Journal) sealLocked() (File, error) {
	if len(j.activeEpochs) > 0 {
		j.sealed = append(j.sealed, segment{seq: j.activeSeq, path: j.segPath(j.activeSeq), epochs: j.activeEpochs})
		j.activeEpochs = make(map[int]bool)
	}
	j.activeSeq++
	return j.fs.OpenAppend(j.segPath(j.activeSeq))
}

// TryRearm attempts to leave degraded mode right now, ignoring the backoff
// timer — the hook for an operator action or a daemon tick that knows the
// disk was just fixed. Reports whether the journal is healthy afterwards.
func (j *Journal) TryRearm() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return false
	}
	if j.degradedCause != nil {
		j.rearmLocked()
	}
	return j.degradedCause == nil
}

// Degraded reports whether appends are currently suspended by a disk fault.
func (j *Journal) Degraded() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.degradedCause != nil
}

// DegradedCause returns the fault that degraded the journal, or nil when
// healthy.
func (j *Journal) DegradedCause() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.degradedCause
}

// flushLocked fsyncs the active segment if frames were written to it since
// its last good fsync. On failure the durability of every one of them is
// unknown, so they all count as unjournaled; the caller degrades the journal
// or, when it is abandoning the segment anyway, goes on. Caller holds j.mu.
func (j *Journal) flushLocked() error {
	n := j.stats.UnsyncedFrames.Load()
	if n == 0 {
		return nil
	}
	start := time.Now()
	err := j.active.Sync()
	j.fsync.Observe(time.Since(start).Seconds())
	j.stats.UnsyncedFrames.Set(0)
	if err != nil {
		j.stats.UnjournaledFrames.Add(n)
		return fmt.Errorf("journal: sync: %w", err)
	}
	j.syncFrames.Observe(float64(n))
	return nil
}

// syncLocked is the barrier: flush, degrade on a failed flush, and report
// ErrDegraded whenever the journal is degraded on return. Caller holds j.mu.
func (j *Journal) syncLocked() error {
	if err := j.flushLocked(); err != nil {
		j.degradeLocked(err)
	}
	if j.degradedCause != nil {
		return fmt.Errorf("%w: %w", ErrDegraded, j.degradedCause)
	}
	return nil
}

// Sync is the durability barrier: every frame Append has written is on
// stable storage when it returns nil, and it costs nothing when none was
// written since the last Sync. A failure degrades the journal like a failed
// append — the data may already be lost, and pretending otherwise is what
// degraded mode exists to avoid — and counts every frame since the last good
// Sync unjournaled. While degraded it still flushes, and returns ErrDegraded.
func (j *Journal) Sync() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return ErrClosed
	}
	return j.syncLocked()
}

// Reported retires, in one durable step, what the delivered report of span
// [start, end] covers: the marks "span end" — when the report keeps its own
// epoch as context (start < end) — and "through start", the floor the center
// raised at the close. The span mark goes first: a torn write can lose the
// watermark, never keep it without the span mark, which would let the next
// life report span end again on what the retirement left. The caller has
// finished every shed tombstone the center held at the close: the watermark
// covers a shed epoch below start, whose tombstone is its only report.
func (j *Journal) Reported(start, end int) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return ErrClosed
	}
	marks := "through " + strconv.Itoa(start) + "\n"
	if start < end {
		marks = "span " + strconv.Itoa(end) + "\n" + marks
	}
	if err := j.markLocked(marks); err != nil {
		return err
	}
	if start < end {
		j.span = max(j.span, end)
	}
	j.through = max(j.through, start)
	maps.DeleteFunc(j.analyzed, func(e int, _ bool) bool { return e <= start })
	return j.retireLocked()
}

// EpochAnalyzed retires one epoch above the watermark, a shed or evicted one
// no span report covers, in one durable step, as Reported does.
func (j *Journal) EpochAnalyzed(epoch int) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return ErrClosed
	}
	if !j.retiredLocked(epoch) {
		if err := j.markLocked(strconv.Itoa(epoch) + "\n"); err != nil {
			return err
		}
		j.analyzed[epoch] = true
	}
	return j.retireLocked()
}

func (j *Journal) retiredLocked(epoch int) bool {
	return epoch <= j.through || j.analyzed[epoch]
}

// markLocked appends marks, whole lines, to the ANALYZED sidecar in one
// write(2) and fsyncs it. A failure degrades the journal; the last line may
// then be torn on disk, which the loader ignores. Caller holds j.mu.
func (j *Journal) markLocked(marks string) error {
	if _, err := io.WriteString(j.analyzedF, marks); err != nil {
		return j.failLocked(fmt.Errorf("write %s: %w", analyzedName, err))
	}
	if err := j.analyzedF.Sync(); err != nil {
		return j.failLocked(fmt.Errorf("sync %s: %w", analyzedName, err))
	}
	return nil
}

// failLocked degrades the journal on err and returns it as ErrDegraded.
// Caller holds j.mu.
func (j *Journal) failLocked(err error) error {
	j.degradeLocked(err)
	return fmt.Errorf("%w: %w", ErrDegraded, err)
}

// retireLocked acts on marks just made durable: it seals the active segment if
// it holds epochs, deletes every sealed segment whose epochs are all retired
// (a quarantined one, corruption evidence, only leaves the replay set), and
// makes the new entry and the unlinks durable with one directory sync. Caller
// holds j.mu.
func (j *Journal) retireLocked() error {
	dirty := false
	if j.degradedCause == nil && len(j.activeEpochs) > 0 {
		// A segment is never closed dirty: a sealed segment's frames would
		// otherwise wait on a writeback no barrier covers.
		if err := j.flushLocked(); err != nil {
			return j.failLocked(err)
		}
		//dcslint:ignore errcrit appends are unbuffered write(2)s just flushed above, and Open-time recovery truncates any tail a failed close tears
		j.active.Close()
		f, err := j.sealLocked()
		if err != nil {
			j.active = nil
			return j.failLocked(fmt.Errorf("open segment: %w", err))
		}
		j.active, j.activeOffset = f, 0
		dirty = true
	}
	kept := j.sealed[:0]
	for _, s := range j.sealed {
		switch {
		case !j.allRetiredLocked(s.epochs):
			kept = append(kept, s)
		case s.quarantined:
			// Leaves the replay set; the file stays.
		default:
			if err := j.fs.Remove(s.path); err != nil && !os.IsNotExist(err) {
				kept = append(kept, s) // retried at the next step
				continue
			}
			j.stats.SegmentsPurged.Inc()
			dirty = true
		}
	}
	// Zero the entries the in-place filter dropped so they do not pin their
	// epoch maps.
	clear(j.sealed[len(kept):])
	j.sealed = kept
	if !dirty {
		return nil
	}
	if err := j.syncDirLocked(); err != nil {
		return j.failLocked(err)
	}
	return nil
}

// allRetiredLocked reports whether every epoch of a segment is retired.
// Caller holds j.mu.
func (j *Journal) allRetiredLocked(epochs map[int]bool) bool {
	for e := range epochs {
		if !j.retiredLocked(e) {
			return false
		}
	}
	return true
}

// Retired returns the books, as this life or an earlier one left them, for a
// restart to hand the center: every epoch at or below through is retired, and
// so is each of marks, all above it, ascending; span is the newest span
// Reported recorded as keeping its epoch as context. math.MinInt stands for
// no watermark and no span.
func (j *Journal) Retired() (through int, marks []int, span int) {
	j.mu.Lock()
	defer j.mu.Unlock()
	for e := range j.analyzed {
		marks = append(marks, e)
	}
	slices.Sort(marks)
	return j.through, marks, j.span
}

// Replay feeds every surviving frame of an un-retired epoch to fn, oldest
// segment first (within a segment, append order — which is ingest order).
// Quarantined segments are replayed with resynchronization: their cleanly
// framed prefix and every CRC-verified frame beyond the corrupt gap. Point
// fn at Center.Ingest and the center's windows are rebuilt exactly as a
// crashed process left them, duplicates absorbed by the duplicate policy.
// Call Replay once, after Open and before serving new traffic. fn errors
// abort the replay.
func (j *Journal) Replay(fn func(transport.Message) error) error {
	j.mu.Lock()
	if j.closed {
		j.mu.Unlock()
		return ErrClosed
	}
	segs := append([]segment(nil), j.sealed...)
	through, analyzed := j.through, maps.Clone(j.analyzed)
	j.mu.Unlock()

	replayed, skipped := 0, 0
	deliver := func(m transport.Message) error {
		if e, ok := epochOf(m); ok && (e <= through || analyzed[e]) {
			skipped++
			return nil
		}
		replayed++
		return fn(m)
	}
	for _, s := range segs {
		data, err := j.fs.ReadFile(s.path)
		if err != nil {
			return fmt.Errorf("journal: replay %s: %w", s.path, err)
		}
		valid, torn, err := scanFrames(data, deliver)
		if err != nil {
			return err
		}
		if torn && s.quarantined {
			if _, err := resyncFrames(data[valid:], deliver); err != nil {
				return err
			}
		}
	}
	j.stats.FramesReplayed.Add(int64(replayed))
	j.stats.FramesSkipped.Add(int64(skipped))
	return nil
}

// Segments returns how many on-disk segments hold un-purged frames
// (excluding the active segment).
func (j *Journal) Segments() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	return len(j.sealed)
}

// Stats returns the journal's counters, live.
func (j *Journal) Stats() *Stats { return &j.stats }

// Marks is how many retired epochs the books mark one by one, above the
// watermark.
func (j *Journal) Marks() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	return len(j.analyzed)
}

// RegisterMetrics exposes the journal on a metrics registry: lifetime
// counters, the per-fsync latency and batch-size histograms, the degraded and
// unsynced-frames gauges, and a live-segments gauge (the un-purged backlog the
// next restart would replay).
func (j *Journal) RegisterMetrics(r *metrics.Registry) {
	r.RegisterCounter("dcs_journal_appends_total",
		"digest frames appended to the active segment", &j.stats.FramesAppended)
	r.RegisterCounter("dcs_journal_frames_replayed_total",
		"frames fed to the ingest callback by Replay", &j.stats.FramesReplayed)
	r.RegisterCounter("dcs_journal_frames_skipped_total",
		"replay frames skipped because their epoch was already analyzed", &j.stats.FramesSkipped)
	r.RegisterCounter("dcs_journal_tails_truncated_total",
		"segments whose torn tail was cut back at Open or after a failed append", &j.stats.TailsTruncated)
	r.RegisterCounter("dcs_journal_segments_purged_total",
		"sealed segments deleted with every epoch analyzed", &j.stats.SegmentsPurged)
	r.RegisterCounter("dcs_journal_dir_syncs_total",
		"fsyncs of the journal directory (segment create/delete durability)", &j.stats.DirSyncs)
	r.RegisterCounter("dcs_journal_unjournaled_total",
		"digests ingested while degraded mode suspended appends (crash-replay shortfall)", &j.stats.UnjournaledFrames)
	r.RegisterCounter("dcs_journal_rearm_attempts_total",
		"degraded-mode recovery attempts", &j.stats.RearmAttempts)
	r.RegisterCounter("dcs_journal_rearms_total",
		"successful degraded-mode recoveries", &j.stats.Rearms)
	r.RegisterCounter("dcs_journal_segments_quarantined_total",
		"segments moved to quarantine/ for mid-segment corruption", &j.stats.SegmentsQuarantined)
	r.RegisterCounter("dcs_journal_frames_rescued_total",
		"frames recovered beyond a corrupt gap by the resynchronizing scan", &j.stats.FramesRescued)
	r.RegisterGauge("dcs_journal_degraded",
		"1 while a disk fault has appends suspended, else 0", &j.stats.Degraded)
	r.RegisterHistogram("dcs_journal_fsync_seconds",
		"latency of active-segment fsyncs", &j.fsync)
	r.RegisterHistogram("dcs_journal_sync_frames",
		"frames one active-segment fsync made durable (the group-commit batching factor)", &j.syncFrames)
	r.RegisterGauge("dcs_journal_unsynced_frames",
		"frames written to the active segment since its last good fsync (what an OS crash now would cost)", &j.stats.UnsyncedFrames)
	r.GaugeFunc("dcs_journal_live_segments",
		"sealed on-disk segments still holding un-analyzed epochs", func() float64 {
			return float64(j.Segments())
		})
}

// Close syncs (if anything is unsynced) and closes the journal. An empty active segment is removed so
// clean restarts do not accumulate zero-length files.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return nil
	}
	j.closed = true
	var firstErr error
	if j.active != nil {
		if err := j.flushLocked(); err != nil {
			firstErr = err
		}
		if err := j.active.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
		if len(j.activeEpochs) == 0 {
			//dcslint:ignore errcrit best-effort cleanup of an epochless segment; a survivor is removed at the next Open
			j.fs.Remove(j.segPath(j.activeSeq))
			if err := j.syncDirLocked(); err != nil && firstErr == nil {
				firstErr = err
			}
		}
	}
	if j.analyzedF != nil {
		if err := j.analyzedF.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}
