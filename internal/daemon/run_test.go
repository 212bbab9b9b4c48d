package daemon

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"dcstream/internal/bitvec"
	"dcstream/internal/center"
	"dcstream/internal/metrics"
	"dcstream/internal/shard"
	"dcstream/internal/transport"
	"dcstream/internal/unaligned"
)

// childJournalEnv, when set, turns the test binary into a dcsd: TestMain
// runs Run on that journal directory instead of the tests, so a test can
// kill -9 a real daemon process mid-epoch.
const childJournalEnv = "DCS_DAEMON_TEST_CHILD_JOURNAL"

func TestMain(m *testing.M) {
	if dir := os.Getenv(childJournalEnv); dir != "" {
		if err := Run(context.Background(), crashConfig(dir)); err != nil {
			log.Fatal(err)
		}
		return
	}
	os.Exit(m.Run())
}

// crashConfig is the daemon of the crash-replay test: sliding spans, journal
// with fsync, events beside the journal, and a window no run lasts.
func crashConfig(dir string) Config {
	return Config{
		Listen: "127.0.0.1:0", HTTP: "127.0.0.1:0", Shards: 1, ShardOf: -1,
		Window: time.Hour, ConnTimeout: time.Minute,
		Center:  center.Config{SubsetSize: 64, MaxEpochs: 16, WindowSlide: 3, Parallelism: 2},
		Journal: filepath.Join(dir, "journal"),
		Events:  filepath.Join(dir, "events.jsonl"),
	}
}

// The lines bench/daemon.go reads to find a dcsd it started: one bare
// address per listener on stdout, TCP first, and this one in the log.
var httpLine = regexp.MustCompile(`dcsd http endpoints on (\S+)`)

// logCapture is the process log during a Run under test. While a gate is
// set, the first write containing it blocks until release is closed.
type logCapture struct {
	mu  sync.Mutex
	buf bytes.Buffer

	gate    string
	entered chan struct{}
	release chan struct{}
}

func (l *logCapture) Write(p []byte) (int, error) {
	l.mu.Lock()
	l.buf.Write(p)
	gated := l.gate != "" && bytes.Contains(p, []byte(l.gate))
	if gated {
		l.gate = ""
	}
	l.mu.Unlock()
	if gated {
		close(l.entered)
		<-l.release
	}
	return len(p), nil
}

func (l *logCapture) String() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.buf.String()
}

// waitFor polls until cond holds.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(20 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// running is a Run in flight inside the test process.
type running struct {
	tcp, udp, http string
	logs           *logCapture
	ticks          chan time.Time
	cancel         context.CancelCauseFunc
	done           chan error
}

// startRun starts Run on :0 listeners with hand-fed ticks and finds its
// addresses the way a script does: from the stdout lines and the log.
func startRun(t *testing.T, cfg Config) *running {
	t.Helper()
	r := &running{logs: &logCapture{}, ticks: make(chan time.Time, 1), done: make(chan error, 1)}
	log.SetOutput(r.logs)
	t.Cleanup(func() { log.SetOutput(os.Stderr) })
	pr, pw, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	stdout := os.Stdout
	os.Stdout = pw
	cfg.Listen, cfg.HTTP, cfg.Ticks = "127.0.0.1:0", "127.0.0.1:0", r.ticks
	ctx, cancel := context.WithCancelCause(context.Background())
	r.cancel = cancel
	go func() { r.done <- Run(ctx, cfg) }()

	lines := make(chan string)
	go func() {
		defer close(lines)
		sc := bufio.NewScanner(pr)
		for sc.Scan() {
			lines <- sc.Text()
		}
	}()
	next := func() string {
		select {
		case line := <-lines:
			return line
		case err := <-r.done:
			t.Fatalf("Run returned before it was up: %v\n%s", err, r.logs)
		case <-time.After(20 * time.Second):
			t.Fatalf("no address line on stdout\n%s", r.logs)
		}
		return ""
	}
	r.tcp = next()
	if cfg.UDP != "" {
		r.udp = next()
	}
	waitFor(t, "the http endpoints line", func() bool { return httpLine.MatchString(r.logs.String()) })
	r.http = httpLine.FindStringSubmatch(r.logs.String())[1]
	// Run is past its last stdout write once the http line is logged.
	os.Stdout = stdout
	pw.Close()
	for range lines {
	}
	pr.Close()
	return r
}

// stop cancels the run and waits for its drain.
func (r *running) stop(t *testing.T) {
	t.Helper()
	r.cancel(errors.New("test done"))
	r.wait(t)
}

func (r *running) wait(t *testing.T) {
	t.Helper()
	select {
	case err := <-r.done:
		if err != nil {
			t.Fatalf("Run: %v", err)
		}
	case <-time.After(20 * time.Second):
		t.Fatalf("Run did not return\n%s", r.logs)
	}
}

// send ships msgs over one TCP connection and waits until the daemon behind
// it has filed them all.
func send(t *testing.T, tcpAddr, httpAddr string, already int, msgs []transport.Message) {
	t.Helper()
	c, err := transport.Dial(tcpAddr, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range msgs {
		if err := c.Send(m); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	waitIngested(t, httpAddr, already+len(msgs))
}

// waitIngested waits until the daemon's /metrics counts n digests ingested.
func waitIngested(t *testing.T, httpAddr string, n int) {
	t.Helper()
	waitFor(t, fmt.Sprintf("%d digests to be ingested", n), func() bool {
		return int(scrape(httpAddr)["dcs_center_digests_ingested_total"]) == n
	})
}

// scrape reads the daemon's /metrics, or nil when it cannot be read or parsed.
func scrape(httpAddr string) map[string]float64 {
	resp, err := http.Get("http://" + httpAddr + "/metrics")
	if err != nil {
		return nil
	}
	defer resp.Body.Close()
	samples, err := metrics.ParseText(resp.Body)
	if err != nil {
		return nil
	}
	return samples
}

// runWorkload is a seeded stream with both digest kinds for every router in
// every epoch, and a shared vector planted in every third router's unaligned
// digest so the analyses have evidence to agree on.
func runWorkload(routers, epochs int) []transport.Message {
	seed := uint64(7)
	word := func() uint64 {
		seed = seed*6364136223846793005 + 1442695040888963407
		return seed
	}
	sparse := func(bits int) *bitvec.Vector {
		v, w := bitvec.New(bits), bitvec.New(bits)
		v.FillRandomHalf(word)
		w.FillRandomHalf(word)
		v.And(v, w)
		w.FillRandomHalf(word)
		v.And(v, w) // an eighth full
		return v
	}
	shared := bitvec.New(512)
	shared.FillRandomHalf(word)
	var msgs []transport.Message
	for e := 1; e <= epochs; e++ {
		for r := 0; r < routers; r++ {
			bm := bitvec.New(1024)
			bm.FillRandomHalf(word)
			msgs = append(msgs, transport.AlignedDigest{RouterID: r, Epoch: e, Bitmap: bm})
			d := &unaligned.Digest{RouterID: r, Rows: make([][]*bitvec.Vector, 2)}
			for g := range d.Rows {
				for a := 0; a < 3; a++ {
					v := sparse(512)
					if g == 0 && r%3 == 0 {
						v.Or(v, shared)
					}
					d.Rows[g] = append(d.Rows[g], v)
				}
			}
			msgs = append(msgs, transport.UnalignedDigest{Epoch: e, Digest: d})
		}
	}
	return msgs
}

// readEvents decodes an -events file, dropping the fields that are clock
// readings rather than verdicts.
func readEvents(t *testing.T, path string) []map[string]any {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var out []map[string]any
	for _, line := range strings.Split(strings.TrimSpace(string(raw)), "\n") {
		ev := map[string]any{}
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			t.Fatalf("event line %q: %v", line, err)
		}
		for _, k := range []string{"wall_ms", "ingest_to_analyze_p50_ms", "ingest_to_analyze_p99_ms", "finalize_p50_ms", "finalize_p99_ms"} {
			delete(ev, k)
		}
		out = append(out, ev)
	}
	return out
}

// TestRunStartupContract pins what bench/daemon.go and scripts depend on: a
// bare address per listener on stdout, TCP then UDP; the http line in the
// log; the registry namespaces; and the shutdown line naming the
// cancellation cause. No line is logged per digest.
func TestRunStartupContract(t *testing.T) {
	r := startRun(t, Config{UDP: "127.0.0.1:0", Shards: 1, ShardOf: -1, Journal: t.TempDir(), Center: center.Config{SubsetSize: 64}})
	for what, addr := range map[string]string{"tcp": r.tcp, "udp": r.udp, "http": r.http} {
		if !regexp.MustCompile(`^127\.0\.0\.1:[1-9][0-9]*$`).MatchString(addr) {
			t.Errorf("%s address line %q is not a bare host:port", what, addr)
		}
	}
	send(t, r.tcp, r.http, 0, []transport.Message{dg(1, 1), dg(2, 1)})
	u, err := transport.DialUDP(r.udp, transport.UDPClientConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if err := u.Send(dg(3, 1)); err != nil {
		t.Fatal(err)
	}
	if err := u.Flush(); err != nil {
		t.Fatal(err)
	}
	defer u.Close()
	waitIngested(t, r.http, 3)
	if strings.Contains(r.logs.String(), " digest from router ") {
		t.Errorf("a digest was logged\n%s", r.logs)
	}

	resp, err := http.Get("http://" + r.http + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	samples, err := metrics.ParseText(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	for name, want := range map[string]float64{
		"dcs_center_digests_ingested_total": 3,
		"dcs_journal_appends_total":         3,
		// No tick has fired and epoch 1 is nobody's to complete: three frames
		// written, none yet covered by a barrier.
		"dcs_journal_unsynced_frames":       3,
		"dcs_journal_sync_frames_count":     0,
		"dcs_journal_fsync_seconds_count":   0,
		"dcs_transport_frames_in_total":     2,
		"dcs_transport_udp_frames_in_total": 1,
	} {
		if got, ok := samples[name]; !ok || got != want {
			t.Errorf("/metrics %s = %v (present %v), want %v", name, got, ok, want)
		}
	}
	r.stop(t)
	for _, line := range []string{
		"dcsd analysis center listening on " + r.tcp,
		"dcsd udp ingest on " + r.udp,
		"test done: analyzing remaining epochs and shutting down",
		"epoch 1 aligned: no pattern across 3 routers",
	} {
		if !strings.Contains(r.logs.String(), line) {
			t.Errorf("log lacks %q\n%s", line, r.logs)
		}
	}
}

// TestRunRefusesBeforeOpening: a configuration Run cannot serve — a flag out
// of range, Run's own or the center's — is refused, naming it, before the
// event log, the journal or a listener opens.
func TestRunRefusesBeforeOpening(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	for _, tc := range []struct {
		want string
		cfg  Config
	}{
		{"-window 0s", Config{Shards: 1, ShardOf: -1}},
		{"-window -1s", Config{Window: -time.Second, Shards: 1, ShardOf: -1}},
		{"-rate-limit -1", Config{Window: time.Second, RateLimit: -1, Shards: 1, ShardOf: -1}},
		{"-shards 0", Config{Window: time.Second, ShardOf: -1}},
		{"-shard-of 2", Config{Window: time.Second, Shards: 2, ShardOf: 2}},
		{"-coordinator names 1", Config{Window: time.Second, Shards: 2, ShardOf: -1, Coordinator: addr}},
		{"SubsetSize", Config{Window: time.Second, Shards: 1, ShardOf: -1, Center: center.Config{SubsetSize: 1}}},
		{"MaxEpochs", Config{Window: time.Second, Shards: 1, ShardOf: -1, Center: center.Config{WindowSlide: 3, MaxEpochs: 2}}},
	} {
		dir := t.TempDir()
		cfg := tc.cfg
		cfg.Listen, cfg.HTTP = addr, "127.0.0.1:0"
		cfg.Journal, cfg.Events = filepath.Join(dir, "journal"), filepath.Join(dir, "events.jsonl")
		if err := Run(context.Background(), cfg); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("Run says %v, want a refusal naming %q", err, tc.want)
		}
		if left, _ := os.ReadDir(dir); len(left) != 0 {
			t.Errorf("%s: refused run left %v behind", tc.want, left)
		}
		ln, err := net.Listen("tcp", addr)
		if err != nil {
			t.Fatalf("%s: refused run left %s taken: %v", tc.want, addr, err)
		}
		ln.Close()
	}
}

// TestRunCrashReplayBitIdentical: a dcsd killed -9 mid-stream leaves its
// journal as the crash left it; a second Run on the same directory replays
// before it listens, takes the rest of the stream, and on cancellation —
// today's SIGTERM — drains every span. The first life reports its spans as
// they complete (no tick ever fires: the window is an hour), so the event log
// the two lives wrote together must read exactly as that of a run that was
// never interrupted: every span once, bit-identical, none reported again from
// the replayed context.
func TestRunCrashReplayBitIdentical(t *testing.T) {
	const routers, epochs, crashAfter = 5, 8, 5
	msgs := runWorkload(routers, epochs)
	split := crashAfter * routers * 2

	// The uninterrupted run.
	dir := t.TempDir()
	r := startRun(t, crashConfig(dir))
	send(t, r.tcp, r.http, 0, msgs)
	r.stop(t)
	want := readEvents(t, filepath.Join(dir, "events.jsonl"))
	if len(want) != epochs {
		t.Fatalf("uninterrupted run emitted %d events, want %d\n%s", len(want), epochs, r.logs)
	}

	// Life one: a real process, fed the first epochs, then killed.
	dir = t.TempDir()
	child := exec.Command(os.Args[0])
	child.Env = append(os.Environ(), childJournalEnv+"="+dir)
	stdout, err := child.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	childLog := &logCapture{}
	child.Stderr = childLog
	if err := child.Start(); err != nil {
		t.Fatal(err)
	}
	killed := false
	defer func() {
		if !killed {
			child.Process.Kill()
			child.Wait()
		}
	}()
	sc := bufio.NewScanner(stdout)
	if !sc.Scan() {
		t.Fatalf("child printed no address line: %v", sc.Err())
	}
	childTCP := sc.Text()
	waitFor(t, "the child's http line", func() bool { return httpLine.MatchString(childLog.String()) })
	send(t, childTCP, httpLine.FindStringSubmatch(childLog.String())[1], 0, msgs[:split])
	// The kill lands once span 5 is reported, marked and its retired epoch
	// forgotten — the last line finish writes — so what life two finds is
	// fixed: epochs 4 and 5 as context, nothing left to report. (The crash
	// points inside finish are TestCrashAfterReportRepeatsItIdentically's.)
	waitFor(t, "life one to report span 5 and retire epoch 3, with no tick", func() bool {
		marks, err := os.ReadFile(filepath.Join(dir, "journal", "ANALYZED"))
		return err == nil && strings.Contains(string(marks), "\nthrough 3\n")
	})
	if err := child.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	child.Wait()
	killed = true

	// Life two.
	r = startRun(t, crashConfig(dir))
	logs := r.logs.String()
	recovered, listening := strings.Index(logs, "journal: recovered 20 digests"), strings.Index(logs, "listening on")
	if recovered < 0 || listening < recovered {
		t.Fatalf("second life did not replay the journal before listening:\n%s", logs)
	}
	send(t, r.tcp, r.http, 20, msgs[split:])
	r.stop(t)
	got := readEvents(t, filepath.Join(dir, "events.jsonl"))
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("the two lives' events diverged from the uninterrupted run's:\n got %v\nwant %v", got, want)
	}
}

// TestRunReportsOnCompletionWithoutTicks: the report of a complete epoch
// arrives with no tick ever fired, and the shutdown has nothing left to do.
func TestRunReportsOnCompletionWithoutTicks(t *testing.T) {
	dir := t.TempDir()
	r := startRun(t, crashConfig(dir))
	send(t, r.tcp, r.http, 0, runWorkload(4, 3))
	events := filepath.Join(dir, "events.jsonl")
	waitFor(t, "three events with no tick", func() bool {
		raw, err := os.ReadFile(events)
		return err == nil && bytes.Count(raw, []byte("\n")) == 3
	})
	resp, err := http.Get("http://" + r.http + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	samples, err := metrics.ParseText(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	// The first epoch expected nobody and closes superseded; so does epoch 2
	// if epoch 3 landed before the loop got to the first wake. Epoch 3 can
	// only have closed complete: nothing supersedes it and no tick fired.
	complete, superseded := samples["dcs_center_epochs_closed_complete_total"], samples["dcs_center_epochs_closed_superseded_total"]
	if complete < 1 || superseded < 1 || complete+superseded != 3 ||
		samples["dcs_center_epochs_closed_quiescent_total"] != 0 || samples["dcs_center_epochs_closed_drain_total"] != 0 ||
		samples["dcs_center_epochs_analyzed_total"] != 3 {
		t.Errorf("/metrics close causes %v complete + %v superseded of %v analyzed, want 3 between them and none by tick or drain",
			complete, superseded, samples["dcs_center_epochs_analyzed_total"])
	}
	r.stop(t)
	if got := readEvents(t, events); len(got) != 3 {
		t.Fatalf("%d events after the shutdown drain, want the same 3\n%s", len(got), r.logs)
	}
}

// TestRunOnce: -once handles one tick, drains and returns by itself.
func TestRunOnce(t *testing.T) {
	dir := t.TempDir()
	cfg := crashConfig(dir)
	cfg.Once = true
	r := startRun(t, cfg)
	send(t, r.tcp, r.http, 0, runWorkload(4, 3))
	r.ticks <- time.Now()
	r.wait(t)
	if got := readEvents(t, cfg.Events); len(got) != 3 {
		t.Fatalf("-once emitted %d events, want 3\n%s", len(got), r.logs)
	}
}

// TestRunDropsTickQueuedBehindALongOne: a tick that arrives while the
// previous one is still being handled is dropped, not taken the moment the
// loop comes round — the next quiescence observation has to be a window
// away from this one. Every handled tick logs one -stats line, as does the
// shutdown.
func TestRunDropsTickQueuedBehindALongOne(t *testing.T) {
	r := startRun(t, Config{Shards: 1, ShardOf: -1, Stats: true, Center: center.Config{SubsetSize: 64}})
	// Epoch 2 still waits for router 2, so nothing closes until a tick does.
	send(t, r.tcp, r.http, 0, []transport.Message{dg(1, 1), dg(2, 1), dg(1, 2)})
	statsLines := func() int { return strings.Count(r.logs.String(), "stats: frames in=") }

	// Tick 1 closes epoch 1 and sticks on its verdict line.
	r.logs.mu.Lock()
	r.logs.gate, r.logs.entered, r.logs.release = "epoch 1 aligned: no pattern", make(chan struct{}), make(chan struct{})
	r.logs.mu.Unlock()
	r.ticks <- time.Now()
	<-r.logs.entered
	r.ticks <- time.Now() // tick 2 queues behind it, as a Ticker's would
	close(r.logs.release)
	waitFor(t, "tick 1 to finish", func() bool { return statsLines() >= 1 })
	r.ticks <- time.Now() // tick 3
	waitFor(t, "tick 3 to finish", func() bool { return statsLines() >= 2 })
	r.stop(t)
	if n := statsLines(); n != 3 || len(r.ticks) != 0 {
		t.Fatalf("%d stats lines and %d ticks unread, want 3 and 0: ticks 1 and 3 and the shutdown — tick 2 queued behind tick 1 and must be dropped\n%s", n, len(r.ticks), r.logs)
	}
}

// TestRunStatsLineBalancesTheLedger: the -stats line prints every counter the
// center exports but the per-rule close counts, so each digest the center saw
// shows in some field, and each prints what /metrics says. A center counter
// with no key here, or a key the line lacks or misreports, fails.
func TestRunStatsLineBalancesTheLedger(t *testing.T) {
	keys := map[string]string{
		"dcs_center_digests_ingested_total":  "digests.ingested",
		"dcs_center_digests_late_total":      "digests.late",
		"dcs_center_digests_duplicate_total": "digests.dup",
		"dcs_center_digests_replaced_total":  "digests.replaced",
		"dcs_center_digests_dropped_total":   "digests.dropped",
		"dcs_center_digests_misrouted_total": "digests.misrouted",
		"dcs_center_shed_digests_total":      "digests.shed",
		"dcs_center_shed_rejected_total":     "digests.rejected",
		"dcs_center_messages_unknown_total":  "digests.unknown",
		"dcs_center_epochs_analyzed_total":   "epochs.analyzed",
		"dcs_center_epochs_degraded_total":   "epochs.degraded",
		"dcs_center_epochs_evicted_total":    "epochs.evicted",
		"dcs_center_shed_epochs_total":       "epochs.shed",
	}
	r := startRun(t, Config{Shards: 1, ShardOf: -1, Stats: true, Center: center.Config{
		SubsetSize: 64, OwnsEpoch: func(e int) bool { return e != 9 },
	}})
	send(t, r.tcp, r.http, 0, []transport.Message{dg(1, 1), dg(2, 1)})
	// A resend under DupKeepLast is replaced; epoch 9 fails the shard
	// predicate. Neither is ingested.
	c, err := transport.Dial(r.tcp, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range []transport.Message{dg(1, 1), dg(1, 9)} {
		if err := c.Send(m); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	// Tick until epoch 1, the only one buffered, is analyzed: from then on no
	// counter moves, so the scrape and the shutdown's -stats line read the
	// same books.
	var samples map[string]float64
	waitFor(t, "the replaced and misrouted digests and epoch 1's report", func() bool {
		select {
		case r.ticks <- time.Now():
		default:
		}
		samples = scrape(r.http)
		return samples["dcs_center_digests_replaced_total"] == 1 && samples["dcs_center_digests_misrouted_total"] == 1 &&
			samples["dcs_center_epochs_analyzed_total"] == 1
	})
	r.stop(t)

	logs := r.logs.String()
	i := strings.LastIndex(logs, "stats: frames in=")
	if i < 0 {
		t.Fatalf("no -stats line\n%s", logs)
	}
	line := strings.TrimPrefix(strings.SplitN(logs[i:], "\n", 2)[0], "stats: ")
	printed := map[string]string{}
	for _, section := range strings.Split(line, "; ") {
		words := strings.Fields(section)
		for _, kv := range words[1:] {
			k, v, _ := strings.Cut(kv, "=")
			printed[words[0]+"."+k] = v
		}
	}
	for name, v := range samples {
		if !strings.HasPrefix(name, "dcs_center_") || !strings.HasSuffix(name, "_total") ||
			strings.HasPrefix(name, "dcs_center_epochs_closed_") {
			continue
		}
		key, ok := keys[name]
		if !ok {
			t.Errorf("%s has no -stats key", name)
			continue
		}
		if want := fmt.Sprint(v); printed[key] != want {
			t.Errorf("-stats %s = %q, want %s (%s)\n%s", key, printed[key], want, name, line)
		}
	}
}

// TestRunCoordinatorMergesOnGatherWithoutTicks: a shard's report envelope is
// merged and logged when it is gathered, not at the coordinator's next tick.
func TestRunCoordinatorMergesOnGatherWithoutTicks(t *testing.T) {
	shardSink, err := transport.Serve("127.0.0.1:0", func(transport.Message, net.Addr) {})
	if err != nil {
		t.Fatal(err)
	}
	defer shardSink.Close()
	r := startRun(t, Config{ShardOf: -1, Shards: 1, Coordinator: shardSink.Addr()})
	frame, err := shard.EncodeReport(shard.Envelope{Shard: 0, Report: center.WindowReport{Epoch: 1, Routers: 1}})
	if err != nil {
		t.Fatal(err)
	}
	c, err := transport.Dial(r.tcp, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range []transport.Message{dg(1, 1), frame} {
		if err := c.Send(m); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "the merged report with no tick", func() bool {
		return strings.Contains(r.logs.String(), "epoch 1: fewer than two routers reported")
	})
	r.stop(t)
}
