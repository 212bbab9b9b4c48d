package daemon

import (
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"dcstream/internal/bitvec"
	"dcstream/internal/center"
	"dcstream/internal/faultinject/fsfault"
	"dcstream/internal/journal"
	"dcstream/internal/metrics"
	"dcstream/internal/shard"
	"dcstream/internal/transport"
)

func testBitmap(seed uint64) *bitvec.Vector {
	v := bitvec.New(256)
	s := seed
	v.FillRandomHalf(func() uint64 {
		s = s*6364136223846793005 + 1442695040888963407
		return s
	})
	return v
}

func TestHTTPEndpoints(t *testing.T) {
	c := center.New(center.Config{MinRouters: 2, MaxWait: 4})
	reg := metrics.NewRegistry()
	c.RegisterMetrics(reg)

	c.Ingest(transport.AlignedDigest{RouterID: 1, Epoch: 5, Bitmap: testBitmap(1)})
	c.Ingest(transport.AlignedDigest{RouterID: 2, Epoch: 5, Bitmap: testBitmap(2)})
	c.Ingest(transport.AlignedDigest{RouterID: 1, Epoch: 6, Bitmap: testBitmap(3)})

	ts := httptest.NewServer(newHTTPHandler(reg, c, httpDeps{}))
	defer ts.Close()

	// /metrics must parse and agree with the Stats snapshot.
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	samples, err := metrics.ParseText(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatalf("/metrics does not parse: %v", err)
	}
	if got := samples["dcs_center_digests_ingested_total"]; got != 3 {
		t.Fatalf("exposition says %v digests ingested, want 3", got)
	}
	if got := samples["dcs_center_buffered_epochs"]; got != 2 {
		t.Fatalf("exposition says %v buffered epochs, want 2", got)
	}
	// Epoch 6 has 1 of 2 known-live routers: the quorum gate holds it.
	if got := samples["dcs_center_quorum_held_epochs"]; got != 1 {
		t.Fatalf("exposition says %v quorum-held epochs, want 1", got)
	}

	// /healthz must report both buffered epochs with their quorum state.
	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Fatalf("healthz content-type %q", ct)
	}
	var h health
	err = json.NewDecoder(resp.Body).Decode(&h)
	resp.Body.Close()
	if err != nil {
		t.Fatalf("healthz does not decode: %v", err)
	}
	if h.Status != "ok" || len(h.Epochs) != 2 {
		t.Fatalf("healthz = %+v, want status ok with 2 epochs", h)
	}
	byEpoch := map[int]epochHealth{}
	for _, e := range h.Epochs {
		byEpoch[e.Epoch] = e
	}
	if e := byEpoch[5]; e.Digests != 2 || e.Reported != 2 || e.Held {
		t.Fatalf("healthz epoch 5 = %+v, want 2 digests, 2 reported, not held", e)
	}
	if e := byEpoch[6]; e.Digests != 1 || !e.Held || len(e.Missing) != 1 || e.Missing[0] != 2 {
		t.Fatalf("healthz epoch 6 = %+v, want 1 digest, held, missing router 2", e)
	}

	// /debug/pprof must answer (the index page is enough — profiles block).
	resp, err = http.Get(ts.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("pprof index status %d", resp.StatusCode)
	}
}

// TestHealthzReportsDegradation: a degraded journal flips /healthz to
// "degraded" with the unjournaled count, and shed epochs surface alongside
// the buffered-bytes figure — the probe sees every overload concession.
func TestHealthzReportsDegradation(t *testing.T) {
	// A two-digest budget (each 256-bit digest costs 144 accounted bytes)
	// sheds epoch 1 when epoch 2 fills.
	c := center.New(center.Config{Analysis: center.AnalysisBatch, MemoryBudgetBytes: 300, MaxEpochs: 8})
	c.Ingest(transport.AlignedDigest{RouterID: 1, Epoch: 1, Bitmap: testBitmap(1)})
	c.Ingest(transport.AlignedDigest{RouterID: 1, Epoch: 2, Bitmap: testBitmap(2)})
	c.Ingest(transport.AlignedDigest{RouterID: 2, Epoch: 2, Bitmap: testBitmap(3)})

	fs := fsfault.NewFS(nil)
	jr, err := journal.Open(t.TempDir(), journal.Options{FS: fs, RetryInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer jr.Close()
	fs.FailNext(fsfault.FaultWrite, 1, errors.New("no space left on device"))
	if err := jr.Append(transport.AlignedDigest{RouterID: 1, Epoch: 3, Bitmap: testBitmap(4)}); err == nil {
		t.Fatal("append through an injected ENOSPC succeeded")
	}

	ts := httptest.NewServer(newHTTPHandler(metrics.NewRegistry(), c, httpDeps{jr: jr}))
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var h health
	err = json.NewDecoder(resp.Body).Decode(&h)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if h.Status != "degraded" {
		t.Fatalf("healthz status %q with a degraded journal, want degraded", h.Status)
	}
	if h.Journal == nil || !h.Journal.Degraded || h.Journal.UnjournaledFrames != 1 || h.Journal.Cause == "" {
		t.Fatalf("healthz journal = %+v, want degraded with 1 unjournaled and a cause", h.Journal)
	}
	if h.ShedEpochs != 1 || h.BufferedBytes <= 0 {
		t.Fatalf("healthz shed_epochs=%d buffered_bytes=%d, want 1 shed and positive buffered", h.ShedEpochs, h.BufferedBytes)
	}
}

// nullSender satisfies shard.Sender for the coordinator healthz test.
type nullSender struct{}

func (nullSender) Send(transport.Message) error { return nil }

// TestHealthzShardRollup: in coordinator mode (nil center) /healthz carries
// one row per shard from the health ledger, and a single dead shard flips
// the whole payload to degraded.
func TestHealthzShardRollup(t *testing.T) {
	co := shard.NewCoordinator(shard.Partition{Shards: 2}, []shard.Sender{nullSender{}, nullSender{}})
	co.Route(transport.AlignedDigest{RouterID: 1, Epoch: 3, Bitmap: testBitmap(1)})
	ts := httptest.NewServer(newHTTPHandler(metrics.NewRegistry(), nil, httpDeps{co: co}))
	defer ts.Close()

	get := func() health {
		t.Helper()
		resp, err := http.Get(ts.URL + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		var h health
		err = json.NewDecoder(resp.Body).Decode(&h)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		return h
	}

	h := get()
	if h.Status != "ok" || len(h.Shards) != 2 {
		t.Fatalf("healthz = %+v, want status ok with 2 shard rows", h)
	}
	routed := shard.Partition{Shards: 2}.Owner(3)
	row := h.Shards[routed]
	if row.Routed != 1 || row.LastRoutedEpoch == nil || *row.LastRoutedEpoch != 3 {
		t.Fatalf("owner shard row = %+v, want 1 routed with last epoch 3", row)
	}
	if other := h.Shards[1-routed]; other.Routed != 0 || other.LastRoutedEpoch != nil {
		t.Fatalf("idle shard row = %+v, want nothing routed", other)
	}

	co.MarkDead(1 - routed)
	h = get()
	if h.Status != "degraded" {
		t.Fatalf("healthz status %q with a dead shard, want degraded", h.Status)
	}
	dead := h.Shards[1-routed]
	if !dead.Dead || dead.DegradedCause != "dead" {
		t.Fatalf("dead shard row = %+v, want Dead with cause dead", dead)
	}
}
