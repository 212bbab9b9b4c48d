package daemon

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"dcstream/internal/center"
	"dcstream/internal/transport"
)

func TestEventLogEmit(t *testing.T) {
	c := center.New(center.Config{MinRouters: 3, MaxWait: 1})
	c.Ingest(transport.AlignedDigest{RouterID: 1, Epoch: 2, Bitmap: testBitmap(10)})
	c.Ingest(transport.AlignedDigest{RouterID: 2, Epoch: 2, Bitmap: testBitmap(11)})
	rep, err := c.Analyze(2)
	if err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	ev := newEventLog(&buf)
	ev.attachStats(c.Stats())
	if err := ev.emit(rep, 1500*time.Microsecond); err != nil {
		t.Fatal(err)
	}

	var got epochEvent
	if err := json.Unmarshal(buf.Bytes(), &got); err != nil {
		t.Fatalf("event is not one JSON object: %v\n%s", err, buf.String())
	}
	if got.Epoch != 2 || got.Routers != 2 {
		t.Fatalf("event = %+v, want epoch 2 with 2 routers", got)
	}
	if !got.Degraded {
		t.Fatal("window closed below MinRouters=3 but the event is not degraded")
	}
	if got.Aligned == nil || got.Unaligned != nil {
		t.Fatalf("event outcomes = %+v, want aligned only", got)
	}
	if got.WallMS != 1.5 {
		t.Fatalf("wall_ms = %v, want 1.5", got.WallMS)
	}
	if got.SpanStart != 2 || len(got.SpanEpochs) != 1 || got.SpanEpochs[0] != 2 ||
		len(got.RetiredEpochs) != 1 || got.RetiredEpochs[0] != 2 {
		t.Fatalf("span fields = start %d epochs %v retired %v, want all epoch 2",
			got.SpanStart, got.SpanEpochs, got.RetiredEpochs)
	}
	// One analysis has run, so the attached histograms must yield nonzero
	// running quantiles on every event.
	if got.IngestToAnalyzeP50MS <= 0 || got.IngestToAnalyzeP99MS < got.IngestToAnalyzeP50MS {
		t.Fatalf("ingest-to-analyze quantiles p50=%v p99=%v", got.IngestToAnalyzeP50MS, got.IngestToAnalyzeP99MS)
	}
	if got.FinalizeP50MS <= 0 || got.FinalizeP99MS < got.FinalizeP50MS {
		t.Fatalf("finalize quantiles p50=%v p99=%v", got.FinalizeP50MS, got.FinalizeP99MS)
	}
	// The log is JSONL: exactly one newline-terminated line per event.
	if lines := strings.Count(buf.String(), "\n"); lines != 1 {
		t.Fatalf("one event produced %d lines", lines)
	}
}

func TestEventLogFileAppend(t *testing.T) {
	path := filepath.Join(t.TempDir(), "events.jsonl")

	for i := 0; i < 2; i++ { // two opens: restarts must append, not truncate
		ev, err := openEventLog(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := ev.emit(center.WindowReport{Epoch: i}, time.Millisecond); err != nil {
			t.Fatal(err)
		}
		if err := ev.Close(); err != nil {
			t.Fatal(err)
		}
	}

	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	if len(lines) != 2 {
		t.Fatalf("got %d events after a simulated restart, want 2:\n%s", len(lines), data)
	}
	for i, line := range lines {
		var e epochEvent
		if err := json.Unmarshal([]byte(line), &e); err != nil {
			t.Fatalf("line %d does not decode: %v", i, err)
		}
		if e.Epoch != i {
			t.Fatalf("line %d has epoch %d, want %d", i, e.Epoch, i)
		}
	}

	// A nil event log (no -events flag) must be a safe no-op to close.
	var nilLog *eventLog
	if err := nilLog.Close(); err != nil {
		t.Fatal(err)
	}
}
