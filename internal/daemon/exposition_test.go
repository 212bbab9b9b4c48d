package daemon

import (
	"io"
	"net"
	"net/http"
	"path/filepath"
	"strings"
	"testing"

	"dcstream/internal/center"
	"dcstream/internal/transport"
)

// TestMetricsFamiliesGolden pins every /metrics family's name, TYPE and HELP
// line, values stripped, as two roles export them: a center with TCP, UDP and
// a journal, and a coordinator. Dashboards and bench/ read these names.
func TestMetricsFamiliesGolden(t *testing.T) {
	var out strings.Builder
	cfg := Config{Shards: 1, ShardOf: -1, UDP: "127.0.0.1:0", Journal: filepath.Join(t.TempDir(), "journal"),
		Center: center.Config{SubsetSize: 64}}
	out.WriteString("# center role: TCP, UDP and a journal\n")
	out.WriteString(families(t, startRun(t, cfg)))

	shardSink, err := transport.Serve("127.0.0.1:0", func(transport.Message, net.Addr) {})
	if err != nil {
		t.Fatal(err)
	}
	defer shardSink.Close()
	out.WriteString("# coordinator role\n")
	out.WriteString(families(t, startRun(t, Config{Shards: 1, ShardOf: -1, Coordinator: shardSink.Addr()})))
	checkGolden(t, filepath.Join("testdata", "metrics_families.txt"), []byte(out.String()))
}

// families scrapes the run's /metrics, stops the run, and returns the
// exposition's HELP and TYPE lines.
func families(t *testing.T, r *running) string {
	t.Helper()
	resp, err := http.Get("http://" + r.http + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	r.stop(t)
	var out strings.Builder
	for _, line := range strings.SplitAfter(string(body), "\n") {
		if strings.HasPrefix(line, "# ") {
			out.WriteString(line)
		}
	}
	return out.String()
}
