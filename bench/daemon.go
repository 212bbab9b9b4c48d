//go:build linux

package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"

	"dcstream/internal/metrics"
)

// findRoot walks up from the working directory to the module root, so the
// benchmark runs from the root (go run ./bench) and from its own directory
// (go test).
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if b, err := os.ReadFile(filepath.Join(dir, "go.mod")); err == nil && bytes.HasPrefix(b, []byte("module dcstream\n")) {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("module dcstream not found above the working directory")
		}
		dir = parent
	}
}

// outDir is where the benchmark writes: the built daemon, per-run scratch
// directories and the trace files. It is inside the checkout and ignored by
// git.
func outDir(root string) string { return filepath.Join(root, "bench", "out") }

// buildDaemon compiles cmd/dcsd from the checkout's source.
func buildDaemon(root string) (string, error) {
	bin := filepath.Join(outDir(root), "bin", "dcsd")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/dcsd")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("go build ./cmd/dcsd: %w\n%s", err, out)
	}
	return bin, nil
}

// stamped is one -events line with its arrival time.
type stamped struct {
	ev event
	at time.Time
}

// daemon is one running dcsd under test.
type daemon struct {
	cmd      *exec.Cmd
	dir      string // scratch: journal/, events.fifo, stdout.log, stderr.log
	tcpAddr  string
	udpAddr  string
	httpAddr string

	fifo       *os.File
	events     chan stamped // every -events line, stamped on arrival by the reader goroutine
	readerDone chan struct{}
	stopped    bool
}

var httpLine = regexp.MustCompile(`dcsd http endpoints on (\S+)`)

// startDaemon starts dcsd with the benchmark's fixed flags (journal with
// fsync, incremental analysis, 50ms tick, quorum at the whole fleet) plus the
// workload's own. maxEvents sizes the event channel so the reader never
// blocks on the driver.
func startDaemon(bin, root string, w workload, maxEvents int) (*daemon, error) {
	if err := os.MkdirAll(outDir(root), 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(outDir(root), "run-")
	if err != nil {
		return nil, err
	}
	// The FIFO is opened read-write so the open never waits for the daemon
	// and the reader never sees end-of-file between writers; closing it is
	// what stops the reader.
	fifoPath := filepath.Join(dir, "events.fifo")
	err = syscall.Mkfifo(fifoPath, 0o600)
	var fifo *os.File
	if err == nil {
		fifo, err = os.OpenFile(fifoPath, os.O_RDWR, 0)
	}
	if err != nil {
		removeScratch(dir)
		return nil, fmt.Errorf("events fifo: %w", err)
	}
	d := &daemon{dir: dir, fifo: fifo, events: make(chan stamped, maxEvents), readerDone: make(chan struct{})}
	go d.readEvents()
	fail := func(err error) (*daemon, error) {
		d.stop()
		return nil, err
	}

	args := []string{
		"-listen", "127.0.0.1:0",
		"-http", "127.0.0.1:0",
		"-journal", filepath.Join(dir, "journal"),
		"-events", fifoPath,
		"-window", tick.String(),
		"-min-routers", strconv.Itoa(w.fleet),
		"-max-wait", strconv.Itoa(maxWait),
	}
	if w.udp {
		args = append(args, "-udp", "127.0.0.1:0")
	}
	args = append(args, w.daemonFlags()...)

	// The daemon logs a line per digest; both streams go to files, never to
	// a pipe nobody drains.
	stdout, err := os.Create(filepath.Join(dir, "stdout.log"))
	if err != nil {
		return fail(err)
	}
	defer stdout.Close()
	stderr, err := os.Create(filepath.Join(dir, "stderr.log"))
	if err != nil {
		return fail(err)
	}
	defer stderr.Close()

	d.cmd = exec.Command(bin, args...)
	d.cmd.Stdout, d.cmd.Stderr = stdout, stderr
	// Own process group, so stop can kill whatever the daemon started; the
	// parent-death signal covers a benchmark that is itself killed. That
	// signal follows the creating thread, so the goroutine is pinned to its
	// thread for good.
	runtime.LockOSThread()
	d.cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true, Pdeathsig: syscall.SIGKILL}
	if err := onDaemonCPU(d.cmd.Start); err != nil {
		if d.cmd.Process == nil {
			d.cmd = nil
		}
		return fail(fmt.Errorf("start dcsd: %w", err))
	}

	want := 1
	if w.udp {
		want = 2
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		out, _ := os.ReadFile(filepath.Join(dir, "stdout.log"))
		logs, _ := os.ReadFile(filepath.Join(dir, "stderr.log"))
		addrs := strings.Fields(string(out))
		if m := httpLine.FindSubmatch(logs); m != nil && len(addrs) >= want {
			d.tcpAddr, d.httpAddr = addrs[0], string(m[1])
			if w.udp {
				d.udpAddr = addrs[1]
			}
			return d, nil
		}
		if time.Now().After(deadline) {
			return fail(fmt.Errorf("dcsd did not come up within 10s; stderr:\n%s", logs))
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// readEvents stamps each -events line as it arrives.
func (d *daemon) readEvents() {
	defer close(d.readerDone)
	r := bufio.NewReaderSize(d.fifo, 1<<16)
	for {
		line, err := r.ReadBytes('\n')
		at := time.Now()
		if err != nil {
			return // FIFO closed by stop
		}
		var ev event
		if json.Unmarshal(line, &ev) != nil {
			ev.Epoch = -1 // surfaces as an unexpected report
		}
		d.events <- stamped{ev: ev, at: at}
	}
}

// scrape reads the daemon's /metrics.
func (d *daemon) scrape() (map[string]float64, error) {
	resp, err := http.Get("http://" + d.httpAddr + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	return metrics.ParseText(resp.Body)
}

// procStat is the daemon's processor time and peak resident set.
type procStat struct {
	user, sys time.Duration
	peakRSSMB float64
}

func (p procStat) cpu() time.Duration { return p.user + p.sys }

// clockTick is USER_HZ, which Linux fixes at 100 for every architecture Go
// runs on.
const clockTick = 10 * time.Millisecond

func (d *daemon) procStat() (procStat, error) {
	pid := strconv.Itoa(d.cmd.Process.Pid)
	b, err := os.ReadFile("/proc/" + pid + "/stat")
	if err != nil {
		return procStat{}, err
	}
	// Fields after the parenthesised command name; utime and stime are the
	// 14th and 15th overall.
	rest := string(b[bytes.LastIndexByte(b, ')')+2:])
	f := strings.Fields(rest)
	if len(f) < 13 {
		return procStat{}, fmt.Errorf("short /proc/%s/stat", pid)
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return procStat{}, fmt.Errorf("bad /proc/%s/stat times", pid)
	}
	ps := procStat{user: time.Duration(ut) * clockTick, sys: time.Duration(st) * clockTick}
	status, err := os.ReadFile("/proc/" + pid + "/status")
	if err != nil {
		return procStat{}, err
	}
	for _, line := range strings.Split(string(status), "\n") {
		if kb, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			n, _ := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(kb), " kB"), 64)
			ps.peakRSSMB = n / 1024
		}
	}
	return ps, nil
}

// logLines counts the per-digest lines in the daemon's log.
func (d *daemon) logLines() (int, error) {
	b, err := os.ReadFile(filepath.Join(d.dir, "stderr.log"))
	if err != nil {
		return 0, err
	}
	return bytes.Count(b, []byte(" digest from router ")), nil
}

// termGrace is how long a daemon gets to act on SIGTERM (it analyzes what it
// still buffers, a fraction of a second here) before its group is killed.
const termGrace = 2 * time.Second

// stop terminates the daemon (SIGTERM, then SIGKILL to its process group),
// stops the reader and removes the scratch directory. Safe to call twice.
func (d *daemon) stop() {
	if d.stopped {
		return
	}
	d.stopped = true
	if d.cmd != nil {
		_ = d.cmd.Process.Signal(syscall.SIGTERM)
		exited := make(chan struct{})
		go func() {
			_ = d.cmd.Wait()
			close(exited)
		}()
		select {
		case <-exited:
		case <-time.After(termGrace):
		}
		// The group is killed either way: after a clean exit it is empty and
		// the call is a no-op.
		_ = syscall.Kill(-d.cmd.Process.Pid, syscall.SIGKILL)
		<-exited
	}
	_ = d.fifo.Close()
	<-d.readerDone
	removeScratch(d.dir)
}

// keepScratch (-keep) leaves the scratch directories — the daemon's log, its
// journal — behind for a post-mortem.
var keepScratch bool

func removeScratch(dir string) {
	if !keepScratch {
		_ = os.RemoveAll(dir)
	}
}
