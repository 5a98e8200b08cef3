package main

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"presp/internal/leakcheck"
)

func TestMain(m *testing.M) { leakcheck.VerifyTestMain(m) }

func TestParseCLI(t *testing.T) {
	t.Run("defaults", func(t *testing.T) {
		o, err := parseCLI(nil)
		if err != nil {
			t.Fatal(err)
		}
		if o.addr != "localhost:8080" || o.workers != 2 || o.queue != 64 {
			t.Errorf("defaults = %+v", o)
		}
		if o.drainTimeout != 30*time.Second || o.retryAfter != time.Second {
			t.Errorf("default durations = %+v", o)
		}
	})
	t.Run("overrides", func(t *testing.T) {
		o, err := parseCLI([]string{
			"-addr", ":9000", "-workers", "8", "-queue", "128",
			"-job-workers", "4",
			"-drain-timeout", "5s", "-retry-after", "2s",
		})
		if err != nil {
			t.Fatal(err)
		}
		if o.addr != ":9000" || o.workers != 8 || o.queue != 128 ||
			o.jobWorkers != 4 ||
			o.drainTimeout != 5*time.Second || o.retryAfter != 2*time.Second {
			t.Errorf("parsed = %+v", o)
		}
	})
	t.Run("cache flags", func(t *testing.T) {
		o, err := parseCLI([]string{"-cache-dir", "/tmp/ckpt", "-cache-max-mb", "64"})
		if err != nil {
			t.Fatal(err)
		}
		if o.cacheDir != "/tmp/ckpt" || o.cacheMaxMB != 64 {
			t.Errorf("cache flags = %+v", o)
		}
	})
	t.Run("durability flags", func(t *testing.T) {
		o, err := parseCLI([]string{
			"-state-dir", "/tmp/state", "-job-stall-timeout", "5m",
			"-stall-requeues", "2", "-breaker-threshold", "3", "-breaker-cooldown", "10s",
		})
		if err != nil {
			t.Fatal(err)
		}
		if o.stateDir != "/tmp/state" || o.stallTimeout != 5*time.Minute ||
			o.stallReq != 2 || o.breakerN != 3 || o.breakerCool != 10*time.Second {
			t.Errorf("durability flags = %+v", o)
		}
	})
	t.Run("smoke forces ephemeral loopback", func(t *testing.T) {
		o, err := parseCLI([]string{"-smoke", "-addr", ":80"})
		if err != nil {
			t.Fatal(err)
		}
		if o.addr != "127.0.0.1:0" {
			t.Errorf("smoke addr = %q, want 127.0.0.1:0", o.addr)
		}
	})
	for _, bad := range [][]string{
		{"-workers", "0"},
		{"-queue", "-1"},
		{"-job-workers", "-2"},
		{"-drain-timeout", "0s"},
		{"-cache-max-mb", "-1"},
		{"-cache-max-mb", "64"}, // byte budget without -cache-dir
		{"-job-stall-timeout", "-1s"},
		{"-stall-requeues", "-1"},
		{"-breaker-threshold", "-1"},
		{"-breaker-cooldown", "0s"},
		{"stray-positional"},
		{"-no-such-flag"},
	} {
		if _, err := parseCLI(bad); err == nil {
			t.Errorf("parseCLI(%v) accepted, want error", bad)
		}
	}
}

// TestSmokeMode boots the daemon exactly as `make serve-smoke` does:
// ephemeral port, one real job through the HTTP API, graceful drain.
func TestSmokeMode(t *testing.T) {
	o, err := parseCLI([]string{"-smoke"})
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	if err := run(ctx, o, &out); err != nil {
		t.Fatalf("run -smoke: %v\noutput:\n%s", err, out.String())
	}
	for _, want := range []string{"listening on http://127.0.0.1:", "draining", "smoke ok"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output missing %q:\n%s", want, out.String())
		}
	}
}

// TestSmokeModeWarmRestart: with -cache-dir, smoke mode appends the
// restart leg — a second daemon over the same directory must serve the
// identical spec from the persistent tier with matching bitstream CRCs.
func TestSmokeModeWarmRestart(t *testing.T) {
	o, err := parseCLI([]string{"-smoke", "-cache-dir", t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	if err := run(ctx, o, &out); err != nil {
		t.Fatalf("run -smoke -cache-dir: %v\noutput:\n%s", err, out.String())
	}
	for _, want := range []string{"smoke restarting against", "smoke warm restart ok", "smoke ok"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output missing %q:\n%s", want, out.String())
		}
	}
}

// TestSmokeModeWithStateDir: -state-dir wires the job WAL into smoke
// mode — recovery on boot is a clean no-op, the run completes, and the
// job's records are durably on disk afterwards.
func TestSmokeModeWithStateDir(t *testing.T) {
	dir := t.TempDir()
	o, err := parseCLI([]string{"-smoke", "-state-dir", dir})
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	if err := run(ctx, o, &out); err != nil {
		t.Fatalf("run -smoke -state-dir: %v\noutput:\n%s", err, out.String())
	}
	fi, err := os.Stat(filepath.Join(dir, "jobs.wal"))
	if err != nil || fi.Size() == 0 {
		t.Fatalf("jobs.wal missing or empty after smoke: %v", err)
	}
}

// syncBuffer makes the daemon's log writer safe to read while run()
// is still writing from its own goroutine.
type syncBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

// TestRunDrainsOnSignalContext: cancelling the signal context (the
// SIGTERM path) drains and returns cleanly.
func TestRunDrainsOnSignalContext(t *testing.T) {
	o, err := parseCLI([]string{"-addr", "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	var out syncBuffer
	done := make(chan error, 1)
	go func() { done <- run(ctx, o, &out) }()

	deadline := time.Now().Add(10 * time.Second)
	for !strings.Contains(out.String(), "listening") {
		if time.Now().After(deadline) {
			t.Fatalf("server never came up:\n%s", out.String())
		}
		time.Sleep(5 * time.Millisecond)
	}
	cancel() // SIGTERM
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("run after signal: %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("run did not drain after signal")
	}
	if !strings.Contains(out.String(), "draining") {
		t.Errorf("no drain message:\n%s", out.String())
	}
}
