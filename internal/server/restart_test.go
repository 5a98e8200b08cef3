package server

import (
	"context"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"

	"presp/internal/obs"
	"presp/internal/vivado"
)

// diskCache builds a checkpoint cache backed by the persistent tier at
// dir — the wiring presp-served -cache-dir performs.
func diskCache(t *testing.T, dir string, o *obs.Observer) *vivado.CheckpointCache {
	t.Helper()
	store, err := vivado.OpenDiskStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	store.SetObserver(o)
	cache := vivado.NewCheckpointCache()
	cache.SetDiskStore(store)
	return cache
}

// bootDiskServer builds a server whose checkpoint cache is backed by the
// persistent tier at dir.
func bootDiskServer(t *testing.T, dir string) (*Server, *obs.Observer) {
	t.Helper()
	o := obs.New()
	return newTestServer(t, Config{Workers: 1, Cache: diskCache(t, dir, o), Observer: o}), o
}

// runJob submits spec, waits for success and returns the result summary.
func runJob(t *testing.T, s *Server, spec Spec) *ResultView {
	t.Helper()
	v, err := s.Submit("default", spec)
	if err != nil {
		t.Fatal(err)
	}
	done := waitState(t, s, "default", v.ID, StateSucceeded)
	if done.Result == nil {
		t.Fatal("succeeded job has no result")
	}
	return done.Result
}

// TestServerRestartWarmStart is the acceptance scenario for the disk
// tier: run a real flow through a daemon backed by -cache-dir, kill the
// daemon, restart against the same directory and resubmit the identical
// spec — the second run must be served entirely from the persistent
// tier (cache_disk_hits >= 1, zero synthesis misses) with byte-identical
// bitstream CRCs. A corrupted entry must be quarantined and recomputed,
// never loaded.
func TestServerRestartWarmStart(t *testing.T) {
	dir := t.TempDir()
	spec := Spec{Preset: "SOC_1", Compress: true}

	// First daemon: cold start, pays the syntheses, persists them.
	s1, _ := bootDiskServer(t, dir)
	cold := runJob(t, s1, spec)
	if len(cold.BitstreamCRCs) == 0 {
		t.Fatal("cold run produced no bitstream CRCs")
	}
	if !sort.StringsAreSorted(cold.BitstreamCRCs) {
		t.Fatalf("bitstream CRCs not sorted: %v", cold.BitstreamCRCs)
	}
	if cold.CacheMisses == 0 {
		t.Fatal("cold run paid no synthesis")
	}
	if err := s1.Shutdown(context.Background()); err != nil {
		t.Fatalf("kill: %v", err)
	}

	// Second daemon, same directory: the identical spec warm-starts.
	s2, o2 := bootDiskServer(t, dir)
	warm := runJob(t, s2, spec)
	if warm.CacheMisses != 0 {
		t.Fatalf("warm restart paid %d synthesis misses, want 0", warm.CacheMisses)
	}
	if !reflect.DeepEqual(warm.BitstreamCRCs, cold.BitstreamCRCs) {
		t.Fatalf("bitstreams diverged across restart:\ncold %v\nwarm %v",
			cold.BitstreamCRCs, warm.BitstreamCRCs)
	}
	snap := o2.Metrics().Snapshot()
	if snap.Counters["cache_disk_hits"] < 1 {
		t.Fatalf("cache_disk_hits = %d, want >= 1", snap.Counters["cache_disk_hits"])
	}
	if err := s2.Shutdown(context.Background()); err != nil {
		t.Fatalf("kill: %v", err)
	}

	// Corrupt one persisted entry: the third daemon must quarantine it at
	// open, recompute that synthesis, and still produce identical results.
	names, err := filepath.Glob(filepath.Join(dir, "*.ckpt"))
	if err != nil || len(names) == 0 {
		t.Fatalf("no persisted entries to corrupt (err %v)", err)
	}
	sort.Strings(names)
	victim := names[0]
	data, err := os.ReadFile(victim)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0x40
	if err := os.WriteFile(victim, data, 0o644); err != nil {
		t.Fatal(err)
	}

	s3, o3 := bootDiskServer(t, dir)
	again := runJob(t, s3, spec)
	if again.CacheMisses == 0 {
		t.Fatal("corrupted entry was served instead of recomputed")
	}
	if !reflect.DeepEqual(again.BitstreamCRCs, cold.BitstreamCRCs) {
		t.Fatalf("recomputed run diverged:\ncold  %v\nagain %v",
			cold.BitstreamCRCs, again.BitstreamCRCs)
	}
	snap = o3.Metrics().Snapshot()
	if snap.Counters["cache_disk_corrupt"] < 1 {
		t.Fatalf("cache_disk_corrupt = %d, want >= 1", snap.Counters["cache_disk_corrupt"])
	}
	if _, err := os.Stat(victim + ".bad"); err != nil {
		t.Fatalf("corrupt entry was not quarantined: %v", err)
	}
}
