package vivado

import (
	"container/list"
	"fmt"
	"math"
	"sync"

	"presp/internal/fpga"
	"presp/internal/rtl"
)

// CheckpointCache is a content-addressed store of synthesis checkpoints
// shared across tool instances and flow runs. A synthesis result is
// fully determined by the target device, the module hierarchy (names,
// interfaces, black-box structure and per-module resource costs), the
// out-of-context flag and the cost model's synthesis parameters — the
// cache key digests exactly those, so any change to a module's resources,
// its hierarchy, the device or the model invalidates the entry.
//
// The cache is bounded by an LRU eviction policy when MaxEntries is
// set (SetMaxEntries; the default is unbounded, preserving the
// original behaviour), so long strategy sweeps and resumed runs cannot
// grow memory without limit. Evictions only cost future re-synthesis
// time — a checkpoint is pure derived state.
//
// The cache is safe for concurrent use by the flow's worker pool.
// Checkpoints are deep-copied on both store and load, so callers can
// never mutate a cached entry through an aliased pointer.
//
// Concurrent misses on the same key are single-flighted (materialize):
// the first caller becomes the leader and pays the synthesis, every
// later caller waits on the flight and shares the leader's checkpoint —
// or its error. N flow runs racing on identical content therefore cost
// exactly one miss, which is what lets a shared flow service collapse
// duplicate submissions to one synthesis.
//
// An optional persistent tier (SetDiskStore) extends the cache across
// process restarts: every insert is written through to disk, a memory
// miss probes the disk before paying the compute (the probe rides the
// same single-flight, so a disk read promotes into memory exactly once
// per key however many callers race), and LRU eviction demotes an entry
// to disk-only instead of discarding it. Disk-served lookups count as
// hits — the whole point of the tier is that a restarted daemon's first
// submission costs file reads, not re-synthesis.
type CheckpointCache struct {
	mu        sync.Mutex
	max       int
	entries   map[string]*list.Element
	lru       *list.List // front = most recently used
	inflight  map[string]*flight
	disk      *DiskStore
	demoted   []*lruEntry // evicted entries pending a disk demotion write
	hits      int64
	misses    int64
	evictions int64
}

// flight is one in-progress materialization: the leader computes, the
// followers wait on done and read ck/err.
type flight struct {
	done chan struct{}
	ck   *SynthCheckpoint
	err  error
}

// flightRole reports how a materialize call was served.
type flightRole int

const (
	// roleHit: the checkpoint was already cached.
	roleHit flightRole = iota
	// roleLeader: this caller ran compute (a true miss).
	roleLeader
	// roleFollower: another caller was already computing the same key;
	// this one shared its outcome.
	roleFollower
)

// lruEntry is the list payload: the key rides along so eviction can
// delete the map entry from the list element alone.
type lruEntry struct {
	key string
	ck  *SynthCheckpoint
}

// NewCheckpointCache returns an empty, unbounded cache.
func NewCheckpointCache() *CheckpointCache {
	return &CheckpointCache{
		entries:  make(map[string]*list.Element),
		lru:      list.New(),
		inflight: make(map[string]*flight),
	}
}

// NewCheckpointCacheWithLimit returns an empty cache holding at most
// max checkpoints (max <= 0 means unbounded).
func NewCheckpointCacheWithLimit(max int) *CheckpointCache {
	c := NewCheckpointCache()
	c.SetMaxEntries(max)
	return c
}

// SetMaxEntries bounds the cache to max checkpoints, evicting the
// least-recently-used entries immediately if it is already over the
// limit. max <= 0 removes the bound.
func (c *CheckpointCache) SetMaxEntries(max int) {
	c.mu.Lock()
	if max < 0 {
		max = 0
	}
	c.max = max
	c.evict()
	disk, demoted := c.disk, c.takeDemotedLocked()
	c.mu.Unlock()
	writeDemoted(disk, demoted)
}

// SetDiskStore attaches the persistent checkpoint tier (nil detaches):
// inserts write through to it, misses read through it, and evictions
// demote to it. Attach before sharing the cache across goroutines or
// runs; swapping stores mid-traffic is safe but pointless.
func (c *CheckpointCache) SetDiskStore(ds *DiskStore) {
	c.mu.Lock()
	c.disk = ds
	c.mu.Unlock()
}

// Disk returns the attached persistent tier (nil when the cache is
// memory-only).
func (c *CheckpointCache) Disk() *DiskStore {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.disk
}

// MaxEntries returns the configured bound (0 = unbounded).
func (c *CheckpointCache) MaxEntries() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.max
}

// Stats returns the cumulative hit and miss counts.
func (c *CheckpointCache) Stats() (hits, misses int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses
}

// Evictions returns how many checkpoints the LRU policy has dropped.
func (c *CheckpointCache) Evictions() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.evictions
}

// Len returns the number of cached checkpoints.
func (c *CheckpointCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// lookup fetches a deep copy of the checkpoint under key, counting the
// access as a hit or miss and refreshing the entry's LRU position.
func (c *CheckpointCache) lookup(key string) (*SynthCheckpoint, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[key]
	if !ok {
		c.misses++
		return nil, false
	}
	c.hits++
	c.lru.MoveToFront(el)
	return el.Value.(*lruEntry).ck.clone(), true
}

// storeLocked saves a deep copy of ck under key, which must be absent
// (the caller's open flight guarantees it), and returns the cache-owned
// copy: callers may hand it to the disk tier (it is never mutated) but
// must clone it before handing it to cache clients. Callers hold c.mu.
func (c *CheckpointCache) storeLocked(key string, ck *SynthCheckpoint) *SynthCheckpoint {
	stored := ck.clone()
	c.entries[key] = c.lru.PushFront(&lruEntry{key: key, ck: stored})
	c.evict()
	return stored
}

// materialize returns the checkpoint under key, computing it at most
// once across concurrent callers. A cached entry is returned
// immediately (roleHit). Otherwise the first caller opens a flight:
// with a disk tier attached it first probes the store — a verified disk
// entry is promoted into memory and served as a hit (roleHit) without
// any compute — and only a two-tier miss makes it the leader
// (roleLeader): it counts the miss, runs compute outside the lock, and
// publishes the result — stored on success (write-through to the disk
// tier), discarded on error. Callers that arrive while the flight is
// open (roleFollower) wait and share the leader's outcome: a successful
// flight counts as a hit for each follower (refreshing the entry's LRU
// recency, so heavily-followed keys stay resident), a failed one
// propagates the leader's error to all of them without wedging the
// key — the next caller after a failure starts a fresh flight.
func (c *CheckpointCache) materialize(key string, compute func() (*SynthCheckpoint, error)) (*SynthCheckpoint, flightRole, error) {
	c.mu.Lock()
	if el, ok := c.entries[key]; ok {
		c.hits++
		c.lru.MoveToFront(el)
		ck := el.Value.(*lruEntry).ck.clone()
		c.mu.Unlock()
		return ck, roleHit, nil
	}
	if fl, ok := c.inflight[key]; ok {
		c.mu.Unlock()
		<-fl.done
		if fl.err != nil {
			return nil, roleFollower, fl.err
		}
		c.mu.Lock()
		c.hits++
		if el, ok := c.entries[key]; ok {
			// The follower's hit is an access like any other: without
			// this refresh a heavily-followed key would age toward
			// eviction while colder directly-hit keys stayed resident.
			c.lru.MoveToFront(el)
		}
		c.mu.Unlock()
		return fl.ck.clone(), roleFollower, nil
	}
	fl := &flight{done: make(chan struct{})}
	c.inflight[key] = fl
	disk := c.disk
	c.mu.Unlock()

	// Read through the disk tier before paying the compute. The probe
	// happens inside the flight, so concurrent callers of a disk-resident
	// key cost exactly one file read and one promotion into memory.
	if disk != nil {
		if ck, ok := disk.Load(key); ok {
			c.land(key, fl, ck, nil, true)
			return ck, roleHit, nil
		}
	}

	c.mu.Lock()
	c.misses++
	c.mu.Unlock()
	ck, err := compute()
	c.land(key, fl, ck, err, false)
	if err != nil {
		return nil, roleLeader, err
	}
	return ck, roleLeader, nil // the opener owns ck; no extra copy needed
}

// land closes a flight with its outcome: on success the checkpoint is
// stored, written through to the disk tier and published as the value
// every follower observes. hit marks a disk-served landing, which counts
// as a cache hit instead of a miss.
func (c *CheckpointCache) land(key string, fl *flight, ck *SynthCheckpoint, err error, hit bool) {
	c.mu.Lock()
	if err == nil {
		fl.ck = c.storeLocked(key, ck)
		if hit {
			c.hits++
		}
	} else {
		fl.err = err
	}
	delete(c.inflight, key)
	close(fl.done)
	disk, demoted := c.disk, c.takeDemotedLocked()
	c.mu.Unlock()
	if disk != nil && err == nil {
		disk.Store(key, fl.ck) //nolint:errcheck // best-effort durability tier
	}
	writeDemoted(disk, demoted)
}

// evict drops least-recently-used entries until the bound is met. With
// a disk tier attached the dropped entries are queued for demotion —
// the caller must flush them via takeDemotedLocked/writeDemoted after
// releasing the lock, so eviction never does file I/O under c.mu.
// Callers must hold c.mu.
func (c *CheckpointCache) evict() {
	if c.max <= 0 {
		return
	}
	for len(c.entries) > c.max {
		oldest := c.lru.Back()
		if oldest == nil {
			return
		}
		ent := oldest.Value.(*lruEntry)
		c.lru.Remove(oldest)
		delete(c.entries, ent.key)
		c.evictions++
		if c.disk != nil {
			c.demoted = append(c.demoted, ent)
		}
	}
}

// takeDemotedLocked drains the pending demotion queue. Callers hold
// c.mu and pass the result to writeDemoted after unlocking.
func (c *CheckpointCache) takeDemotedLocked() []*lruEntry {
	d := c.demoted
	c.demoted = nil
	return d
}

// writeDemoted flushes evicted entries to the disk tier. The entries
// left the LRU already, so nothing else aliases their checkpoints; the
// write is best-effort (content-addressed keys make a lost demotion
// only a future re-synthesis, never a correctness problem) and usually
// a Stat no-op, since a write-through insert already persisted the key.
func writeDemoted(disk *DiskStore, entries []*lruEntry) {
	if disk == nil {
		return
	}
	for _, e := range entries {
		disk.Store(e.key, e.ck) //nolint:errcheck // best-effort durability tier
	}
}

// clone deep-copies a checkpoint.
func (ck *SynthCheckpoint) clone() *SynthCheckpoint {
	out := *ck
	out.BlackBoxes = append([]string(nil), ck.BlackBoxes...)
	return &out
}

// checkpointKey digests everything a synthesis run depends on into an
// FNV-1a content hash: device identity and capacity, the cost model's
// synthesis-time parameters (a checkpoint's Runtime is model-dependent),
// the OoC flag and the full module hierarchy with per-module interfaces
// and resource signatures.
func checkpointKey(dev *fpga.Device, model *CostModel, m *rtl.Module, ooc bool) string {
	h := newFNV()
	h.str(dev.Name)
	for _, n := range dev.Total {
		h.u64(uint64(n))
	}
	h.f64(model.SynthBase)
	h.f64(model.SynthPerK)
	h.f64(model.SynthExp)
	h.f64(model.SynthOoCFactor)
	h.f64(model.JitterFrac)
	h.u64(model.JitterSeed)
	if ooc {
		h.str("ooc")
	}
	m.Walk(func(path string, mod *rtl.Module) {
		h.str(path)
		h.str(mod.Name)
		if mod.BlackBox {
			h.str("bb")
		}
		if mod.ClockModifying {
			h.str("ckmod")
		}
		for _, p := range mod.Ports {
			h.str(p.Name)
			h.u64(uint64(p.Dir))
			h.u64(uint64(p.Width))
			h.u64(uint64(p.Class))
		}
		for _, r := range mod.Cost {
			h.u64(uint64(r))
		}
	})
	return fmt.Sprintf("%016x", uint64(*h))
}

// fnv is an incremental FNV-1a 64-bit hasher with field separators.
type fnv uint64

func newFNV() *fnv {
	h := fnv(1469598103934665603)
	return &h
}

func (h *fnv) byte(b byte) {
	*h = (*h ^ fnv(b)) * 1099511628211
}

func (h *fnv) str(s string) {
	for i := 0; i < len(s); i++ {
		h.byte(s[i])
	}
	h.byte(0xff) // separator: ("ab","c") != ("a","bc")
}

func (h *fnv) u64(v uint64) {
	for i := 0; i < 8; i++ {
		h.byte(byte(v >> (8 * i)))
	}
}

func (h *fnv) f64(v float64) {
	h.u64(math.Float64bits(v))
}
