// Package memo is the experiment result cache that makes sweeps
// incremental: one simulated grid cell — a capture replayed against
// one (L1, L2) geometry — is a pure function of its key, so its
// whole-run cache.Stats can be memoized and replayed sweeps can skip
// every cell they have seen before. The key is (capture identity,
// canonical L1 config, canonical L2 config) plus the simulator code
// version baked into the cache, so a different capture, a geometry
// change, a policy/seed change, or a simulator change each miss
// naturally instead of serving stale results. A capture is identified
// either by how it is made (its provenance: code version, workload,
// direction), which a sweep knows before it captures, or by its
// content hash, for a trace read from a file.
//
// Values are raw cache.Stats, not derived metrics: perf.Compute is
// deterministic, so reconstructing a sweep point from memoized stats
// is byte-identical to simulating it. Correctness therefore never
// depends on the memo — it only removes work.
//
// The in-memory tier is bounded and evicts the least recently used
// entry; the order is kept by a fully-associative LRU cache.Cache with
// one line per entry. An optional directory tier persists every entry
// as one JSON file named by the key's hash, so warm starts survive
// process restarts; disk entries carry their version inside the file
// and are ignored (not deleted) on mismatch. Opening a directory
// removes the temp files of puts a crash cut short.
package memo

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"

	"repro/internal/cache"
	"repro/internal/obs"
)

// Memo metrics: process-wide totals across every memo cache (studies,
// service, coordinator). Per-cache counts come from Counters().
var (
	mHits      = obs.Default().Counter("memo_hits_total")
	mMisses    = obs.Default().Counter("memo_misses_total")
	mEvictions = obs.Default().Counter("memo_evictions_total")
)

// Key identifies one memoizable grid cell. TraceHash is the hex
// identity of the FULL capture the cell replays (a trace.Hash's
// String): either its provenance (harness.CaptureProvenance), for a
// capture a sweep makes itself, or its content hash (trace.Hash), for
// a trace already in hand. The two are SHA-256 digests of disjoint
// preimages, so they never collide; local and fleet sweeps of one
// workload compute the same one and share entries. L1 and L2 are the
// exact configurations the cell simulates; Get/Put canonicalize them
// (policy spelling, display name) so equal caches cannot miss on
// spelling.
type Key struct {
	TraceHash string       `json:"trace_hash"`
	L1        cache.Config `json:"l1"`
	L2        cache.Config `json:"l2"`
}

// normalize maps every spelling of the same cell to one map key: the
// policy's canonical form, and no display name (configs differing only
// in Name simulate identically).
func (k Key) normalize() Key {
	k.L1 = k.L1.Canonical()
	k.L1.Name = ""
	k.L2 = k.L2.Canonical()
	k.L2.Name = ""
	return k
}

// fileName is the key's disk identity: the SHA-256 of its canonical
// JSON. The version is deliberately NOT part of the name — an entry
// written by another code version sits at the same path and is
// rejected by content, which is what the poisoning tests pin.
func (k Key) fileName() string {
	raw, err := json.Marshal(k.normalize())
	if err != nil {
		panic(err) // Key is three plain structs; Marshal cannot fail
	}
	sum := sha256.Sum256(raw)
	return hex.EncodeToString(sum[:]) + ".json"
}

// Config parameterizes a Cache.
type Config struct {
	// Version names the simulator code the entries were produced by.
	// Disk entries recorded under any other version are ignored. Use
	// harness.CodeVersion unless testing the mechanism itself.
	Version string
	// MaxEntries bounds the in-memory tier. <= 0 means 4096.
	MaxEntries int
	// Dir, when non-empty, persists every entry as one JSON file and
	// serves in-memory misses from disk. Created if missing.
	Dir string
}

// Counters is one cache's accounting snapshot.
type Counters struct {
	Hits      uint64 `json:"hits"`
	Misses    uint64 `json:"misses"`
	Evictions uint64 `json:"evictions"`
}

// HitRate returns hits/(hits+misses), or 0 before any lookup.
func (c Counters) HitRate() float64 {
	if c.Hits+c.Misses == 0 {
		return 0
	}
	return float64(c.Hits) / float64(c.Hits+c.Misses)
}

// entryLine is the fake line size backing the eviction engine: each
// entry occupies one line at address seq<<entryShift, so engine line
// numbers map 1:1 to insertion sequence numbers.
const entryShift = 6

// Cache is the memo store. Safe for concurrent use. A nil *Cache is a
// valid always-miss cache, so callers can thread an optional memo
// without nil checks.
type Cache struct {
	cfg Config

	mu      sync.Mutex
	entries map[Key]cache.Stats
	addrOf  map[Key]uint64 // entry → its engine address
	keyAt   map[uint64]Key // engine line number → entry
	engine  *cache.Cache   // fully-associative; decides eviction order
	seq     uint64
	c       Counters
}

// New builds a memo cache. The eviction engine is a fully-associative
// LRU cache.Cache with one 64-byte line per entry.
func New(cfg Config) (*Cache, error) {
	if cfg.MaxEntries <= 0 {
		cfg.MaxEntries = 4096
	}
	engine, err := cache.TryNew(cache.Config{
		Name:      "memo",
		SizeBytes: cfg.MaxEntries << entryShift,
		LineBytes: 1 << entryShift,
		Ways:      cfg.MaxEntries,
	})
	if err != nil {
		return nil, fmt.Errorf("memo: eviction engine: %w", err)
	}
	if cfg.Dir != "" {
		if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
			return nil, fmt.Errorf("memo: %w", err)
		}
		removeOrphans(cfg.Dir)
	}
	return &Cache{
		cfg:     cfg,
		entries: map[Key]cache.Stats{},
		addrOf:  map[Key]uint64{},
		keyAt:   map[uint64]Key{},
		engine:  engine,
	}, nil
}

// Get returns the memoized stats for k. A hit refreshes the entry's
// recency; an in-memory miss with a directory configured consults disk
// and promotes a valid entry. Only entries recorded under the cache's
// exact code version are served.
func (c *Cache) Get(k Key) (cache.Stats, bool) {
	if c == nil {
		return cache.Stats{}, false
	}
	k = k.normalize()
	c.mu.Lock()
	if st, ok := c.entries[k]; ok {
		c.engine.Access(c.addrOf[k], false)
		c.c.Hits++
		c.mu.Unlock()
		mHits.Inc()
		return st, true
	}
	c.mu.Unlock()
	if st, ok := c.loadDisk(k); ok {
		c.insert(k, st)
		c.mu.Lock()
		c.c.Hits++
		c.mu.Unlock()
		mHits.Inc()
		return st, true
	}
	c.mu.Lock()
	c.c.Misses++
	c.mu.Unlock()
	mMisses.Inc()
	return cache.Stats{}, false
}

// Put memoizes stats for k in memory (possibly evicting) and, with a
// directory configured, on disk. Re-putting a key refreshes its value
// and recency. Disk write failures are ignored: the memo is an
// optimization, never a correctness dependency.
func (c *Cache) Put(k Key, st cache.Stats) {
	if c == nil {
		return
	}
	k = k.normalize()
	c.insert(k, st)
	if c.cfg.Dir != "" {
		c.storeDisk(k, st)
	}
}

// insert adds or refreshes one in-memory entry, delegating the victim
// choice to the eviction engine.
func (c *Cache) insert(k Key, st cache.Stats) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.entries[k]; ok {
		c.entries[k] = st
		c.engine.Access(c.addrOf[k], false)
		return
	}
	addr := c.seq << entryShift
	c.seq++
	if res := c.engine.Access(addr, false); res.Evicted {
		victim := c.keyAt[res.EvictedLine]
		delete(c.entries, victim)
		delete(c.addrOf, victim)
		delete(c.keyAt, res.EvictedLine)
		c.c.Evictions++
		mEvictions.Inc()
	}
	c.entries[k] = st
	c.addrOf[k] = addr
	c.keyAt[addr>>entryShift] = k
}

// Len returns the in-memory entry count.
func (c *Cache) Len() int {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// Counters returns this cache's accounting snapshot.
func (c *Cache) Counters() Counters {
	if c == nil {
		return Counters{}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.c
}

// diskEntry is the persisted form. The version lives INSIDE the file,
// not in its name: a stale or poisoned entry is found and then
// rejected by content, never trusted because its path looked right.
type diskEntry struct {
	Version string      `json:"version"`
	Key     Key         `json:"key"`
	Stats   cache.Stats `json:"stats"`
}

// loadDisk serves an in-memory miss from the directory tier. Anything
// questionable — unreadable file, malformed JSON, version or key
// mismatch — is a miss; the simulator recomputes and overwrites.
func (c *Cache) loadDisk(k Key) (cache.Stats, bool) {
	if c.cfg.Dir == "" {
		return cache.Stats{}, false
	}
	raw, err := os.ReadFile(filepath.Join(c.cfg.Dir, k.fileName()))
	if err != nil {
		return cache.Stats{}, false
	}
	var e diskEntry
	if json.Unmarshal(raw, &e) != nil || e.Version != c.cfg.Version || e.Key.normalize() != k {
		return cache.Stats{}, false
	}
	return e.Stats, true
}

// removeOrphans deletes the temp files of puts that never reached
// their rename, which a crash inside storeDisk leaves behind. Puts are
// best effort, so a temp file removed from under a concurrent writer
// only loses that put.
func removeOrphans(dir string) {
	des, err := os.ReadDir(dir)
	if err != nil {
		return
	}
	for _, de := range des {
		if ok, _ := filepath.Match(tempPattern, de.Name()); ok && de.Type().IsRegular() {
			os.Remove(filepath.Join(dir, de.Name()))
		}
	}
}

// tempPattern names storeDisk's temp files.
const tempPattern = "put-*.tmp"

// storeDisk persists one entry atomically (temp file + rename), so a
// concurrent reader never sees a torn entry and a crash never leaves
// one behind as valid JSON.
func (c *Cache) storeDisk(k Key, st cache.Stats) {
	raw, err := json.Marshal(diskEntry{Version: c.cfg.Version, Key: k, Stats: st})
	if err != nil {
		return
	}
	f, err := os.CreateTemp(c.cfg.Dir, tempPattern)
	if err != nil {
		return
	}
	tmp := f.Name()
	_, werr := f.Write(raw)
	if cerr := f.Close(); werr != nil || cerr != nil {
		os.Remove(tmp)
		return
	}
	if os.Rename(tmp, filepath.Join(c.cfg.Dir, k.fileName())) != nil {
		os.Remove(tmp)
	}
}
