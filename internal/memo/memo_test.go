package memo

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/cache"
)

func testKey(i int) Key {
	return Key{
		TraceHash: fmt.Sprintf("%064d", i),
		L1:        cache.Config{SizeBytes: 32 << 10, LineBytes: 32, Ways: 2},
		L2:        cache.Config{SizeBytes: 1 << 20, LineBytes: 128, Ways: 2},
	}
}

func testStats(i int) cache.Stats {
	return cache.Stats{Loads: uint64(i) + 1, L2Misses: uint64(i) * 7}
}

// TestMemoRoundTrip: put → get returns the exact stats; a get of an
// absent key misses; counters account both.
func TestMemoRoundTrip(t *testing.T) {
	m, err := New(Config{Version: "v1"})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := m.Get(testKey(1)); ok {
		t.Fatal("empty cache served a hit")
	}
	m.Put(testKey(1), testStats(1))
	st, ok := m.Get(testKey(1))
	if !ok || st != testStats(1) {
		t.Fatalf("get = %+v, %v", st, ok)
	}
	if c := m.Counters(); c.Hits != 1 || c.Misses != 1 || c.Evictions != 0 {
		t.Fatalf("counters = %+v", c)
	}
}

// TestMemoKeyCanonicalization: the "" and "lru" policy spellings, and
// display names, name the same cell.
func TestMemoKeyCanonicalization(t *testing.T) {
	m, err := New(Config{Version: "v1"})
	if err != nil {
		t.Fatal(err)
	}
	k := testKey(1)
	k.L1.Policy = ""
	k.L1.Name = "dcache"
	m.Put(k, testStats(1))

	k2 := testKey(1)
	k2.L1.Policy = cache.PolicyLRU
	k2.L1.Name = "other"
	if _, ok := m.Get(k2); !ok {
		t.Fatal("canonically equal key missed")
	}
	k3 := testKey(1)
	k3.L1.Policy = cache.PolicyFIFO
	if _, ok := m.Get(k3); ok {
		t.Fatal("different policy hit the lru entry")
	}
}

// TestMemoKeyCoversEveryConfigField: every cache.Config field but Name
// reaches both the in-memory key and the disk file name, so a new
// geometry or policy knob cannot silently share another cell's entry.
// A field tagged json:"-", or one normalize drops, fails here.
func TestMemoKeyCoversEveryConfigField(t *testing.T) {
	base := testKey(1)
	cfgType := reflect.TypeOf(cache.Config{})
	for _, level := range []string{"L1", "L2"} {
		for i := 0; i < cfgType.NumField(); i++ {
			field := cfgType.Field(i)
			k := base
			v := reflect.ValueOf(&k).Elem().FieldByName(level).Field(i)
			switch v.Kind() {
			case reflect.String:
				v.SetString(v.String() + "x")
			case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
				v.SetInt(v.Int() + 1)
			case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
				v.SetUint(v.Uint() + 1)
			case reflect.Bool:
				v.SetBool(!v.Bool())
			default:
				t.Fatalf("%s.%s has kind %s: teach this test to change it", level, field.Name, v.Kind())
			}
			sameKey := k.normalize() == base.normalize()
			sameFile := k.fileName() == base.fileName()
			if field.Name == "Name" {
				// Display names are dropped on purpose: equal caches
				// under different names are one cell.
				if !sameKey || !sameFile {
					t.Errorf("%s.Name changed the key (in memory %v, on disk %v)", level, !sameKey, !sameFile)
				}
				continue
			}
			if sameKey {
				t.Errorf("%s.%s does not reach the in-memory key", level, field.Name)
			}
			if sameFile {
				t.Errorf("%s.%s does not reach the disk file name", level, field.Name)
			}
		}
	}
}

// TestMemoEvictionLRU: the in-memory tier is bounded and a Get
// refreshes recency, so the least-recently-used entry is the victim.
func TestMemoEvictionLRU(t *testing.T) {
	m, err := New(Config{Version: "v1", MaxEntries: 2})
	if err != nil {
		t.Fatal(err)
	}
	m.Put(testKey(1), testStats(1))
	m.Put(testKey(2), testStats(2))
	if _, ok := m.Get(testKey(1)); !ok { // promote 1; 2 becomes LRU
		t.Fatal("lost entry 1")
	}
	m.Put(testKey(3), testStats(3))
	if _, ok := m.Get(testKey(2)); ok {
		t.Fatal("entry 2 should have been the LRU victim")
	}
	if _, ok := m.Get(testKey(1)); !ok {
		t.Fatal("promoted entry 1 was evicted")
	}
	if _, ok := m.Get(testKey(3)); !ok {
		t.Fatal("fresh entry 3 was evicted")
	}
	if c := m.Counters(); c.Evictions != 1 {
		t.Fatalf("evictions = %d, want 1", c.Evictions)
	}
	if m.Len() != 2 {
		t.Fatalf("len = %d, want 2", m.Len())
	}
}

// TestMemoDiskPersistence: entries survive into a fresh cache over the
// same directory — the warm-start contract of mp4study -memo-dir.
func TestMemoDiskPersistence(t *testing.T) {
	dir := t.TempDir()
	m1, err := New(Config{Version: "v1", Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	m1.Put(testKey(1), testStats(1))

	m2, err := New(Config{Version: "v1", Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	st, ok := m2.Get(testKey(1))
	if !ok || st != testStats(1) {
		t.Fatalf("warm start lost the entry: %+v, %v", st, ok)
	}
	if c := m2.Counters(); c.Hits != 1 {
		t.Fatalf("disk promote not counted as hit: %+v", c)
	}
}

// TestMemoPoisoning: disk entries recorded under a different code
// version — or whose embedded key disagrees with their path — are
// ignored, never served. This is the guard against a simulator change
// silently replaying stale results.
func TestMemoPoisoning(t *testing.T) {
	dir := t.TempDir()
	old, err := New(Config{Version: "v1", Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	old.Put(testKey(1), testStats(1))

	cur, err := New(Config{Version: "v2", Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := cur.Get(testKey(1)); ok {
		t.Fatal("entry from another code version was served")
	}

	// A hand-poisoned file: right version, wrong embedded key.
	raw, _ := json.Marshal(diskEntry{Version: "v2", Key: testKey(9), Stats: testStats(9)})
	if err := os.WriteFile(filepath.Join(dir, testKey(2).fileName()), raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := cur.Get(testKey(2)); ok {
		t.Fatal("entry whose key disagrees with its path was served")
	}

	// Torn/corrupt JSON is a miss, not an error.
	if err := os.WriteFile(filepath.Join(dir, testKey(3).fileName()), []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := cur.Get(testKey(3)); ok {
		t.Fatal("corrupt entry was served")
	}

	// Recomputing overwrites the stale entry for the current version.
	cur.Put(testKey(1), testStats(5))
	fresh, err := New(Config{Version: "v2", Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if st, ok := fresh.Get(testKey(1)); !ok || st != testStats(5) {
		t.Fatalf("overwritten entry not served: %+v, %v", st, ok)
	}
}

// TestMemoNilSafe: a nil cache is a valid always-miss memo.
func TestMemoNilSafe(t *testing.T) {
	var m *Cache
	m.Put(testKey(1), testStats(1))
	if _, ok := m.Get(testKey(1)); ok {
		t.Fatal("nil cache hit")
	}
	if m.Len() != 0 || m.Counters() != (Counters{}) {
		t.Fatal("nil cache has state")
	}
}

// TestMemoRemovesOrphanedTempFiles: a put cut short between its temp
// file and its rename leaves a put-*.tmp file; opening the directory
// removes it, and the complete entry beside it is still served.
func TestMemoRemovesOrphanedTempFiles(t *testing.T) {
	dir := t.TempDir()
	m1, err := New(Config{Version: "v1", Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	m1.Put(testKey(1), testStats(1))
	orphan := filepath.Join(dir, "put-123456.tmp")
	if err := os.WriteFile(orphan, []byte(`{"version":"v1","key":`), 0o644); err != nil {
		t.Fatal(err)
	}
	m2, err := New(Config{Version: "v1", Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(orphan); !os.IsNotExist(err) {
		t.Fatalf("orphaned temp file survived: %v", err)
	}
	if st, ok := m2.Get(testKey(1)); !ok || st != testStats(1) {
		t.Fatalf("entry beside the orphan: %+v, %v", st, ok)
	}
}

// FuzzMemoDiskEntry: whatever bytes sit at an entry's path, Get serves
// them only if they decode to exactly the cache's version and the
// entry's key, serves their stats unchanged, and never panics.
func FuzzMemoDiskEntry(f *testing.F) {
	entry := func(version string, k Key) []byte {
		raw, err := json.Marshal(diskEntry{Version: version, Key: k, Stats: testStats(1)})
		if err != nil {
			f.Fatal(err)
		}
		return raw
	}
	good := entry("v1", testKey(1))
	f.Add(good)
	f.Add(entry("v2", testKey(1)))
	f.Add(entry("v1", testKey(2)))
	f.Add(good[:len(good)/2])
	f.Add(append(append([]byte{}, good...), "{}"...))
	f.Add([]byte("null"))
	f.Add([]byte(`{"version":"v1","key":{"trace_hash":1}}`))
	f.Fuzz(func(t *testing.T, raw []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, testKey(1).fileName()), raw, 0o644); err != nil {
			t.Fatal(err)
		}
		m, err := New(Config{Version: "v1", Dir: dir})
		if err != nil {
			t.Fatal(err)
		}
		st, ok := m.Get(testKey(1))
		var e diskEntry
		valid := json.Unmarshal(raw, &e) == nil && e.Version == "v1" && e.Key.normalize() == testKey(1).normalize()
		if ok != valid {
			t.Fatalf("served = %v, want %v for %q", ok, valid, raw)
		}
		if ok && st != e.Stats {
			t.Fatalf("served %+v, the file holds %+v", st, e.Stats)
		}
	})
}
