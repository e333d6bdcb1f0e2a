package collections

import (
	"testing"

	"cdrc/internal/obs"
)

// TestCappedShardSizedByCapacity: a capped shard sizes its eviction ring
// and hash table by its Capacity, not by ExpectedKeys, and the ring still
// indexes every insert while a working set four times the cap churns
// through it (two handles, reads marking keys for their second chance).
// An uncapped shard keeps the ExpectedKeys sizing.
func TestCappedShardSizedByCapacity(t *testing.T) {
	const capSlots = 256
	c := NewCache(CacheConfig{ExpectedKeys: 1 << 14, Capacity: capSlots, DebugChecks: true})
	if got := c.idx.cap(); got != indexPerEntry*capSlots {
		t.Fatalf("ring holds %d records, want %d × Capacity = %d", got, indexPerEntry, indexPerEntry*capSlots)
	}
	if got := c.t.Buckets(); got > capSlots {
		t.Fatalf("hash table has %d buckets for a %d-entry cap", got, capSlots)
	}
	hs := [2]*CacheHandle{c.Attach(), c.Attach()}
	var dst []byte
	r := uint64(1)
	for i := 0; i < 40*capSlots; i++ {
		r = r*6364136223846793005 + 1442695040888963407
		k := (r >> 33) % (4 * capSlots)
		h := hs[i&1]
		if r%4 == 0 {
			dst, _ = h.GetEx(k, 0, dst[:0])
			continue
		}
		if _, _, err := h.SetEx(k, u64b(k), 0, nil); err != nil {
			t.Fatalf("set %d: %v", k, err)
		}
	}
	s := c.Stats()
	if s.Unindexed != 0 {
		t.Fatalf("%d records dropped on a full ring", s.Unindexed)
	}
	if s.Evicts == 0 {
		t.Fatal("no evictions: the working set did not exceed the cap")
	}
	if got := c.Resident(); got > capSlots {
		t.Fatalf("resident %d exceeds the cap %d", got, capSlots)
	}
	hs[0].Close()
	hs[1].Close()
	identityOrFail(t, c)
	closeOrFail(t, c)

	u := NewCache(CacheConfig{ExpectedKeys: 1000})
	if got := u.idx.cap(); got != 4096 {
		t.Fatalf("uncapped ring holds %d records, want 4 × ExpectedKeys rounded up = 4096", got)
	}
	if got := u.t.Buckets(); got != 1024 {
		t.Fatalf("uncapped table has %d buckets, want 1024", got)
	}
	closeOrFail(t, u)
}

// TestInsertAtCapacityFlushesOnce: an insert into a full shard evicts
// before it flushes and pays at most one flush, so over a run of inserts
// at capacity the eject scans (acqret.scan, which counts both the
// synchronous scans of a flush and the deamortized ones) number no more
// than the inserts (cache.insert).
func TestInsertAtCapacityFlushesOnce(t *testing.T) {
	if !obs.BuildEnabled {
		t.Skip("obs counters compiled out")
	}
	const capSlots = 512
	c := NewCache(CacheConfig{ExpectedKeys: 1 << 12, Capacity: capSlots})
	h := c.Attach()
	key := uint64(0)
	for ; key < 2*capSlots; key++ { // fill past the cap
		if _, _, err := h.SetEx(key, u64b(key), 0, nil); err != nil {
			t.Fatalf("fill %d: %v", key, err)
		}
	}
	obs.Enable()
	defer obs.Disable()
	const n = 8 * capSlots
	for end := key + n; key < end; key++ {
		if _, _, err := h.SetEx(key, u64b(key), 0, nil); err != nil {
			t.Fatalf("set %d: %v", key, err)
		}
	}
	rep := obs.Snapshot()
	scans, inserts := rep.Counter("acqret.scan"), rep.Counter("cache.insert")
	if inserts != n {
		t.Fatalf("cache.insert = %d, want %d", inserts, n)
	}
	t.Logf("%d eject scans over %d inserts at capacity (%.3f per insert)", scans, inserts, float64(scans)/float64(inserts))
	if scans > inserts {
		t.Fatalf("%d eject scans over %d inserts at capacity: more than one flush per insert", scans, inserts)
	}
	h.Close()
	identityOrFail(t, c)
	closeOrFail(t, c)
}
