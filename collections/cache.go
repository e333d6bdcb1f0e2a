package collections

import (
	"time"

	"cdrc/internal/cache"
)

// Cache is a lock-free TTL cache from uint64 keys to variable-length
// byte values: the same Michael-hash-table-over-DRC nodes as Map (value
// bytes inline in size-class arena slabs, DESIGN.md §13), plus an
// eviction index that holds only weak references to entries
// (DESIGN.md §11). Every race
// between an evictor and a reader is arbitrated by the reference-counting
// machinery — the reader's snapshot keeps the payload alive, an Upgrade
// after destruction fails — so the get, set, evict, and sweep paths take
// no locks. With a capped arena, Set absorbs backpressure by evicting
// instead of failing. It is the storage engine behind the server's cache
// mode and cmd/cdrc-load -cache.
type Cache struct {
	c *cache.Cache
}

// CacheConfig sizes a cache shard.
type CacheConfig struct {
	// Name, when non-empty, prefixes the shard's obs gauges.
	Name string

	// ExpectedKeys sizes an uncapped shard's hash table (load factor 1)
	// and eviction ring. A capped shard is sized by Capacity instead.
	ExpectedKeys int

	// MaxProcs bounds concurrent handles (0 = library default).
	MaxProcs int

	// Capacity caps the backing arena in entry slots (0 = uncapped).
	// Beyond it, Set evicts instead of failing. A capped shard's hash
	// table has at most Capacity buckets and its eviction ring 4 ×
	// Capacity records.
	Capacity uint64

	// ValueCapacity caps each value size class in slab slots (0 =
	// uncapped). Like Capacity, exhaustion triggers evict-then-retry.
	ValueCapacity uint64

	// SweepInterval is the background expiry sweeper's period
	// (StartSweeper; 0 disables).
	SweepInterval time.Duration

	// DebugChecks turns reads of freed slots into panics.
	DebugChecks bool
}

// CacheStats is a point-in-time counter snapshot. At quiescence
// Inserts == Evicts + Expires + Dels + resident holds exactly
// (CheckIdentity).
type CacheStats = cache.Stats

// NewCache creates a cache shard.
func NewCache(cfg CacheConfig) *Cache {
	return &Cache{c: cache.New(cache.Config{
		Name:          cfg.Name,
		ExpectedKeys:  cfg.ExpectedKeys,
		MaxProcs:      cfg.MaxProcs,
		Capacity:      cfg.Capacity,
		ValueCapacity: cfg.ValueCapacity,
		SweepInterval: cfg.SweepInterval,
		DebugChecks:   cfg.DebugChecks,
	})}
}

// Attach registers the calling goroutine.
func (c *Cache) Attach() *CacheHandle { return &CacheHandle{h: c.c.Attach()} }

// StartSweeper launches the shard's background expiry sweeper (no-op when
// SweepInterval is zero or one is already running).
func (c *Cache) StartSweeper() { c.c.StartSweeper() }

// Stats snapshots the shard's counters.
func (c *Cache) Stats() CacheStats { return c.c.Stats() }

// Resident is the counter-derived resident entry count.
func (c *Cache) Resident() int64 { return c.c.Resident() }

// LiveNodes reports currently allocated nodes (diagnostics).
func (c *Cache) LiveNodes() int64 { return c.c.LiveNodes() }

// Unreclaimed reports removed-but-not-freed nodes (diagnostics).
func (c *Cache) Unreclaimed() int64 { return c.c.Unreclaimed() }

// CheckIdentity verifies the conservation identity at quiescence: every
// insert is either still resident or was unlinked by exactly one counted
// eviction, expiry, or delete.
func (c *Cache) CheckIdentity() error { return c.c.CheckIdentity() }

// Close stops the sweeper, drops the index, unlinks every entry, and
// verifies full reclamation. Callers must have closed all handles.
func (c *Cache) Close() error { return c.c.Close() }

// CacheHandle is a per-goroutine view of a Cache. Not safe for concurrent
// use.
type CacheHandle struct {
	h *cache.Handle
}

// SetEx binds key to val's bytes with a TTL (0 = no expiry), appending
// any displaced live value to dst. Under arena backpressure — node
// slots or value slabs — it synchronously evicts victims and retries;
// only if the eviction index runs dry and peers hold no reclaimable
// slots does the arena error surface.
func (h *CacheHandle) SetEx(key uint64, val []byte, ttl time.Duration, dst []byte) (old []byte, existed bool, err error) {
	return h.h.SetEx(key, val, ttl, dst)
}

// GetEx appends key's value to dst if present and unexpired, marking it
// recently used; a non-zero ttl also replaces the deadline (the GETEX
// touch).
func (h *CacheHandle) GetEx(key uint64, ttl time.Duration, dst []byte) ([]byte, bool) {
	return h.h.GetEx(key, ttl, dst)
}

// Get is GetEx without a TTL touch.
func (h *CacheHandle) Get(key uint64, dst []byte) ([]byte, bool) { return h.h.Get(key, dst) }

// Expire replaces key's deadline (ttl <= 0 expires it immediately),
// reporting whether the key was present and live.
func (h *CacheHandle) Expire(key uint64, ttl time.Duration) bool { return h.h.Expire(key, ttl) }

// Del removes key, reporting whether it was present and live.
func (h *CacheHandle) Del(key uint64) bool { return h.h.Del(key) }

// Scan visits up to limit live (unexpired) entries (limit < 0 for all),
// stopping early when fn returns false. Weakly consistent; never
// observes freed memory. val is handle-owned scratch, valid only until
// fn returns — copy to retain.
func (h *CacheHandle) Scan(limit int, fn func(key uint64, val []byte) bool) int {
	return h.h.Scan(limit, fn)
}

// Close detaches the handle. Idempotent.
func (h *CacheHandle) Close() {
	if h.h == nil {
		return
	}
	h.h.Close()
	h.h = nil
}

// Abandon marks the handle's per-processor state as died-without-Close:
// in-flight eviction records are re-indexed for survivors, then the
// processor state is left for adoption (DESIGN.md §5). Call from a
// crash-recovery recover only; the handle must not be used afterwards.
func (h *CacheHandle) Abandon() {
	if h.h == nil {
		return
	}
	h.h.Abandon()
	h.h = nil
}
