// Package ds defines the common concurrent-set interface that both the
// manual-SMR data structures (internal/ds/smrds) and the deferred
// reference counting ones (internal/ds/rcds) implement, so the §7.2
// benchmarks can sweep schemes and structures orthogonally.
package ds

// Set is a concurrent set of uint64 keys under benchmark.
type Set interface {
	// Name labels the structure+scheme combination ("list/EBR", ...).
	Name() string

	// Attach registers a worker.
	Attach() SetThread

	// LiveNodes returns currently allocated nodes (diagnostics).
	LiveNodes() int64

	// Unreclaimed returns removed-but-not-freed nodes (the "extra nodes"
	// series of Fig. 7).
	Unreclaimed() int64
}

// Map is a concurrent map from uint64 keys to byte values. The rcds
// hash table implements both Set and Map over the same nodes (service
// workloads want values; the §7.2 benchmarks want sets).
type Map interface {
	// Name labels the structure+scheme combination.
	Name() string

	// AttachMap registers a worker for map operations.
	AttachMap() MapThread

	// LiveNodes returns currently allocated nodes (diagnostics).
	LiveNodes() int64

	// Unreclaimed returns removed-but-not-freed nodes.
	Unreclaimed() int64
}

// MapThread is a per-worker map context. Not safe for concurrent use.
type MapThread interface {
	// Delete removes key, reporting false if it was absent.
	Delete(key uint64) bool

	// GetB appends key's current bytes to dst and returns the extended
	// slice.
	GetB(key uint64, dst []byte) ([]byte, bool)

	// PutB binds key to val's bytes, appending any displaced bytes to
	// dst. A non-nil error is arena backpressure (node or value slabs);
	// nothing was stored and the caller should shed or retry.
	PutB(key uint64, val, dst []byte) (old []byte, existed bool, err error)

	// ScanB visits up to limit live entries (limit < 0 for all),
	// stopping early when fn returns false, and returns the number
	// visited. The scan is weakly consistent under concurrent updates.
	// val is thread-owned scratch, valid only until fn returns — copy to
	// retain.
	ScanB(limit int, fn func(key uint64, val []byte) bool) int

	// Clear unlinks every entry and flushes this worker's deferred work.
	Clear()

	// Detach unregisters the worker.
	Detach()
}

// VersionedMapThread is a per-worker context on a multi-versioned map
// (rcds.NewVersionedHashTable): MapThread plus point-in-time reads
// against a lease timestamp, and a Delete variant that surfaces arena
// backpressure (a versioned delete allocates its tombstone).
type VersionedMapThread interface {
	MapThread

	// DeleteV removes key, reporting whether it was present. A non-nil
	// error is arena backpressure: the tombstone was not appended and
	// the key remains bound.
	DeleteV(key uint64) (bool, error)

	// GetAtB appends key's bytes as of version timestamp ts to dst. The
	// caller must hold a lease with TS ≥ ts on the table's
	// VersionSource.
	GetAtB(ts, key uint64, dst []byte) ([]byte, bool)

	// ScanAtB visits up to limit entries as of ts (limit < 0 for all),
	// stopping early when fn returns false. Unlike ScanB, the visited
	// rows form one atomic point-in-time snapshot across all keys
	// (scratch val, as ScanB).
	ScanAtB(ts uint64, limit int, fn func(key uint64, val []byte) bool) int
}

// CacheRef is an eviction-index record: a key plus a flattened weak
// reference (core.WeakPtr.Word) to the entry node. The record owns one
// weak-count unit; it must be consumed by exactly one EvictStep or
// DropRef call. Because the weak unit pins the arena slot against reuse,
// Key always matches the node the word resolves to.
type CacheRef struct {
	Key  uint64
	Word uint64
}

// EvictOutcome reports what EvictStep did with a CacheRef.
type EvictOutcome int

const (
	// EvictGone: the entry was already unlinked (deleted, expired, or
	// evicted by someone else, who counted it); the ref was consumed.
	EvictGone EvictOutcome = iota

	// EvictSpare: the entry's clock referenced bit was set; the bit was
	// cleared and the ref is STILL OWNED by the caller, who must push it
	// back into the index (second-chance clock behavior).
	EvictSpare

	// EvictExpired: the entry was past its deadline; this call unlinked
	// it (count it as an expiry) and consumed the ref.
	EvictExpired

	// EvictEvicted: the entry was live; this call unlinked it for
	// capacity (count it as an eviction) and consumed the ref.
	EvictEvicted
)

// CacheThread is a per-worker context on a cache table
// (rcds.HashTable.AttachCache): MapThread plus TTL-stamped writes, clock
// eviction over weak references, and lazy expiry. All deadlines are
// absolute monotonic nanoseconds (obs.NowNanos); now is the caller's
// current reading of that clock.
type CacheThread interface {
	MapThread

	// PutExB binds key to val's bytes with expiry deadline exp (0 = no
	// TTL). When the key was present AND live, the old bytes are
	// appended to dst with existed == true and ref is zero (the index
	// record of the reused node stays valid). On a fresh link, ref
	// carries the weak reference the caller must hand to the eviction
	// index. reaped counts expired nodes this call unlinked along the way
	// (attribute them to expiry). A non-nil error is arena backpressure:
	// nothing was stored.
	PutExB(key uint64, val []byte, exp, now uint64, dst []byte) (old []byte, existed bool, ref CacheRef, reaped int, err error)

	// GetExB appends key's bytes to dst if present and live, stamping
	// the clock referenced bit. A non-zero newExp also replaces the
	// deadline (GETEX's TTL-touch). reaped counts lazily-expired unlinks.
	GetExB(key, newExp, now uint64, dst []byte) (val []byte, hit bool, reaped int)

	// ExpireAt replaces key's deadline (1 expires it immediately),
	// reporting whether the key was present and live.
	ExpireAt(key, exp, now uint64) (ok bool, reaped int)

	// DelEx removes key, reporting whether it was present and live; an
	// expired node found instead is unlinked and counted in reaped.
	DelEx(key, now uint64) (ok bool, reaped int)

	// EvictStep resolves one index record against the entry it tracks:
	// the paper's machinery arbitrates the race with readers — a
	// concurrent reader's snapshot keeps the node's payload safe, and an
	// Upgrade after destruction fails. See EvictOutcome for who owns the
	// ref afterwards. EvictStep never acquires snapshots, so it is safe
	// at points where a simulated crash may fire only before or after.
	EvictStep(ref CacheRef, now uint64) EvictOutcome

	// SweepStep is EvictStep restricted to expiry: a live entry is left
	// untouched (referenced bit included) and the outcome is EvictSpare,
	// so a background sweeper can rotate through the index without ever
	// evicting for capacity or degrading clock information.
	SweepStep(ref CacheRef, now uint64) EvictOutcome

	// Reap physically unlinks any logically-deleted nodes left behind by
	// EvictStep on key's chain (a plain helping search).
	Reap(key uint64)

	// DropRef consumes an index record without touching the entry
	// (index teardown).
	DropRef(ref CacheRef)

	// Flush applies this worker's currently-safe deferred decrements,
	// turning its own evictions into recyclable arena slots.
	Flush()

	// Drain is Flush plus returning this worker's private free-slot
	// magazines to the shared pool, for workers that free much more
	// than they allocate (the expiry sweeper).
	Drain()

	// ScanLiveB visits up to limit present-and-live entries (limit < 0
	// for all), like ScanB but TTL-aware.
	ScanLiveB(now uint64, limit int, fn func(key uint64, val []byte) bool) int
}

// SetThread is a per-worker context. Not safe for concurrent use.
type SetThread interface {
	// Insert adds key, reporting false if it was already present.
	Insert(key uint64) bool

	// Delete removes key, reporting false if it was absent.
	Delete(key uint64) bool

	// Contains reports whether key is present.
	Contains(key uint64) bool

	// Detach unregisters the worker.
	Detach()
}
