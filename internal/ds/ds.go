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

// VersionedMapThread is a per-worker context on a multi-versioned map
// (rcds.NewVersionedHashTable): current reads and writes, plus
// point-in-time reads against a lease timestamp. Not safe for concurrent
// use.
type VersionedMapThread interface {
	// GetB appends key's current bytes to dst and returns the extended
	// slice.
	GetB(key uint64, dst []byte) ([]byte, bool)

	// PutB binds key to val's bytes, appending any displaced bytes to
	// dst. A non-nil error is arena backpressure (node or value slabs);
	// nothing was stored and the caller should shed or retry.
	PutB(key uint64, val, dst []byte) (old []byte, existed bool, err error)

	// DeleteV removes key, reporting whether it was present. A non-nil
	// error is arena backpressure: the tombstone was not appended and
	// the key remains bound.
	DeleteV(key uint64) (bool, error)

	// ScanB visits up to limit live entries (limit < 0 for all),
	// stopping early when fn returns false, and returns the number
	// visited. The scan is weakly consistent under concurrent updates.
	// val is thread-owned scratch, valid only until fn returns — copy to
	// retain.
	ScanB(limit int, fn func(key uint64, val []byte) bool) int

	// GetAtB appends key's bytes as of version timestamp ts to dst. The
	// caller must hold a lease with TS ≥ ts on the table's
	// VersionSource.
	GetAtB(ts, key uint64, dst []byte) ([]byte, bool)

	// ScanAtB visits up to limit entries as of ts (limit < 0 for all),
	// stopping early when fn returns false. Unlike ScanB, the visited
	// rows form one atomic point-in-time snapshot across all keys
	// (scratch val, as ScanB).
	ScanAtB(ts uint64, limit int, fn func(key uint64, val []byte) bool) int

	// Clear unlinks every entry and flushes this worker's deferred work.
	Clear()

	// Detach unregisters the worker.
	Detach()

	// Abandon leaves the worker's per-processor state for survivors to
	// adopt, as a worker that died without Detach does.
	Abandon()
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
