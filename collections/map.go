package collections

import (
	"cdrc/internal/ds"
	"cdrc/internal/ds/rcds"
	"cdrc/internal/snaplease"
)

// Map is a lock-free hash map from uint64 keys to variable-length byte
// values, built on the same Michael-hash-table-over-DRC nodes as
// HashSet: lookups acquire a single snapshot pointer on average and
// touch no shared counter, and a replaced or deleted entry frees itself
// once the last in-flight reader lets go. Value bytes live inline in
// size-class arena slabs (DESIGN.md §13), never on the Go heap, so the
// data plane stays invisible to the garbage collector; values longer
// than 4 KiB chain overflow chunks and may be up to vals.MaxLen (~4 MiB)
// long. Every write prepends an immutable version cell to its key's
// chain (DESIGN.md §10), so a Map also answers point-in-time reads
// (GetAt, ScanAt). It is the storage engine behind internal/server and
// cmd/cdrc-serve.
type Map struct {
	t *rcds.HashTable
}

// NewMap creates a map sized for roughly expectedKeys resident entries
// (load factor 1), usable by up to maxProcs concurrent handles (0 selects
// the default bound). It is NewVersionedMap with a private one-lease
// source that no caller can acquire from, so superseded versions are
// trimmed on the next write and each resident key costs an entry node
// plus one version cell. GetAt and ScanAt need a lease, so they are for
// maps built with NewVersionedMap.
func NewMap(expectedKeys, maxProcs int) *Map {
	return NewVersionedMap(expectedKeys, maxProcs, snaplease.NewPool(1))
}

// VersionSource is the clock and retention oracle a versioned map trims
// old versions against; internal/snaplease.Pool implements it.
type VersionSource = rcds.VersionSource

// NewVersionedMap creates a map whose versions are trimmed against vs.
// While a lease with timestamp ≥ v is active on vs, no version with
// stamp ≤ v is trimmed, so a reader can resolve any number of keys "as
// of ts" (GetAt, ScanAt) while holding only O(1) cdrc snapshots at a
// time. GetAt and ScanAt need a lease from vs itself.
func NewVersionedMap(expectedKeys, maxProcs int, vs VersionSource) *Map {
	if expectedKeys < 16 {
		expectedKeys = 16
	}
	t := rcds.NewVersionedHashTable(expectedKeys, maxProcs, vs)
	t.EnableByteValues("")
	return &Map{t: t}
}

// Attach registers the calling goroutine.
func (m *Map) Attach() *MapHandle { return &MapHandle{th: m.t.AttachMap()} }

// LiveNodes reports currently allocated nodes (diagnostics).
func (m *Map) LiveNodes() int64 { return m.t.LiveNodes() }

// Unreclaimed reports removed-but-not-freed nodes (diagnostics).
func (m *Map) Unreclaimed() int64 { return m.t.Unreclaimed() }

// SetArenaCapacity caps the map's backing arena at the given slot count
// (0 removes the cap). Beyond the cap, Put returns ErrBusy-style
// backpressure instead of allocating; see MapHandle.Put.
func (m *Map) SetArenaCapacity(slots uint64) { m.t.SetCapacity(slots) }

// ValueSlabsLive reports currently allocated value slabs (diagnostics).
func (m *Map) ValueSlabsLive() int64 { return m.t.ByteValues().Live() }

// EnableDebugChecks turns reads of freed slots into panics. Set before
// the map is shared; intended for tests and soak harnesses.
func (m *Map) EnableDebugChecks() { m.t.EnableDebugChecks() }

// MapHandle is a per-goroutine view of a Map. Not safe for concurrent
// use; operations on a closed handle panic.
type MapHandle struct {
	th ds.VersionedMapThread
}

// Get appends key's current value to dst (which may be nil) and returns
// the extended slice. Passing a reused buffer keeps the read
// allocation-free: the bytes are copied straight out of the arena slab.
func (h *MapHandle) Get(key uint64, dst []byte) ([]byte, bool) {
	return h.th.GetB(key, dst)
}

// Put maps key to val's bytes (copied into an arena slab; val may be
// reused immediately). When the key was present the previous value is
// appended to dst and returned with existed == true. A non-nil error
// means a backing arena — node slots or a value size class — is
// exhausted and the value was NOT stored; the caller should shed or
// retry the request (internal/server maps it to a BUSY reply).
func (h *MapHandle) Put(key uint64, val, dst []byte) (old []byte, existed bool, err error) {
	return h.th.PutB(key, val, dst)
}

// Delete removes key, reporting whether it was present. A non-nil error
// is arena backpressure: a delete allocates a tombstone version, and on
// failure the key remains bound.
func (h *MapHandle) Delete(key uint64) (bool, error) { return h.th.DeleteV(key) }

// GetAt appends key's value as of version timestamp ts to dst; the
// caller must hold a lease with TS ≥ ts from the map's VersionSource.
func (h *MapHandle) GetAt(ts, key uint64, dst []byte) ([]byte, bool) {
	return h.th.GetAtB(ts, key, dst)
}

// ScanAt visits up to limit entries as of ts (limit < 0 for all),
// stopping early when fn returns false. Unlike Scan, the rows form one
// atomic point-in-time snapshot across all keys. val is handle-owned
// scratch, valid only until fn returns — copy to retain. The lease
// rule is GetAt's.
func (h *MapHandle) ScanAt(ts uint64, limit int, fn func(key uint64, val []byte) bool) int {
	return h.th.ScanAtB(ts, limit, fn)
}

// Scan visits up to limit live entries (limit < 0 for all), stopping
// early when fn returns false, and returns the number visited. Weakly
// consistent under concurrent updates; never observes freed memory. val
// is handle-owned scratch, valid only until fn returns.
func (h *MapHandle) Scan(limit int, fn func(key uint64, val []byte) bool) int {
	return h.th.ScanB(limit, fn)
}

// Clear unlinks every entry and flushes this handle's deferred work.
func (h *MapHandle) Clear() { h.th.Clear() }

// Close detaches the handle. Close is idempotent: closing an
// already-closed handle is a no-op (a double Detach would return the
// processor id to the registry twice and corrupt arena free lists).
func (h *MapHandle) Close() {
	if h.th == nil {
		return
	}
	h.th.Detach()
	h.th = nil
}

// Abandon marks the handle's per-processor state as owned by a worker
// that died without Close (see DESIGN.md §5): announcements, retired
// lists, and the arena shard stay behind for survivors to adopt, and the
// processor id is reissued only after adoption. Crash-recovery harnesses
// call it from a recover; the handle must not be used afterwards.
func (h *MapHandle) Abandon() {
	if h.th == nil {
		return
	}
	h.th.Abandon()
	h.th = nil
}
