package rcds

import (
	"cdrc/internal/core"
	"cdrc/internal/ds"
)

// Map operations over the Harris-Michael bucket lists: the hash table
// doubles as a key→value map by hanging a chain of version cells off
// each entry node (vers.go), each cell carrying a vals ref to one
// value's bytes (bytemap.go). Every write prepends a cell; no map write
// rebinds a published Val word. Only cache tables (cache.go) replace a
// node's value in place.

// AttachMap registers the calling goroutine for map operations. The
// returned thread shares the table's processor-id space with set handles;
// a goroutine needs only one or the other. Panics on a table without a
// value plane (EnableByteValues) or without a VersionSource
// (NewVersionedHashTable).
func (h *HashTable) AttachMap() ds.VersionedMapThread {
	if h.vsrc == nil {
		panic("rcds: map attach on an unversioned table (NewVersionedHashTable)")
	}
	return h.attachValued()
}

// attachValued is Attach for the map and cache APIs. Their values live
// only in the byte plane, so a table without one is a setup bug and is
// refused here rather than on every operation.
func (h *HashTable) attachValued() *hashThread {
	if h.base.vp == nil {
		panic("rcds: map or cache attach on a table without a value plane (EnableByteValues)")
	}
	return h.Attach().(*hashThread)
}

// SetCapacity caps the table's arena (0 removes the cap); beyond it Put
// reports backpressure instead of allocating.
func (h *HashTable) SetCapacity(slots uint64) { h.base.dom.SetCapacity(slots) }

// EnableDebugChecks turns reads of freed slots into panics (tests/soaks),
// in the node arena and the value-slab pool alike.
func (h *HashTable) EnableDebugChecks() {
	h.base.dom.EnableDebugChecks()
	if h.base.vp != nil {
		h.base.vp.EnableDebugChecks()
	}
}

// Clear implements ds.VersionedMapThread: it unlinks every bucket chain
// (each dropped head release cascades through finalizers) and flushes
// this thread's deferred decrements. Quiescent callers reach LiveNodes() == 0
// after at most a few adoption/flush rounds.
func (t *hashThread) Clear() {
	for i := range t.t.buckets {
		t.th.StoreMove(&t.t.buckets[i], core.NilRcPtr)
	}
	t.th.Flush()
}
