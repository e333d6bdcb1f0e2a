package rcds

import (
	"cdrc/internal/core"
	"cdrc/internal/ds"
	"cdrc/internal/vals"
)

// HashTable is Michael's hash table over deferred reference counting:
// an array of Harris-Michael bucket lists (Fig. 7b). On average a lookup
// acquires a single snapshot pointer, which the paper observes makes this
// workload the one where DRC matches or beats manual SMR outright.
//
// A key's bucket is the top log₂n bits of key·0x9E3779B97F4A7C15
// (Fibonacci hashing), the same function as smrds.HashTable's, so the
// Fig. 7b baselines share one layout. The top bits keep dense key ranges
// spread out — n consecutive keys fill n buckets at most a few deep —
// which is what keeps the average lookup at one node.
type HashTable struct {
	base      *listBase
	snapshots bool
	buckets   []core.AtomicRcPtr
	shift     uint          // 64 − log₂(len(buckets)): bucket keeps the product's top bits
	vsrc      VersionSource // the map API's clock; nil on set and cache tables (vers.go)
}

// NewHashTable creates a hash set with the given power-of-two-rounded
// bucket count.
func NewHashTable(buckets int, maxProcs int, snapshots bool) *HashTable {
	n, shift := 1, uint(64)
	for n < buckets {
		n, shift = n<<1, shift-1
	}
	return &HashTable{
		base:      newListBase("hash", maxProcs, snapshots),
		snapshots: snapshots,
		buckets:   make([]core.AtomicRcPtr, n),
		shift:     shift,
	}
}

// Name implements ds.Set.
func (h *HashTable) Name() string { return h.base.name }

// EnableByteValues gives the table its value plane: variable-length
// byte values stored inline in value slabs (DESIGN.md §13), carried as
// vals refs in the nodes' Val words. AttachMap and AttachCache require
// it. Must be called before any Attach — the slab pool shares the
// table's processor-id space and is wired into the domain's adopt hook.
// name labels the pool's per-class obs gauges. Idempotent; returns the
// pool for capacity and stats wiring.
func (h *HashTable) EnableByteValues(name string) *vals.Pool {
	if h.base.vp == nil {
		vp := vals.New(vals.Config{Name: name, MaxProcs: h.base.procs})
		h.base.vp = vp
		h.base.dom.SetValueSlabs(vp)
	}
	return h.base.vp
}

// ByteValues returns the table's value-plane slab pool (nil on a
// set-only table).
func (h *HashTable) ByteValues() *vals.Pool { return h.base.vp }

// Buckets returns the table's bucket count.
func (h *HashTable) Buckets() int { return len(h.buckets) }

// LiveNodes implements ds.Set.
func (h *HashTable) LiveNodes() int64 { return h.base.dom.Live() }

// Unreclaimed implements ds.Set.
func (h *HashTable) Unreclaimed() int64 { return h.base.dom.Deferred() }

// Attach implements ds.Set.
func (h *HashTable) Attach() ds.SetThread {
	return &hashThread{
		listThread: &listThread{b: h.base, th: h.base.dom.Attach(), snapshots: h.snapshots},
		t:          h,
	}
}

type hashThread struct {
	*listThread
	t *HashTable
}

func (h *HashTable) bucket(key uint64) *core.AtomicRcPtr {
	return &h.buckets[(key*0x9E3779B97F4A7C15)>>h.shift]
}

// Insert implements ds.SetThread.
func (t *hashThread) Insert(key uint64) bool { return t.insert(t.t.bucket(key), key) }

// Delete implements ds.SetThread. Maps delete through DeleteV.
func (t *hashThread) Delete(key uint64) bool { return t.delete(t.t.bucket(key), key) }

// Contains implements ds.SetThread.
func (t *hashThread) Contains(key uint64) bool { return t.contains(t.t.bucket(key), key) }
