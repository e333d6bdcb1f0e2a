package smrds

import (
	"sync/atomic"

	"cdrc/internal/ds"
	"cdrc/internal/smr"
)

// HashTable is Michael's lock-free hash table (SPAA 2002): an array of
// Harris-Michael list buckets, the structure of Fig. 7b. The paper sizes
// buckets for an average load factor of 1. A key's bucket is the top
// log₂n bits of key·0x9E3779B97F4A7C15, as in rcds.HashTable, so the
// baselines share one bucket layout and dense keys stay spread out.
type HashTable struct {
	base    *listBase
	buckets []atomic.Uint64
	shift   uint // 64 − log₂(len(buckets)): bucket keeps the product's top bits
}

// NewHashTable creates a hash set with the given power-of-two-rounded
// bucket count, reclaimed by the given smr scheme.
func NewHashTable(kind smr.Kind, buckets int, maxProcs int) *HashTable {
	n, shift := 1, uint(64)
	for n < buckets {
		n, shift = n<<1, shift-1
	}
	return &HashTable{
		base:    newListBase(kind, "hash", maxProcs),
		buckets: make([]atomic.Uint64, n),
		shift:   shift,
	}
}

// Name implements ds.Set.
func (h *HashTable) Name() string { return h.base.name }

// LiveNodes implements ds.Set.
func (h *HashTable) LiveNodes() int64 { return h.base.pool.Live() }

// Unreclaimed implements ds.Set.
func (h *HashTable) Unreclaimed() int64 { return h.base.rec.Unreclaimed() }

// Attach implements ds.Set.
func (h *HashTable) Attach() ds.SetThread {
	return &hashThread{listThread: h.base.attach(nil), t: h}
}

type hashThread struct {
	*listThread
	t *HashTable
}

func (h *HashTable) bucket(key uint64) *atomic.Uint64 {
	return &h.buckets[(key*0x9E3779B97F4A7C15)>>h.shift]
}

// Insert implements ds.SetThread.
func (t *hashThread) Insert(key uint64) bool { return t.insert(t.t.bucket(key), key) }

// Delete implements ds.SetThread.
func (t *hashThread) Delete(key uint64) bool { return t.delete(t.t.bucket(key), key) }

// Contains implements ds.SetThread.
func (t *hashThread) Contains(key uint64) bool { return t.contains(t.t.bucket(key), key) }
