package collections

import (
	"sync/atomic"

	"cdrc/internal/ds/rcds"
)

// ring is the eviction index: a bounded MPMC queue (Vyukov's array queue)
// of CacheRef records, each owning one weak-count unit on the entry it
// tracks. Rotating pop-from-head/push-to-tail over it implements the
// clock hand; server workers, the shard sweeper, and an adopting survivor
// all touch it concurrently, lock-free.
type ring struct {
	mask uint64
	slot []ringSlot
	_    [6]uint64
	head atomic.Uint64 // pop position
	_    [7]uint64
	tail atomic.Uint64 // push position
	_    [7]uint64
}

type ringSlot struct {
	seq  atomic.Uint64
	key  uint64
	word uint64
}

func newRing(capacity int) *ring {
	n := 16
	for n < capacity {
		n <<= 1
	}
	r := &ring{mask: uint64(n - 1), slot: make([]ringSlot, n)}
	for i := range r.slot {
		r.slot[i].seq.Store(uint64(i))
	}
	return r
}

// cap returns the record capacity.
func (r *ring) cap() int { return len(r.slot) }

// len approximates the resident record count (exact at quiescence).
func (r *ring) len() int {
	n := int64(r.tail.Load()) - int64(r.head.Load())
	if n < 0 {
		n = 0
	}
	return int(n)
}

// push appends a record; false means the ring is full and the caller must
// pop a victim before retrying.
func (r *ring) push(ref rcds.CacheRef) bool {
	for {
		pos := r.tail.Load()
		s := &r.slot[pos&r.mask]
		dif := int64(s.seq.Load()) - int64(pos)
		switch {
		case dif == 0:
			if r.tail.CompareAndSwap(pos, pos+1) {
				s.key = ref.Key
				s.word = ref.Word
				s.seq.Store(pos + 1)
				return true
			}
		case dif < 0:
			return false
		}
	}
}

// pop removes the oldest record; false means the ring is empty.
func (r *ring) pop() (rcds.CacheRef, bool) {
	for {
		pos := r.head.Load()
		s := &r.slot[pos&r.mask]
		dif := int64(s.seq.Load()) - int64(pos+1)
		switch {
		case dif == 0:
			if r.head.CompareAndSwap(pos, pos+1) {
				ref := rcds.CacheRef{Key: s.key, Word: s.word}
				s.seq.Store(pos + r.mask + 1)
				return ref, true
			}
		case dif < 0:
			return rcds.CacheRef{}, false
		}
	}
}
