package core

import (
	"cdrc/internal/arena"
)

// Weak pointers - the cycle-breaking extension the paper's §9 names as
// future work ("There are many approaches to deal with cycles (e.g. weak
// pointers) and it would be interesting to explore incorporating those").
//
// A WeakPtr refers to an object without keeping it alive. Semantics follow
// shared_ptr/weak_ptr:
//
//   - The object is *destroyed* (finalized, payload cleared) when its
//     strong count reaches zero, exactly as without weak pointers - weak
//     references never delay destruction.
//   - The object's *slot* is returned to the arena only when both the
//     strong count and the weak count are zero, so a WeakPtr can always
//     safely interrogate the header.
//   - Upgrade turns a WeakPtr into a counted RcPtr if and only if the
//     object is still alive. The increment is a sticky compare-and-swap:
//     once the strong count has reached zero it can never rise again, so
//     Upgrade can never resurrect a destroyed object.
//
// The accounting uses the classic control-block trick: all strong
// references collectively hold one unit of the weak count, released when
// the strong count hits zero. Whoever drops the weak count to zero frees
// the slot - a single decision point, so no free is ever raced or doubled.
//
// Interplay with deferred decrements: strong releases are deferred through
// acquire-retire as usual; a deferred decrement keeps the strong count
// positive until ejected, so an Upgrade in that window succeeds and simply
// extends the object's life, which is correct - the object was never dead.
type WeakPtr struct {
	h arena.Handle
}

// NilWeakPtr is the nil weak reference.
var NilWeakPtr = WeakPtr{}

// IsNil reports whether w refers to no object.
func (w WeakPtr) IsNil() bool { return w.h.IsNil() }

// Handle exposes the underlying arena handle (diagnostics).
func (w WeakPtr) Handle() arena.Handle { return w.h }

// Downgrade creates a weak reference to p's object. The caller's strong
// reference keeps the slot alive across the operation.
func (t *Thread[T]) Downgrade(p RcPtr) WeakPtr {
	if p.IsNil() {
		return NilWeakPtr
	}
	h := p.h.Unmarked()
	t.d.pool.Hdr(h).WeakCount.Add(1)
	return WeakPtr{h}
}

// DowngradeSnapshot creates a weak reference from a snapshot-protected
// reference: the announcement blocks the deferred decrement that could
// otherwise destroy the object mid-operation, so the slot is pinned.
func (t *Thread[T]) DowngradeSnapshot(s Snapshot) WeakPtr {
	if s.IsNil() {
		return NilWeakPtr
	}
	h := s.h.Unmarked()
	t.d.pool.Hdr(h).WeakCount.Add(1)
	return WeakPtr{h}
}

// CloneWeak duplicates a weak reference.
func (t *Thread[T]) CloneWeak(w WeakPtr) WeakPtr {
	if w.IsNil() {
		return NilWeakPtr
	}
	t.d.pool.Hdr(w.h).WeakCount.Add(1)
	return w
}

// ReleaseWeak drops a weak reference. If it was the last weak unit and the
// object is already destroyed, the slot returns to the arena.
func (t *Thread[T]) ReleaseWeak(w WeakPtr) {
	if w.IsNil() {
		return
	}
	hdr := t.d.pool.Hdr(w.h)
	if c := hdr.WeakCount.Add(-1); c == 0 {
		// The implicit strong-side unit is released only after
		// destruction, so strong is already zero: free the slot.
		t.d.pool.Free(t.pid, w.h)
	} else if c < 0 {
		panic("core: weak count went negative")
	}
}

// Upgrade mints a strong reference from a weak one, or returns the nil
// RcPtr if the object has been destroyed (its count reads zero). The
// sticky CAS loop refuses to move the count off zero.
func (t *Thread[T]) Upgrade(w WeakPtr) RcPtr {
	if w.IsNil() {
		return NilRcPtr
	}
	hdr := t.d.pool.Hdr(w.h)
	for {
		c := hdr.RefCount.Load()
		if c == 0 {
			return NilRcPtr
		}
		if hdr.RefCount.CompareAndSwap(c, c+1) {
			return RcPtr{w.h}
		}
	}
}

// Word flattens a weak reference to a plain uint64 so index structures
// (eviction rings, timer wheels) can store it in atomic cells or plain
// arrays. The word still carries the weak-count unit: whoever reconstructs
// it with WeakFromWord owns that unit and must ReleaseWeak (or Upgrade and
// Release) it exactly once.
func (w WeakPtr) Word() uint64 { return uint64(w.h) }

// WeakFromWord reconstitutes a weak reference flattened by Word. The
// caller takes ownership of the weak-count unit the word carries.
func WeakFromWord(x uint64) WeakPtr { return WeakPtr{arena.Handle(x)} }

// Expired reports whether the object w refers to has been destroyed. Like
// weak_ptr::expired, a false result is advisory under concurrency; use
// Upgrade to actually access the object.
func (t *Thread[T]) Expired(w WeakPtr) bool {
	if w.IsNil() {
		return true
	}
	return t.d.pool.Hdr(w.h).RefCount.Load() == 0
}
