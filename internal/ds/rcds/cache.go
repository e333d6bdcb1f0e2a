package rcds

import (
	"sync/atomic"
	"unsafe"

	"cdrc/internal/core"
)

// EntryBytes is the in-arena payload size of one cache entry node, for
// byte-denominated resident/evicted gauges (excludes the slot header).
func EntryBytes() uint64 { return uint64(unsafe.Sizeof(listNode{})) }

// Cache-table operations: the hash table doubles as a TTL cache by
// stamping each node's Exp word (bit 63 = clock referenced bit, bits
// 0..62 = absolute deadline in monotonic nanos, 0 = no TTL) and by
// handing every freshly-linked node's weak reference to an external
// eviction index. The index holds ONLY weak references, so an evictor
// racing a reader needs no locks: the reader's snapshot keeps the payload
// safe until it lets go, and an Upgrade after the last strong reference
// ejects simply fails (weak.go's sticky CAS).
//
// Update discipline (load-bearing for linearizability, see the lincheck
// TTL model): while a node is linked, Val may change only between two
// LIVE states (PutExB replaces an expired node by unlink+fresh-insert, it
// never writes Val on a dead node), and Exp alone may change at any time.
// A reader that observes a torn (Exp, Val) pair therefore still returns a
// linearizable result: any Val it can read was bound while live.

// ExpRefBit is the clock "referenced" bit in a node's Exp word, set on
// every hit and cleared (second chance) by EvictStep.
const ExpRefBit uint64 = 1 << 63

// ExpDeadlineMask extracts the deadline from an Exp word.
const ExpDeadlineMask = ExpRefBit - 1

// ExpLive reports whether an Exp word is not past its deadline at now.
func ExpLive(exp, now uint64) bool {
	d := exp & ExpDeadlineMask
	return d == 0 || d > now
}

// CacheThread is a per-worker context on a cache table: the map
// operations plus TTL-stamped writes, clock eviction over weak
// references, and lazy expiry. All deadlines are absolute monotonic
// nanoseconds; now is the caller's current reading of that clock. Not
// safe for concurrent use.
type CacheThread = hashThread

// AttachCache registers the calling goroutine for cache operations. Any
// hash table with a value plane supports them (it panics otherwise, as
// AttachMap); the caller is responsible for routing every fresh-link
// CacheRef into its eviction index.
func (h *HashTable) AttachCache() *CacheThread { return h.attachValued() }

// CacheRef is an eviction-index record: a key plus a flattened weak
// reference (core.WeakPtr.Word) to the entry node. The record owns one
// weak-count unit; it must be consumed by exactly one EvictStep,
// SweepStep or DropRef call. Because the weak unit pins the arena slot
// against reuse, Key always matches the node the word resolves to.
type CacheRef struct {
	Key  uint64
	Word uint64
}

// EvictOutcome reports what EvictStep or SweepStep did with a CacheRef.
type EvictOutcome int

const (
	// EvictGone: the entry was already unlinked (deleted, expired, or
	// evicted by someone else, who counted it); the ref was consumed.
	EvictGone EvictOutcome = iota

	// EvictSpare: EvictStep found the clock referenced bit set and
	// cleared it (second chance), or SweepStep found the entry live. The
	// ref is STILL OWNED by the caller, who must push it back into the
	// index.
	EvictSpare

	// EvictExpired: the entry was past its deadline; this call unlinked
	// it (count it as an expiry) and consumed the ref.
	EvictExpired

	// EvictEvicted: the entry was live; this call unlinked it for
	// capacity (count it as an eviction) and consumed the ref.
	EvictEvicted
)

// tryLinkCache is tryLink plus a vals ref, an Exp stamp and a weak
// reference to the new node, minted under the pre-CAS strong reference so the index can
// track the entry without keeping it alive. Unlike tryLink it does not
// flush and retry a failed allocation: the cache caller evicts before it
// flushes, so one flush per insert turns its victims into free slots.
func (t *listThread) tryLinkCache(pos *position, key, ref, exp uint64) (bool, core.WeakPtr, error) {
	th := t.th
	var curOwned core.RcPtr
	if !pos.curSnap.IsNil() {
		curOwned = th.RcFromSnapshot(pos.curSnap)
	} else if !pos.curRc.IsNil() {
		curOwned = th.Clone(pos.curRc)
	}
	init := func(nd *listNode) {
		nd.Key = key
		atomic.StoreUint64(&nd.Val, ref)
		// No referenced bit on a fresh insert: only reads stamp it, so
		// write-once churn stays immediately evictable (scan-resistant
		// clock) while read keys earn their second chance.
		atomic.StoreUint64(&nd.Exp, exp)
		nd.next.Init(curOwned)
		nd.Vers.Init(core.NilRcPtr) // recycled slots carry arena poison
	}
	n, err := th.TryNewRc(init)
	if err != nil {
		obsAllocDrop.Inc(th.ProcID())
		th.Release(curOwned)
		return false, core.NilWeakPtr, err
	}
	w := th.Downgrade(n)
	if th.CompareAndSwapMove(pos.prevLink, pos.cur(), n) {
		return true, w, nil
	}
	th.ReleaseWeak(w)
	// Unpublished: strip Val so the finalizer leaves the caller's parked
	// vals ref alone for the retry.
	atomic.StoreUint64(&th.Deref(n).Val, 0)
	th.Release(n) // finalizer releases curOwned
	return false, core.NilWeakPtr, nil
}

// reapAt marks-and-unlinks the expired node at pos. Returns true when
// this call won the mark (the caller attributes one expiry); a lost race
// means another op owns the unlink and will count it.
func (t *listThread) reapAt(pos *position, nextW core.RcPtr) bool {
	th := t.th
	curN := t.deref(pos.curSnap, pos.curRc)
	if !th.CompareAndSetMark(&curN.next, nextW, deletedMark) {
		return false
	}
	nextRc := th.Load(&curN.next)
	if !th.CompareAndSwapMove(pos.prevLink, pos.cur(), nextRc.Unmarked()) {
		th.Release(nextRc)
		// A later search will finish the unlink.
	}
	return true
}

// ExpireAt replaces key's deadline (1 expires it immediately),
// reporting whether the key was present and live; reaped counts
// expired nodes this call unlinked.
func (t *hashThread) ExpireAt(key, exp, now uint64) (bool, int) {
	head := t.t.bucket(key)
	reaped := 0
	for {
		pos := t.search(head, key)
		if !pos.found {
			t.releasePos(&pos)
			return false, reaped
		}
		curN := t.deref(pos.curSnap, pos.curRc)
		nextW := curN.next.LoadRaw()
		if nextW.HasMark(deletedMark) {
			t.releasePos(&pos)
			continue
		}
		old := atomic.LoadUint64(&curN.Exp)
		if !ExpLive(old, now) {
			if t.reapAt(&pos, nextW) {
				reaped++
			}
			t.releasePos(&pos)
			return false, reaped
		}
		atomic.StoreUint64(&curN.Exp, exp|(old&ExpRefBit))
		t.releasePos(&pos)
		return true, reaped
	}
}

// DelEx is Delete with TTL semantics: it removes key, reporting whether
// it was present and live. Deleting an expired-but-linked entry reports
// absent and counts the unlink in reaped (an expiry, not a delete).
func (t *hashThread) DelEx(key, now uint64) (bool, int) {
	head := t.t.bucket(key)
	reaped := 0
	for {
		pos := t.search(head, key)
		if !pos.found {
			t.releasePos(&pos)
			return false, reaped
		}
		curN := t.deref(pos.curSnap, pos.curRc)
		nextW := curN.next.LoadRaw()
		if nextW.HasMark(deletedMark) {
			t.releasePos(&pos)
			continue
		}
		expired := !ExpLive(atomic.LoadUint64(&curN.Exp), now)
		if !t.reapAt(&pos, nextW) {
			t.releasePos(&pos)
			continue
		}
		t.releasePos(&pos)
		if expired {
			reaped++
			return false, reaped
		}
		return true, reaped
	}
}

// EvictStep resolves one index record against the entry it tracks: the
// paper's machinery arbitrates the race with readers — a concurrent
// reader's snapshot keeps the node's payload safe, and an Upgrade after
// destruction fails. See EvictOutcome for who owns the ref afterwards.
// It deliberately performs no snapshot acquisition and no physical
// unlink: every path the simulated crash injector can interrupt sits
// outside this call, so the caller's sequence is pop → (count by
// outcome) → Reap, with the record parked in crash-adoptable storage
// across the whole step (collections.CacheHandle).
func (t *hashThread) EvictStep(ref CacheRef, now uint64) EvictOutcome {
	return t.resolveRef(ref, now, false)
}

// SweepStep is EvictStep without the capacity half: only expired entries
// are unlinked; a live one keeps its referenced bit and the outcome is
// EvictSpare, so a background sweeper can rotate through the index
// without evicting for capacity or degrading clock information.
func (t *hashThread) SweepStep(ref CacheRef, now uint64) EvictOutcome {
	return t.resolveRef(ref, now, true)
}

// resolveRef is EvictStep, or with sweep SweepStep.
func (t *hashThread) resolveRef(ref CacheRef, now uint64, sweep bool) EvictOutcome {
	th := t.th
	w := core.WeakFromWord(ref.Word)
	p := th.Upgrade(w)
	if p.IsNil() {
		// Upgrade-after-destroy loses: the entry is gone and whoever
		// unlinked it counted it. Drop the index's weak unit (the last
		// one frees the slot — the single decision point).
		th.ReleaseWeak(w)
		return EvictGone
	}
	nd := th.Deref(p)
	for {
		nextW := nd.next.LoadRaw()
		if nextW.HasMark(deletedMark) {
			th.Release(p)
			th.ReleaseWeak(w)
			return EvictGone
		}
		exp := atomic.LoadUint64(&nd.Exp)
		live := ExpLive(exp, now)
		if live && (sweep || exp&ExpRefBit != 0) {
			if !sweep {
				// Second chance: recently referenced. Clear the bit;
				// the caller keeps the ref and pushes it back.
				atomic.AndUint64(&nd.Exp, ^ExpRefBit)
			}
			th.Release(p)
			return EvictSpare
		}
		if th.CompareAndSetMark(&nd.next, nextW, deletedMark) {
			th.Release(p)
			th.ReleaseWeak(w)
			if live {
				return EvictEvicted
			}
			return EvictExpired
		}
		// The successor word moved (an insert landed after this node, or
		// a racing deleter marked it); re-read and decide again.
	}
}

// Reap is a plain helping search on key's chain, so the
// logically-deleted node EvictStep left behind is physically unlinked and
// its slot can recycle on the very next Flush.
func (t *hashThread) Reap(key uint64) {
	pos := t.search(t.t.bucket(key), key)
	t.releasePos(&pos)
}

// DropRef consumes an index record without touching the entry (index
// teardown).
func (t *hashThread) DropRef(ref CacheRef) {
	t.th.ReleaseWeak(core.WeakFromWord(ref.Word))
}

// Flush applies this worker's currently-safe deferred decrements,
// turning its own evictions into recyclable arena slots.
func (t *hashThread) Flush() { t.th.Flush() }

// Drain is Flush plus returning this worker's private free-slot
// magazines to the shared pool, for workers that free much more than
// they allocate (the expiry sweeper).
func (t *hashThread) Drain() {
	t.th.Flush()
	t.th.DrainArena()
}
