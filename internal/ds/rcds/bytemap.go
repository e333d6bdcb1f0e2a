package rcds

import (
	"sync/atomic"

	"cdrc/internal/arena"
	"cdrc/internal/core"
)

// Byte-valued map operations (DESIGN.md §13). Map and cache tables
// have one value plane (HashTable.EnableByteValues): each value's bytes
// live inline in a size-class slab, and a node's Val word carries the
// packed vals ref (0 for an empty value). The protocols:
//
// Read (map tables): a version cell never rebinds Val, so a read copies
// under the cell's snapshot alone — it blocks the cell's finalizer,
// hence the slab free.
//
// Read (cache tables, mutable Val): the node protection the caller
// already holds (position snapshot or counted ref) keeps the node from
// being finalized, but an in-place PutExB can displace and retire the
// ref mid-copy — so the reader announces the ref word in the acquire
// slot and re-validates the cell before copying (acquire-retire, the
// same argument as a counted-pointer acquire).
//
// Write (cache tables, in-place replace): the displaced ref goes through
// RetireValue unconditionally — the §12 overwrite discipline — because a
// reader that validated it may still be copying; only the eject scan
// honoring that reader's announcement may free the slab. On either kind
// of table the new ref is parked in the pid's inflight cell from
// allocation until the publishing atomic lands, so a simulated crash
// anywhere in between (the search, the node allocation) leaves the slab
// adoptable rather than leaked. There are no crash points between
// publish and ClearInflight.
//
// Returned byte slices are appended to the caller's dst (which may be
// nil); scan callbacks receive a scratch slice valid only for the call.

// putRef copies val into the value plane with a flush-and-retry on
// backpressure (when flush is set; the cache path evicts before it
// flushes instead), and parks the ref in this pid's inflight cell. The
// caller owns the ref until a publishing atomic moves it into a node;
// every return path must end in clearInflight (after publish) or
// dropRef (on failure).
func (t *listThread) putRef(val []byte, flush bool) (uint64, error) {
	th := t.th
	ref, err := t.b.vp.TryPut(th.ProcID(), val)
	if err != nil && flush {
		th.Flush() // recycle deferred value frees, then retry once
		ref, err = t.b.vp.TryPut(th.ProcID(), val)
	}
	if err != nil {
		obsAllocDrop.Inc(th.ProcID())
		return 0, err
	}
	if ref != 0 {
		t.b.vp.SetInflight(th.ProcID(), ref)
	}
	return ref, nil
}

func (t *listThread) clearInflight() {
	t.b.vp.ClearInflight(t.th.ProcID())
}

// dropRef abandons a never-published ref: unpark, then free eagerly (no
// announcement can cover a ref that was never in a cell).
func (t *listThread) dropRef(ref uint64) {
	t.clearInflight()
	t.th.FreeValue(ref)
}

// readValB copies nd's current value into dst under announce-validate.
// The caller must hold a protection on nd itself.
func (t *listThread) readValB(nd *listNode, dst []byte) []byte {
	th := t.th
	for {
		w := atomic.LoadUint64(&nd.Val)
		if w&arena.ValueRefTag == 0 {
			th.ReleaseValue() // drop any announcement a failed round left
			return dst        // empty value
		}
		th.AnnounceValue(w)
		if atomic.LoadUint64(&nd.Val) == w {
			dst = t.b.vp.AppendTo(dst, w)
			th.ReleaseValue()
			return dst
		}
		// Displaced before the announcement could land; retry. The stale
		// announcement is simply overwritten next round.
	}
}

// ScanB implements ds.VersionedMapThread: a weakly-consistent walk,
// each entry resolved to its newest live version.
func (t *hashThread) ScanB(limit int, fn func(key uint64, val []byte) bool) int {
	return t.walk(limit, fn, t.resolveHeadB)
}

// walk is the one bucket walk behind every scan: bucket order under
// snapshot protection, holding at most two snapshots at a time (within
// the 7-slot discipline). row resolves an unmarked node's visible bytes
// into dst, or reports false to skip the node; fn then sees them in
// t.vbuf, thread-owned scratch valid only until fn returns. walk visits
// up to limit rows (limit < 0 for all), stops early when fn returns
// false, and returns the number of rows fn accepted. Each bucket's chain
// is read at a consistent instant only per link, so the walk is weakly
// consistent: it never observes a freed node (snapshots pin them), but
// concurrent updates may or may not appear.
func (t *hashThread) walk(limit int, fn func(key uint64, val []byte) bool,
	row func(nd *listNode, dst []byte) ([]byte, bool)) int {
	if limit == 0 {
		return 0
	}
	th := t.th
	n := 0
	for i := range t.t.buckets {
		cur := th.GetSnapshot(&t.t.buckets[i])
		for !cur.IsNil() {
			// cur may carry the deletion mark copied from a deleted
			// predecessor's next word; the handle still dereferences to
			// the live successor (marks do not affect the slot index).
			nd := th.DerefSnapshot(cur)
			if !nd.next.LoadRaw().HasMark(deletedMark) {
				var ok bool
				if t.vbuf, ok = row(nd, t.vbuf[:0]); ok {
					if !fn(nd.Key, t.vbuf) {
						th.ReleaseSnapshot(&cur)
						return n
					}
					if n++; n == limit {
						th.ReleaseSnapshot(&cur)
						return n
					}
				}
			}
			next := th.GetSnapshot(&nd.next)
			th.ReleaseSnapshot(&cur)
			cur = next
		}
		th.ReleaseSnapshot(&cur)
	}
	return n
}

// --- cache tables ---------------------------------------------------------

// PutExB binds key to val's bytes with expiry deadline exp (0 = no TTL).
// When the key was present AND live, the old bytes are appended to dst
// with existed == true and ref is zero (the index record of the reused
// node stays valid). On a fresh link, ref carries the weak reference the
// caller must hand to the eviction index. reaped counts expired nodes
// this call unlinked along the way (attribute them to expiry). A non-nil
// error is arena backpressure: nothing was stored.
func (t *hashThread) PutExB(key uint64, val []byte, exp, now uint64, dst []byte) (old []byte, existed bool, ref CacheRef, reaped int, err error) {
	vref, err := t.putRef(val, false)
	if err != nil {
		return dst, false, CacheRef{}, 0, err
	}
	head := t.t.bucket(key)
	for {
		pos := t.search(head, key)
		if pos.found {
			curN := t.deref(pos.curSnap, pos.curRc)
			nextW := curN.next.LoadRaw()
			if nextW.HasMark(deletedMark) {
				t.releasePos(&pos)
				continue
			}
			oldExp := atomic.LoadUint64(&curN.Exp)
			if !ExpLive(oldExp, now) {
				// Expired in place: never rebind a dead node's Val (see
				// the update discipline in cache.go) — unlink it and
				// insert fresh on the next pass.
				if t.reapAt(&pos, nextW) {
					reaped++
				}
				t.releasePos(&pos)
				continue
			}
			atomic.StoreUint64(&curN.Exp, exp|ExpRefBit)
			oldW := atomic.SwapUint64(&curN.Val, vref)
			t.clearInflight()
			if oldW&arena.ValueRefTag != 0 {
				dst = t.b.vp.AppendTo(dst, oldW)
				t.th.RetireValue(oldW)
			}
			t.releasePos(&pos)
			return dst, true, CacheRef{}, reaped, nil
		}
		linked, w, lerr := t.tryLinkCache(&pos, key, vref, exp)
		if linked {
			t.clearInflight()
		}
		t.releasePos(&pos)
		if lerr != nil {
			t.dropRef(vref)
			return dst, false, CacheRef{}, reaped, lerr
		}
		if linked {
			return dst, false, CacheRef{Key: key, Word: w.Word()}, reaped, nil
		}
	}
}

// GetExB appends key's bytes to dst if present and live, stamping the
// clock referenced bit. A non-zero newExp also replaces the deadline
// (GETEX's TTL touch). reaped counts lazily-expired unlinks.
func (t *hashThread) GetExB(key, newExp, now uint64, dst []byte) ([]byte, bool, int) {
	head := t.t.bucket(key)
	reaped := 0
	for {
		pos := t.search(head, key)
		if !pos.found {
			t.releasePos(&pos)
			return dst, false, reaped
		}
		curN := t.deref(pos.curSnap, pos.curRc)
		nextW := curN.next.LoadRaw()
		if nextW.HasMark(deletedMark) {
			t.releasePos(&pos)
			continue
		}
		exp := atomic.LoadUint64(&curN.Exp)
		if !ExpLive(exp, now) {
			// Lazy expiry: the read that finds a dead entry reaps it.
			if t.reapAt(&pos, nextW) {
				reaped++
			}
			t.releasePos(&pos)
			return dst, false, reaped
		}
		if newExp != 0 {
			atomic.StoreUint64(&curN.Exp, newExp|ExpRefBit)
		} else {
			atomic.OrUint64(&curN.Exp, ExpRefBit)
		}
		dst = t.readValB(curN, dst)
		t.releasePos(&pos)
		return dst, true, reaped
	}
}

// ScanLiveB is ScanB restricted to present-and-live (unexpired)
// entries.
func (t *hashThread) ScanLiveB(now uint64, limit int, fn func(key uint64, val []byte) bool) int {
	return t.walk(limit, fn, func(nd *listNode, dst []byte) ([]byte, bool) {
		if !ExpLive(atomic.LoadUint64(&nd.Exp), now) {
			return dst, false
		}
		return t.readValB(nd, dst), true
	})
}

// --- map tables -----------------------------------------------------------

// resolveHeadB appends e's newest live value to dst: the head cell,
// unless the chain is frozen or headed by a tombstone. This is the
// current read of versioned GetB and ScanB. A pending head is the newest
// write, so it decides the read — and is help-stamped first (DESIGN.md
// §10): a lease granted after this read must resolve the same version,
// which a stamp fixed later from the live clock would hide from it. The
// copy runs under the head cell's snapshot. Version cells never rebind
// Val, so the snapshot alone (which blocks the cell's finalizer, hence
// the slab free) suffices — no value announcement.
func (t *hashThread) resolveHeadB(e *listNode, dst []byte) ([]byte, bool) {
	th := t.th
	hs := th.GetSnapshot(&e.Vers)
	ok := false
	if !hs.IsNil() && !hs.HasMark(versDeadMark) {
		hc := th.DerefSnapshot(hs)
		if t.stampWord(hc)&versTombFlag == 0 {
			if r := atomic.LoadUint64(&hc.Val); r&arena.ValueRefTag != 0 {
				dst = t.b.vp.AppendTo(dst, r)
			}
			ok = true
		}
	}
	th.ReleaseSnapshot(&hs)
	return dst, ok
}

// resolveAtB appends e's value as of ts to dst: the first cell from the
// head with a (help-)fixed stamp ≤ ts. Pending cells get stamped from
// the live clock — necessarily > ts — and skipped; tombstones report
// absent. Walking off the end means the key was born after ts. The copy
// runs under the resolved cell's snapshot (see resolveHeadB).
func (t *hashThread) resolveAtB(e *listNode, ts uint64, dst []byte) ([]byte, bool) {
	th := t.th
	cur := th.GetSnapshot(&e.Vers)
	if cur.HasMark(versDeadMark) {
		// Frozen chains are absent at every observable timestamp: the
		// tombstone purge freezes only once the tombstone's stamp is ≤
		// MinActive, and the allocation-free delete fallback freezes only
		// with no lease active — either way no current or future lease's
		// ts predates the logical delete.
		th.ReleaseSnapshot(&cur)
		return dst, false
	}
	for !cur.IsNil() {
		cn := th.DerefSnapshot(cur)
		w := t.stampWord(cn)
		if w&versStampMask <= ts {
			ok := false
			if w&versTombFlag == 0 {
				if r := atomic.LoadUint64(&cn.Val); r&arena.ValueRefTag != 0 {
					dst = t.b.vp.AppendTo(dst, r)
				}
				ok = true
			}
			th.ReleaseSnapshot(&cur)
			return dst, ok
		}
		nxt := th.GetSnapshot(&cn.next)
		th.ReleaseSnapshot(&cur)
		cur = nxt
	}
	th.ReleaseSnapshot(&cur)
	return dst, false
}

// GetB implements ds.VersionedMapThread: the current-value byte read.
func (t *hashThread) GetB(key uint64, dst []byte) ([]byte, bool) {
	pos := t.search(t.t.bucket(key), key)
	ok := false
	if pos.found {
		dst, ok = t.resolveHeadB(t.deref(pos.curSnap, pos.curRc), dst)
	}
	t.releasePos(&pos)
	return dst, ok
}

// PutB implements ds.VersionedMapThread: it prepends a version cell
// carrying val's ref (insert and replace are the same write; a tombstone
// head reports existed == false). The replaced value is the newest
// version at the moment the new cell was published. No RetireValue
// anywhere: a map's displaced values stay reachable as history, and each
// cell's ref is freed by the finalizer cascade when a later write's
// settle trims the cell (or the entry dies).
func (t *hashThread) PutB(key uint64, val, dst []byte) ([]byte, bool, error) {
	th := t.th
	ref, err := t.putRef(val, true)
	if err != nil {
		return dst, false, err
	}
	head := t.t.bucket(key)
	for {
		pos := t.search(head, key)
		if !pos.found {
			linked, lerr := t.tryLinkV(&pos, key, ref)
			if linked {
				t.clearInflight()
			}
			t.releasePos(&pos)
			if linked {
				return dst, false, nil
			}
			if lerr != nil {
				t.dropRef(ref)
				return dst, false, lerr
			}
			continue
		}
		e := t.deref(pos.curSnap, pos.curRc)
		if e.next.LoadRaw().HasMark(deletedMark) {
			t.releasePos(&pos)
			continue
		}
		hs := th.GetSnapshot(&e.Vers)
		if hs.HasMark(versDeadMark) {
			th.ReleaseSnapshot(&hs)
			t.helpFreeze(e)
			t.releasePos(&pos)
			continue
		}
		var headRef uint64
		headTomb := true
		if !hs.IsNil() {
			// The head decides existed, so stamp it first (see
			// resolveHeadB).
			hc := th.DerefSnapshot(hs)
			headTomb = t.stampWord(hc)&versTombFlag != 0
			headRef = atomic.LoadUint64(&hc.Val)
		}
		// The link is uncounted until prepend moves the entry's unit
		// into it.
		init := func(nd *listNode) {
			nd.Key = versPending
			atomic.StoreUint64(&nd.Val, ref)
			atomic.StoreUint64(&nd.Exp, 0) // recycled slots carry arena poison
			nd.next.Init(hs.Ptr())
			nd.Vers.Init(core.NilRcPtr)
		}
		cell, aerr := newRc(th, init)
		if aerr != nil {
			obsAllocDrop.Inc(th.ProcID())
			th.ReleaseSnapshot(&hs)
			t.releasePos(&pos)
			t.dropRef(ref)
			return dst, false, aerr
		}
		if !t.prepend(e, hs.Ptr(), cell) {
			// Unpublished cell: strip its Val so the finalizer leaves our
			// parked ref alone for the retry (prepend cleared its link).
			atomic.StoreUint64(&th.Deref(cell).Val, 0)
			th.Release(cell)
			th.ReleaseSnapshot(&hs)
			t.releasePos(&pos)
			continue
		}
		t.clearInflight()
		// Copy the superseded head's bytes while hs still pins its cell
		// (a concurrent trim could otherwise finalize it mid-copy).
		if !headTomb && headRef&arena.ValueRefTag != 0 {
			dst = t.b.vp.AppendTo(dst, headRef)
		}
		th.ReleaseSnapshot(&hs)
		t.settle(e, cell)
		t.releasePos(&pos)
		return dst, !headTomb, nil
	}
}

// GetAtB implements ds.VersionedMapThread. A key whose entry was purged
// reports absent, which is consistent: purging requires the tombstone's
// stamp ≤ MinActive ≤ every live lease's ts.
func (t *hashThread) GetAtB(ts, key uint64, dst []byte) ([]byte, bool) {
	pos := t.search(t.t.bucket(key), key)
	ok := false
	if pos.found {
		dst, ok = t.resolveAtB(t.deref(pos.curSnap, pos.curRc), ts, dst)
	}
	t.releasePos(&pos)
	return dst, ok
}

// ScanAtB implements ds.VersionedMapThread: the rows form one
// point-in-time snapshot across every key — all writes stamped ≤ ts,
// none stamped later. Entries skipped for a Harris mark are safe to skip:
// versioned tables mark an entry only after freezing it on a tombstone
// no live lease can see past.
func (t *hashThread) ScanAtB(ts uint64, limit int, fn func(key uint64, val []byte) bool) int {
	return t.walk(limit, fn, func(nd *listNode, dst []byte) ([]byte, bool) {
		return t.resolveAtB(nd, ts, dst)
	})
}
