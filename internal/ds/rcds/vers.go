package rcds

import (
	"math"
	"sync/atomic"

	"cdrc/internal/chaos"
	"cdrc/internal/core"
)

// Versioned map operations (multi-version concurrency over the same
// Harris-Michael bucket lists, DESIGN.md §10). A versioned table keeps,
// per key, a chain of immutable version cells hanging off the entry
// node's Vers word, newest first. A version cell is an ordinary listNode
// drawn from the same arena/domain:
//
//	entry node:   Key = map key, next = bucket chain, Vers = version head
//	version cell: Key = stamp word, Val = value, next = older cell,
//	              Vers = nil
//
// The stamp word packs a tombstone flag (bit 63) and a version stamp
// (bits 0..62; all-ones = pending). Writers publish a pending cell with
// one CAS on the entry's Vers word, then fix its stamp from the
// VersionSource clock. Readers resolving "as of ts" walk the chain to
// the first cell with a fixed stamp ≤ ts, help-stamping pending cells on
// the way — helping is what makes a write's position in version order
// agreed on by everyone, which in turn is what makes a multi-key read at
// one ts an atomic snapshot (a half-stamped write could otherwise be
// visible under one key and invisible under another). Every operation
// that decides on the head cell (current reads, the existed of a put,
// the already-absent of a delete) stamps it first, for the same reason.
//
// Retention is the lease contract (internal/snaplease): a version
// superseded at or before MinActive() can never be observed by any
// active or future lease and is trimmed; deletions append a tombstone
// cell and physically remove the entry only once the tombstone itself
// falls at or before MinActive() (the freeze protocol at tryPurge).
//
// Snapshot budget: every operation here holds at most 5 of the 7
// per-thread snapshot slots at once (search's prev/cur plus at most a
// 3-deep protection chain), preserving the acqret.MaxSnapshots
// discipline no matter how many keys one service request touches —
// that is the whole point: the lease replaces "hold snapshots for the
// duration of a multi-shard read" with "hold a timestamp".

// chaosPrependCAS sits just before a writer's prepend CAS on an entry's
// Vers word (PutB's version cell, DeleteV's tombstone): a stall there lets
// another writer move the head, so the stalled CAS loses and takes the
// lost path, whose new cell links the old head without owning a count
// (see prepend). Stall-only: a crash here would leak the unpublished
// cell and its value.
var chaosPrependCAS = chaos.New("rcds.vers.before-prepend-cas")

// prepend publishes cell, whose next word already holds head's exact word
// uncounted, as e's newest version: one CAS of e.Vers from head to cell.
// On success e's count unit for head moves into cell.next, so head's
// count line — the one concurrent readers of this key are reading — is
// not written, and no retire or deferred decrement is paid. On failure
// CompareAndSwapLinked has cleared cell.next, and the caller still owns
// cell.
func (t *hashThread) prepend(e *listNode, head, cell core.RcPtr) bool {
	chaosPrependCAS.Fire()
	return t.th.CompareAndSwapLinked(&e.Vers, head, cell, &t.th.Deref(cell).next)
}

// VersionSource is the clock and retention oracle a versioned table
// trims against (implemented by snaplease.Pool).
type VersionSource interface {
	// Now returns the stamp a write fixed at this instant carries.
	// Must be monotone, and > the timestamp of any lease granted
	// before the call.
	Now() uint64

	// MinActive returns the smallest timestamp any active lease may
	// hold, MaxUint64 when none (versions superseded at or before it
	// are unobservable).
	MinActive() uint64
}

const (
	// versTombFlag marks a version cell as a tombstone (key absent).
	versTombFlag = uint64(1) << 63

	// versStampMask extracts the stamp; all-ones means "pending" (the
	// writer has published the cell but not yet fixed its stamp).
	versStampMask = uint64(1)<<63 - 1
	versPending   = versStampMask

	// versDeadMark is the mark bit on an entry's Vers word that freezes
	// the chain: no writer can prepend past it (their CAS expects an
	// unmarked word), making the head tombstone final so the entry can
	// be unlinked. Distinct from deletedMark, which lives on next words.
	versDeadMark = 1

	// maintainDepth caps maintainVers's walk: under a long-held lease
	// the trim boundary can be arbitrarily deep and write latency must
	// not scale with it. Trimming is best-effort — the first write
	// after the lease releases finds the boundary at the head.
	maintainDepth = 8
)

// NewVersionedHashTable creates a hash map whose PutB/GetB/DeleteV/ScanB
// run multi-versioned against vs, adding GetAtB/ScanAtB point-in-time
// reads. Like any map it needs EnableByteValues before AttachMap.
// Snapshot mode is forced on (version resolution traverses under
// snapshot protection). The set API (Insert/Delete/Contains via
// Attach) must not be used on a versioned table.
func NewVersionedHashTable(buckets, maxProcs int, vs VersionSource) *HashTable {
	h := NewHashTable(buckets, maxProcs, true)
	h.vsrc = vs
	return h
}

// stampWord returns c's stamp word, first fixing a pending stamp from
// the live clock (helping). All helpers CAS against the same observed
// word, so exactly one stamp wins and everyone returns it. A stamp fixed
// now is > the timestamp of every already-granted lease (snaplease's
// clock contract), so a reader that helps knows the cell is invisible to
// its own read.
func (t *hashThread) stampWord(c *listNode) uint64 {
	w := atomic.LoadUint64(&c.Key)
	if w&versStampMask != versPending {
		return w
	}
	nw := (w & versTombFlag) | t.t.vsrc.Now()
	if atomic.CompareAndSwapUint64(&c.Key, w, nw) {
		return nw
	}
	return atomic.LoadUint64(&c.Key)
}

// stampCellIn fixes the stamp of the cell whose reference word is
// target, walking e's version chain under snapshot protection and
// help-stamping newer cells on the way (they are the only cells above
// it). A writer must not return before its cell's stamp is fixed —
// otherwise a later lease could predate the eventual stamp and miss a
// completed write. Safe when target was already trimmed: a cell cut
// while pending sat below a fixed cell whose stamp bounds every present
// and future lease, so it is permanently shadowed either way.
func (t *hashThread) stampCellIn(e *listNode, target core.RcPtr) {
	th := t.th
	cur := th.GetSnapshot(&e.Vers)
	for !cur.IsNil() {
		cn := th.DerefSnapshot(cur)
		t.stampWord(cn)
		if cur.Ptr().Unmarked() == target.Unmarked() {
			break
		}
		nxt := th.GetSnapshot(&cn.next)
		th.ReleaseSnapshot(&cur)
		cur = nxt
	}
	th.ReleaseSnapshot(&cur)
}

// chaosBeforeSettle sits between a writer's won prepend (PutB's version
// cell, DeleteV's tombstone) and its settle walk: a stall there lets
// another writer prepend above the cell, so settle takes the fallback.
// Stall-only: the writer's cell is published but its stamp is not fixed
// yet, and a writer must not return (or die) before it is.
var chaosBeforeSettle = chaos.New("rcds.vers.before-settle")

// settle fixes the stamp of cell, which this writer just prepended to
// e, and trims e's superseded tail, in one walk. While cell is still
// the head (the common case) it stamps it and trims from it. With no
// lease held the cell, stamped before maintainVers reads the clock, is
// itself the boundary, so the walk visits one cell and cuts the rest.
// When another writer got in first it falls back to stampCellIn, which
// help-stamps the newer cells down to ours, and trims from the new head.
func (t *hashThread) settle(e *listNode, cell core.RcPtr) {
	chaosBeforeSettle.Fire()
	th := t.th
	hs := th.GetSnapshot(&e.Vers)
	if hs.Ptr().Unmarked() == cell.Unmarked() {
		t.stampWord(th.DerefSnapshot(hs))
	} else {
		th.ReleaseSnapshot(&hs)
		t.stampCellIn(e, cell)
		hs = th.GetSnapshot(&e.Vers)
	}
	t.maintainVers(hs)
}

// maintainVers help-stamps the newest cells of a version chain, from cur
// (a snapshot it releases), and trims the superseded tail: the first of
// up to maintainDepth cells with a fixed stamp ≤ the horizon is the
// boundary — every active and future lease resolves at or above it —
// and one StoreMove cuts everything older (the finalizer cascade
// releases the cells).
//
// The horizon, read once, is MinActive capped by the clock read just
// before it. A lease that MinActive missed was claimed after the clock
// read, so its ts is ≥ that clock value; a lease it saw has ts ≥
// MinActive. A cell whose fixed stamp is ≤ both is thus ≤ every active
// and future lease's ts, whenever it was stamped. The cap matters when
// no lease is held: MinActive is then MaxUint64, and a cell stamped
// during the walk — another writer's pending cell, stamped after a
// lease drew its ts — would otherwise bound the trim and cut the
// version that lease resolves to.
func (t *hashThread) maintainVers(cur core.Snapshot) {
	th := t.th
	now := t.t.vsrc.Now()
	ma := min(now, t.t.vsrc.MinActive())
	for depth := 0; !cur.IsNil() && depth < maintainDepth; depth++ {
		cn := th.DerefSnapshot(cur)
		w := t.stampWord(cn)
		if w&versStampMask <= ma {
			if !cn.next.LoadRaw().IsNil() {
				th.StoreMove(&cn.next, core.NilRcPtr)
			}
			break
		}
		nxt := th.GetSnapshot(&cn.next)
		th.ReleaseSnapshot(&cur)
		cur = nxt
	}
	th.ReleaseSnapshot(&cur)
}

// helpFreeze finishes a frozen entry's logical delete: set the Harris
// mark on its next word so every subsequent search unlinks it. The CAS
// retries only over successor-unlink interference, as delete does.
func (t *hashThread) helpFreeze(e *listNode) {
	th := t.th
	for {
		w := e.next.LoadRaw()
		if w.HasMark(deletedMark) {
			return
		}
		if th.CompareAndSetMark(&e.next, w, deletedMark) {
			return
		}
	}
}

// tryPurge physically removes an entry whose newest version is a
// tombstone no active or future lease can see past (stamp ≤ MinActive):
// freeze the chain (versDeadMark on the Vers word — racing writers'
// prepend CAS now fails and they re-insert a fresh entry), mark the
// entry's next word, and attempt the unlink. Best-effort: any failed
// step leaves the entry for a later pass, a search, or Clear.
func (t *hashThread) tryPurge(pos *position, e *listNode) {
	th := t.th
	hs := th.GetSnapshot(&e.Vers)
	if hs.IsNil() {
		th.ReleaseSnapshot(&hs)
		return
	}
	if hs.HasMark(versDeadMark) {
		th.ReleaseSnapshot(&hs)
		t.helpFreeze(e)
		return
	}
	w := atomic.LoadUint64(&th.DerefSnapshot(hs).Key)
	if w&versTombFlag == 0 || w&versStampMask == versPending ||
		w&versStampMask > t.t.vsrc.MinActive() {
		th.ReleaseSnapshot(&hs)
		return
	}
	if !th.CompareAndSetMark(&e.Vers, hs.Ptr(), versDeadMark) {
		th.ReleaseSnapshot(&hs)
		return
	}
	th.ReleaseSnapshot(&hs)
	t.helpFreeze(e)
	// Physical unlink; a stale pos just fails the CAS and a later search
	// finishes the job.
	nextRc := th.Load(&e.next)
	if !th.CompareAndSwapMove(pos.prevLink, pos.cur(), nextRc.Unmarked()) {
		th.Release(nextRc)
	}
}

// tryLinkV inserts a fresh entry for key carrying a single pending
// version cell whose Val is the vals ref ref, then fixes the cell's
// stamp. Returns like tryLink: (false, nil) asks the caller to
// re-search.
func (t *hashThread) tryLinkV(pos *position, key, ref uint64) (bool, error) {
	th := t.th
	cinit := func(nd *listNode) {
		nd.Key = versPending
		atomic.StoreUint64(&nd.Val, ref)
		nd.next.Init(core.NilRcPtr)
		nd.Vers.Init(core.NilRcPtr)
	}
	cell, err := newRc(th, cinit)
	if err != nil {
		obsAllocDrop.Inc(th.ProcID())
		return false, err
	}
	var curOwned core.RcPtr
	if !pos.curSnap.IsNil() {
		curOwned = th.RcFromSnapshot(pos.curSnap)
	} else if !pos.curRc.IsNil() {
		curOwned = th.Clone(pos.curRc)
	}
	einit := func(nd *listNode) {
		nd.Key = key
		atomic.StoreUint64(&nd.Val, 0)
		nd.next.Init(curOwned)
		nd.Vers.Init(cell)
	}
	en, err := newRc(th, einit)
	if err != nil {
		obsAllocDrop.Inc(th.ProcID())
		th.Release(curOwned)
		// Unpublished: strip the cell's Val so the finalizer leaves the
		// caller's parked vals ref alone.
		atomic.StoreUint64(&th.Deref(cell).Val, 0)
		th.Release(cell)
		return false, err
	}
	if !th.CompareAndSwapMove(pos.prevLink, pos.cur(), en) {
		atomic.StoreUint64(&th.Deref(cell).Val, 0)
		th.Release(en) // finalizer releases curOwned and cell
		return false, nil
	}
	// Fix the cell's stamp before returning. en moved into the list and
	// could already be deleted and reclaimed, so re-protect through the
	// link we published it on; a mismatch means a concurrent mutator
	// replaced the chain head and its own maintenance stamps our cell.
	hsEn := th.GetSnapshot(pos.prevLink)
	if !hsEn.IsNil() && hsEn.Ptr().Unmarked() == en.Unmarked() {
		t.stampCellIn(th.DerefSnapshot(hsEn), cell)
	}
	th.ReleaseSnapshot(&hsEn)
	return true, nil
}

// DeleteV implements ds.VersionedMapThread: it removes key by appending
// a tombstone cell (so leases older than the delete still see the
// value), then attempts the physical purge. The error is arena
// backpressure: versioned deletes allocate.
func (t *hashThread) DeleteV(key uint64) (bool, error) {
	th := t.th
	head := t.t.bucket(key)
	for {
		pos := t.search(head, key)
		if !pos.found {
			t.releasePos(&pos)
			return false, nil
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
		if hs.IsNil() {
			th.ReleaseSnapshot(&hs)
			t.releasePos(&pos)
			return false, nil
		}
		// The head decides the outcome, so stamp it first (see
		// resolveHeadB): a pending tombstone observed here is a delete
		// this one linearizes after.
		if t.stampWord(th.DerefSnapshot(hs))&versTombFlag != 0 {
			// Already absent; opportunistically finish its removal.
			th.ReleaseSnapshot(&hs)
			t.tryPurge(&pos, e)
			t.releasePos(&pos)
			return false, nil
		}
		// The link is uncounted until prepend moves the entry's unit
		// into it.
		init := func(nd *listNode) {
			nd.Key = versTombFlag | versPending
			atomic.StoreUint64(&nd.Val, 0)
			nd.next.Init(hs.Ptr())
			nd.Vers.Init(core.NilRcPtr)
		}
		cell, aerr := newRc(th, init)
		if aerr != nil {
			// Allocation-free fallback: deleting must not require memory
			// when nothing retains history, or a full arena could never be
			// drained. With no lease active (and none mid-claim) the freeze
			// protocol deletes directly — frozen chains read as absent at
			// every current and future timestamp. With leases active the
			// error is honest backpressure: history retention needs the
			// tombstone cell.
			if t.t.vsrc.MinActive() != math.MaxUint64 {
				obsAllocDrop.Inc(th.ProcID())
				th.ReleaseSnapshot(&hs)
				t.releasePos(&pos)
				return false, aerr
			}
			if !th.CompareAndSetMark(&e.Vers, hs.Ptr(), versDeadMark) {
				th.ReleaseSnapshot(&hs)
				t.releasePos(&pos)
				continue
			}
			th.ReleaseSnapshot(&hs)
			t.helpFreeze(e)
			nextRc := th.Load(&e.next)
			if !th.CompareAndSwapMove(pos.prevLink, pos.cur(), nextRc.Unmarked()) {
				th.Release(nextRc)
			}
			t.releasePos(&pos)
			return true, nil
		}
		if !t.prepend(e, hs.Ptr(), cell) {
			th.Release(cell)
			th.ReleaseSnapshot(&hs)
			t.releasePos(&pos)
			continue
		}
		th.ReleaseSnapshot(&hs)
		t.settle(e, cell)
		t.tryPurge(&pos, e)
		t.releasePos(&pos)
		return true, nil
	}
}
