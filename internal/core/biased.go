package core

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"cdrc/internal/arena"
	"cdrc/internal/chaos"
	"cdrc/internal/obs"
)

// Biased reference counting (DESIGN.md §12).
//
// An object's count is split across two header words. The *owner word*
// (arena.Header.Owner) packs an owning pid with that pid's local count;
// it is single-writer — only the thread currently holding the pid (or
// an exclusive reserver/adopter of it) stores to it — so the owner's
// increments and decrements are an uncontended load + store with no
// read-modify-write. Every other pid touches the *shared word*
// (arena.Header.RefCount), whose two low bits are flags and whose upper
// bits hold a count that may go negative while the object is biased:
//
//	true count = owner-local count + shared count
//
// Invariants:
//
//   - biased ⇒ local ≥ 1: the owner folds the object (unbias) the
//     moment its last local unit is consumed, so a biased object is
//     never dead.
//   - Destruction happens only on unbiased objects. Whoever unbiases
//     folds local into shared in one CAS; that CAS is the single atomic
//     zero-decision point, so the two-word split can never double-free.
//   - A cross-pid decrement that drives the shared count negative sets
//     the queued flag and notifies the owning pid's merge inbox — the
//     owner must fold before it could ever conclude "not zero" — or,
//     when the pid is unregistered, reserves the pid and folds on its
//     behalf.
//   - A fold that finds a merged count of zero must not destroy inline
//     (announcements may still protect the handle): it resurrects the
//     count to one in the same CAS and releases that synthetic unit
//     through the ordinary deferred-decrement pipeline.
//   - Any path that reissues a pid (Detach→Unregister, the adopt hook
//     before Reinstate) closes the pid's inbox and folds everything in
//     it first; objects still biased to the old pid are inherited by
//     the id's next holder (bias names a pid, not a goroutine) or
//     folded lazily by notifiers through the reservation path.
const (
	rcQueued   = 1 // shared word: owner has a pending merge request
	rcUnbiased = 2 // shared word: owner word folded; count is exact
	rcShift    = 2 // shared count occupies the bits above the flags
)

// sharedCount extracts the (possibly negative) count from a shared word.
func sharedCount(v int64) int64 { return v >> rcShift }

// packBias builds an owner word: pid+1 in the high half so that zero
// remains "unbiased", local count in the low half.
func packBias(pid int, local uint32) uint64 { return uint64(pid+1)<<32 | uint64(local) }

// biasPid extracts the owning pid of a nonzero owner word.
func biasPid(ow uint64) int { return int(ow>>32) - 1 }

// biasLocal extracts the owner-local count.
func biasLocal(ow uint64) uint32 { return uint32(ow) }

// Observability: every increment/decrement application counts exactly
// once as biased (owner word) or shared (shared word), so at quiescence
// biased + shared equals the total number of count touches; unbias
// counts each owner-word clear (exactly one per object lifetime, so it
// equals arena.alloc at teardown), and merge counts the folds performed
// on behalf of a queued request.
//
// The count touches themselves are the hottest instructions in the
// repository, and obs's disabled fast path — one atomic nil-load — is
// measurable next to a biased touch that is itself just a load+store
// pair (the obs overhead gate caught exactly that). So the per-touch
// paths tally into plain single-writer fields on the Thread and
// flushRcTally publishes them at drain points and teardown
// (drainLocal, Abandon); only the rare fold path (mergeOwned, which
// may run with no Thread at all) bumps the counters directly. The
// identities above are quiescence statements, and every quiescence
// passes through a drain or an abandon, so nothing is lost.
var (
	obsRcBiased = obs.NewCounter("core.rc.biased")
	obsRcShared = obs.NewCounter("core.rc.shared")
	obsRcMerge  = obs.NewCounter("core.rc.merge")
	obsRcUnbias = obs.NewCounter("core.rc.unbias")
)

// flushRcTally publishes the thread-local count-touch tallies to the
// obs counters and zeroes them. Called wherever the thread reaches a
// drain point; cheap enough (three branches on usually-zero fields)
// that callers need not gate it.
func (t *Thread[T]) flushRcTally() {
	if t.nBiased != 0 {
		obsRcBiased.Add(t.pid, t.nBiased)
		t.nBiased = 0
	}
	if t.nShared != 0 {
		obsRcShared.Add(t.pid, t.nShared)
		t.nShared = 0
	}
	if t.nUnbias != 0 {
		obsRcUnbias.Add(t.pid, t.nUnbias)
		t.nUnbias = 0
	}
}

// Stall-only fault point between an owner word being cleared by a merge
// and the fold landing on the shared word: stretches the window in
// which concurrent decrements see neither a bias nor the folded count.
// Crashing here would strand the in-flight local count, which exists
// only in the merging goroutine's locals — same rule as counted
// references (DESIGN.md §5).
var chaosMergeFold = chaos.New("core.rc.merge-before-fold")

// mergeInbox is one pid's queue of merge requests: handles whose shared
// word went negative while biased to the pid. Pushes are rare (at most
// one per object lifetime), so a mutex suffices; n mirrors occupancy so
// the owner's merge-point check is a single atomic load. The inbox is
// open exactly while its pid is registered — Attach opens it, Detach
// and the adopt hook close it — and a push against a closed inbox
// fails, sending the notifier to the reservation path instead. That
// fail-closed rule is what makes teardown sound: no request can land in
// an inbox nobody will ever drain.
type mergeInbox struct {
	mu     sync.Mutex
	n      atomic.Int32
	closed bool
	list   []arena.Handle
	_      [64]byte // keep adjacent pids' inboxes off one line
}

func (ib *mergeInbox) push(h arena.Handle) bool {
	ib.mu.Lock()
	if ib.closed {
		ib.mu.Unlock()
		return false
	}
	ib.list = append(ib.list, h)
	ib.n.Store(int32(len(ib.list)))
	ib.mu.Unlock()
	return true
}

// take empties the inbox and returns its requests; with close set it
// also closes the inbox, so later pushes fail.
func (ib *mergeInbox) take(close bool) []arena.Handle {
	ib.mu.Lock()
	out := ib.list
	ib.list = nil
	ib.n.Store(0)
	ib.closed = ib.closed || close
	ib.mu.Unlock()
	return out
}

func (ib *mergeInbox) open() {
	ib.mu.Lock()
	ib.closed = false
	ib.mu.Unlock()
}

// releaseOwned gives up one count unit of h that the calling thread
// itself holds (Release's destruct in the deferred configuration). When
// the thread owns the bias and at least one local unit remains
// afterwards, the decrement applies inline as a plain owner-word store:
// the count stays positive, so zero-detection, snapshot protection, and
// the deferred-decrement pipeline are untouched — this is the fast path
// that turns the common Release into two uncontended memory operations
// instead of the whole retire/eject machinery. The last unit (and every
// non-owner unit) retires as before.
//
// This fast path is legal ONLY for a unit the caller holds in hand. A
// unit released by overwriting an atomic cell must go through
// retireAndEject unconditionally — see the discipline note on Store.
// Inline releases here are safe precisely because they never reach the
// zero decision: any loader mid acquire→increment window validated its
// handle against a cell, so a distinct cell-held unit exists whose
// application is gated on that loader's announcement, and the count the
// loader depends on survives this fast path untouched.
func (t *Thread[T]) releaseOwned(h arena.Handle) {
	hdr := t.d.pool.Hdr(h)
	if ow := hdr.Owner.Load(); ow != 0 && biasPid(ow) == t.pid && biasLocal(ow) > 1 {
		hdr.Owner.Store(ow - 1)
		t.nBiased++
		return
	}
	t.retireAndEject(h)
}

// sharedDecrement applies one safe-to-apply decrement to the shared
// word on behalf of a thread that does not own the bias. On an unbiased
// object the word is exact: zero destroys, negative is a double-release
// (the count reported is the true merged count, since the owner
// contribution is zero). On a biased object the decrement may drive the
// shared count negative; the transition below zero queues a merge with
// the owner, which alone can decide liveness.
func (t *Thread[T]) sharedDecrement(h arena.Handle, hdr *arena.Header) {
	// One blind fetch-and-add, exactly like the unbiased scheme: the
	// returned word carries the flag bits atomically with the count, so
	// the decrement classifies itself after the fact instead of paying a
	// CAS loop on the cross-pid fast path.
	nv := hdr.RefCount.Add(-1 << rcShift)
	c := sharedCount(nv)
	if nv&rcUnbiased != 0 {
		if c == 0 {
			chaosDecrementZero.Fire()
			t.deleteObj(h)
		} else if c < 0 {
			panic(fmt.Sprintf("core: reference count of %#x went negative (%d)", uint64(h), c))
		}
		return
	}
	if c < 0 {
		// Still biased and the shared word dipped below zero: only the
		// owner can decide liveness, so queue a merge. The queued bit is
		// a best-effort dedup — merges are advisory and idempotent, so a
		// lost CAS or a duplicate notify is harmless, and whoever saw the
		// bit clear is already committed to notifying.
		if nv&rcQueued == 0 {
			hdr.RefCount.CompareAndSwap(nv, nv|rcQueued)
			t.notifyOwner(h)
		}
	}
}

// unbiasOnLastLocal applies an owner decrement that consumes the last
// owner-local unit: the object unbiases and the remaining count is
// whatever the shared word holds. Called only from decrement — the
// decrement being applied is already safe (ejected, or eager by
// configuration) — so a merged count of zero destroys inline exactly
// like the pre-bias path did.
func (t *Thread[T]) unbiasOnLastLocal(h arena.Handle, hdr *arena.Header) {
	hdr.Owner.Store(0)
	t.nUnbias++
	for {
		v := hdr.RefCount.Load()
		c := sharedCount(v)
		if c < 0 {
			// Merged count: the local unit this decrement consumed is
			// already accounted, so the shared count is the whole story.
			panic(fmt.Sprintf("core: reference count of %#x went negative (%d)", uint64(h), c))
		}
		if hdr.RefCount.CompareAndSwap(v, c<<rcShift|rcUnbiased) {
			if c == 0 {
				chaosDecrementZero.Fire()
				t.deleteObj(h)
			}
			return
		}
	}
}

// notifyOwner hands h to the owner named by its owner word after a
// cross-pid decrement drove the shared count negative. If the owning
// pid's inbox is closed (pid unregistered, or mid-adoption), the
// notifier takes the owner's role itself under a registry reservation.
// The retry loop spins only across a registration or adoption
// transition in flight, both of which complete without us.
func (t *Thread[T]) notifyOwner(h arena.Handle) {
	hdr := t.d.pool.Hdr(h)
	for {
		ow := hdr.Owner.Load()
		if ow == 0 {
			return // unbiased concurrently; that fold saw our decrement
		}
		p := biasPid(ow)
		if p == t.pid || t.holdsRights(p) {
			// Our own pid (the slot died and was reborn under it between
			// the decrement and this notify), or a pid whose reservation
			// this thread already holds further up the stack (a merge's
			// synthetic retire applied a decrement that queued another
			// merge for the same pid): fold directly — re-reserving our
			// own reservation would spin forever.
			t.d.mergeOwned(p, h, t)
			return
		}
		if t.d.inboxes[p].push(h) {
			return
		}
		if t.d.ar.TryReservePid(p) {
			t.rights = append(t.rights, p)
			t.d.mergeOwned(p, h, t)
			t.rights = t.rights[:len(t.rights)-1]
			t.d.ar.UnreservePid(p)
			return
		}
		runtime.Gosched()
	}
}

// holdsRights reports whether this thread currently holds a registry
// reservation for pid p (the stack is almost always empty or one deep).
func (t *Thread[T]) holdsRights(p int) bool {
	for _, r := range t.rights {
		if r == p {
			return true
		}
	}
	return false
}

// mergeOwned folds h's owner-local count into its shared word and
// unbiases it. The caller must hold exclusive rights to rightsPid's
// owner-word writes: it is the registered holder, holds a registry
// reservation, or is the adopter under the reap lock (t == nil there —
// the adopt hook has no Thread). Requests are advisory: if the object
// is already unbiased, or the slot was recycled and re-biased to a
// different pid, the merge is skipped; folding a still-live object
// merely retires its bias early, which is always sound.
//
// A fold that computes a merged count of zero resurrects it to one in
// the same CAS — the count is never observably zero — and releases the
// synthetic unit through the deferred-decrement pipeline, so
// destruction only ever runs on a live Thread once no announcement
// protects the handle.
func (d *Domain[T]) mergeOwned(rightsPid int, h arena.Handle, t *Thread[T]) {
	hdr := d.pool.Hdr(h)
	ow := hdr.Owner.Load()
	if ow == 0 || biasPid(ow) != rightsPid {
		return
	}
	local := int64(biasLocal(ow))
	hdr.Owner.Store(0)
	obsRcUnbias.Inc(rightsPid)
	obsRcMerge.Inc(rightsPid)
	chaosMergeFold.Fire()
	for {
		v := hdr.RefCount.Load()
		c := sharedCount(v) + local
		switch {
		case c > 0:
			if hdr.RefCount.CompareAndSwap(v, c<<rcShift|rcUnbiased) {
				return
			}
		case c == 0:
			if hdr.RefCount.CompareAndSwap(v, 1<<rcShift|rcUnbiased) {
				// Retire WITHOUT the paired eject: an eject here applies a
				// decrement that can queue the next merge, and a chain of
				// dying objects would recurse one stack frame per object.
				// The thread's next retireWord pays it (ejectDebt); an
				// orphan retire is paid by the spare eject of whichever
				// pid's scan adopts it.
				if obs.Enabled() {
					hdr.RetireEra.Store(obs.NowNanos())
				}
				if t != nil {
					obsDecrDeferred.Inc(t.pid)
					d.ar.Retire(t.pid, uint64(h))
					t.ejectDebt++
				} else {
					obsDecrDeferred.Inc(rightsPid)
					d.ar.RetireOrphan(rightsPid, uint64(h))
				}
				return
			}
		default:
			panic(fmt.Sprintf("core: reference count of %#x went negative (%d) at merge", uint64(h), c))
		}
	}
}

// drainMergeInbox folds every merge request queued for this pid. Called
// at the owner's merge points: retireWord, drainLocal (Flush, Detach),
// never on the increment/decrement fast paths.
func (t *Thread[T]) drainMergeInbox() {
	for _, h := range t.d.inboxes[t.pid].take(false) {
		t.d.mergeOwned(t.pid, h, t)
	}
}
