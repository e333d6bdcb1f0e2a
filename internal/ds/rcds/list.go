// Package rcds implements the §7.2 data structures - Harris-Michael list,
// Michael hash table, and Natarajan-Mittal tree - on top of the paper's
// deferred reference counting library (internal/core), using snapshot
// pointers for every short-lived traversal reference exactly as the paper
// prescribes: at most three snapshots per operation for the list and hash
// table, at most five for the tree.
//
// Contrast with internal/ds/smrds: there is no Retire call anywhere in
// this package. Unlinking a node retires it implicitly (the CAS's
// overwritten reference becomes a deferred decrement), and removing a
// chain head releases the whole chain through finalizers - the exact
// hazard the paper's §8/Fig. 2 shows experts getting wrong by hand.
package rcds

import (
	"sync/atomic"

	"cdrc/internal/arena"
	"cdrc/internal/core"
	"cdrc/internal/ds"
	"cdrc/internal/obs"
	"cdrc/internal/pid"
	"cdrc/internal/vals"
)

// obsAllocDrop counts operations dropped on allocation failure (arena cap
// or injected fault); the name is shared with the rcscheme adapters.
var obsAllocDrop = obs.NewCounter("rcscheme.alloc.drop")

// newRc is th.TryNewRc that, on arena backpressure, flushes th's
// deferred decrements once (recycling the slots they free) and retries.
// On failure init never ran, so the caller still owns what it captured;
// the caller releases that and counts the drop in obsAllocDrop. The
// cache insert (tryLinkCache) does not use it: it evicts before it
// flushes.
func newRc[T any](th *core.Thread[T], init func(*T)) (core.RcPtr, error) {
	p, err := th.TryNewRc(init)
	if err != nil {
		th.Flush()
		p, err = th.TryNewRc(init)
	}
	return p, err
}

// deletedMark is the Harris deletion mark on a node's next word.
const deletedMark = 0

// listNode is a Harris-Michael node with a counted successor reference.
// Val holds the packed vals ref of the node's value bytes (bytemap.go),
// or 0 for an empty value and for every node of a set; no table keeps
// anything else there. It is read and replaced with sync/atomic so a
// PutB racing with readers on other processors stays well-defined even
// on recycled arena slots.
//
// Vers is used only by versioned tables (vers.go): on an entry node it
// heads the key's version chain; on a version cell it is nil and Key is
// reinterpreted as the cell's stamp word. Set and cache tables keep it
// nil, so the only cost they pay is one extra Init per insert.
//
// Exp is used only by cache tables (cache.go): bit 63 is the clock
// "referenced" bit and bits 0..62 hold the entry's expiry deadline in
// monotonic nanoseconds (0 = no TTL). Set and map tables leave it zero;
// it is read and written with sync/atomic like Val.
type listNode struct {
	Key  uint64
	Val  uint64
	Exp  uint64
	next core.AtomicRcPtr
	Vers core.AtomicRcPtr
}

// listBase is shared by List and HashTable.
type listBase struct {
	dom   *core.Domain[listNode]
	name  string
	procs int

	// vp is the table's value plane (DESIGN.md §13): the slab pool its
	// Val words' vals refs point into. Set once via
	// HashTable.EnableByteValues before any Attach; nil on set-only
	// tables, which is why AttachMap and AttachCache refuse them.
	vp *vals.Pool
}

func newListBase(structure string, maxProcs int, snapshots bool) *listBase {
	if maxProcs <= 0 {
		maxProcs = pid.DefaultMaxProcs
	}
	b := &listBase{procs: maxProcs}
	suffix := "/DRC (+ snapshots)"
	if !snapshots {
		suffix = "/DRC"
	}
	b.name = structure + suffix
	b.dom = core.NewDomain[listNode](core.Config[listNode]{
		MaxProcs:      maxProcs,
		EagerDestruct: !snapshots,
		Finalizer: func(t *core.Thread[listNode], n *listNode) {
			// Valued tables: the node's value slab dies with it. Eager free
			// is legal here — count zero means every reader's protecting
			// node announcement is gone, and a ref still in Val was never
			// displaced, so no value announcement can cover it either.
			if b.vp != nil {
				if w := atomic.LoadUint64(&n.Val); w&arena.ValueRefTag != 0 {
					t.FreeValue(w)
					atomic.StoreUint64(&n.Val, 0)
				}
			}
			t.Release(n.next.LoadRaw().Unmarked())
			n.next.Init(core.NilRcPtr)
			// Versioned tables: an entry's version chain dies with it (the
			// word may carry the freeze mark; strip it). Set and cache
			// nodes and version cells hold nil here.
			t.Release(n.Vers.LoadRaw().Unmarked())
			n.Vers.Init(core.NilRcPtr)
		},
	})
	return b
}

// List is the Harris-Michael list over deferred reference counting.
type List struct {
	base      *listBase
	snapshots bool
	head      core.AtomicRcPtr
}

// NewList creates a list-based set. snapshots selects the paper's full
// configuration (deferred increments for traversal) versus eager counting.
func NewList(maxProcs int, snapshots bool) *List {
	return &List{base: newListBase("list", maxProcs, snapshots), snapshots: snapshots}
}

// Name implements ds.Set.
func (l *List) Name() string { return l.base.name }

// LiveNodes implements ds.Set.
func (l *List) LiveNodes() int64 { return l.base.dom.Live() }

// Unreclaimed implements ds.Set: deferred decrements approximate
// removed-but-unreclaimed nodes.
func (l *List) Unreclaimed() int64 { return l.base.dom.Deferred() }

// Attach implements ds.Set.
func (l *List) Attach() ds.SetThread {
	return &listThread{b: l.base, th: l.base.dom.Attach(), head: &l.head, snapshots: l.snapshots}
}

type listThread struct {
	b         *listBase
	th        *core.Thread[listNode]
	head      *core.AtomicRcPtr
	snapshots bool

	// vbuf is the byte-scan scratch (bytemap.go): one value copy per
	// row, reused across rows and calls, so steady-state scans do not
	// allocate.
	vbuf []byte
}

// position is a search result. When snapshots are enabled prev/cur are
// snapshot-protected; otherwise they are counted references the caller
// must release via the same release method.
type position struct {
	prevLink *core.AtomicRcPtr // the link that points at cur
	prevSnap core.Snapshot     // protects the node owning prevLink (nil at head)
	curSnap  core.Snapshot     // protects cur; nil means end of list
	prevRc   core.RcPtr        // counted variants (non-snapshot mode)
	curRc    core.RcPtr
	found    bool
}

// cur returns the current node's reference word regardless of mode.
func (p *position) cur() core.RcPtr {
	if !p.curSnap.IsNil() {
		return p.curSnap.Ptr()
	}
	return p.curRc
}

func (t *listThread) releasePos(p *position) {
	th := t.th
	th.ReleaseSnapshot(&p.prevSnap)
	th.ReleaseSnapshot(&p.curSnap)
	th.Release(p.prevRc)
	th.Release(p.curRc)
	p.prevRc, p.curRc = core.NilRcPtr, core.NilRcPtr
}

// read protects and returns the reference in a, as a snapshot or a
// counted load depending on mode. The second return is the matching
// counted handle for non-snapshot mode.
func (t *listThread) read(a *core.AtomicRcPtr) (core.Snapshot, core.RcPtr) {
	if t.snapshots {
		return t.th.GetSnapshot(a), core.NilRcPtr
	}
	return core.Snapshot{}, t.th.Load(a)
}

// deref resolves a position's current node.
func (t *listThread) deref(s core.Snapshot, rc core.RcPtr) *listNode {
	if !s.IsNil() {
		return t.th.DerefSnapshot(s)
	}
	return t.th.Deref(rc)
}

// search finds the first node with Key >= key, unlinking marked nodes
// (Michael's algorithm). The returned position holds protections the
// caller must release with releasePos.
func (t *listThread) search(head *core.AtomicRcPtr, key uint64) position {
	th := t.th
retry:
	for {
		pos := position{prevLink: head}
		curSnap, curRc := t.read(head)
		pos.curSnap, pos.curRc = curSnap, curRc
		for {
			// A marked word here means the node owning prevLink was
			// deleted between our validation and this read: restart.
			// Check before the end-of-list test: a marked nil must not
			// end the search, or an insert's CAS expecting that marked
			// word would link past (and unmark) a deleted node.
			cur := pos.cur()
			if cur.Marks() != 0 {
				t.releasePos(&pos)
				continue retry
			}
			if cur.IsNil() {
				return pos
			}
			curN := t.deref(pos.curSnap, pos.curRc)
			nextW := curN.next.LoadRaw()
			// Validate: prevLink must still cleanly point at cur.
			if pos.prevLink.LoadRaw() != cur {
				t.releasePos(&pos)
				continue retry
			}
			if nextW.HasMark(deletedMark) {
				// cur is logically deleted: unlink it. The overwritten
				// reference becomes a deferred decrement automatically.
				nextRc := th.Load(&curN.next)
				if !th.CompareAndSwapMove(pos.prevLink, cur, nextRc.Unmarked()) {
					th.Release(nextRc)
					t.releasePos(&pos)
					continue retry
				}
				// Re-read the link we just updated.
				th.ReleaseSnapshot(&pos.curSnap)
				th.Release(pos.curRc)
				pos.curRc = core.NilRcPtr
				pos.curSnap, pos.curRc = t.read(pos.prevLink)
				continue
			}
			if curN.Key >= key {
				pos.found = curN.Key == key
				return pos
			}
			// Advance: protect next, shift roles, drop the old prev.
			nextSnap, nextRc := t.read(&curN.next)
			th.ReleaseSnapshot(&pos.prevSnap)
			th.Release(pos.prevRc)
			pos.prevSnap, pos.prevRc = pos.curSnap, pos.curRc
			pos.curSnap, pos.curRc = nextSnap, nextRc
			pos.prevLink = &curN.next
		}
	}
}

// tryLink allocates a set node for key and CASes it in at pos. It
// returns (true, nil) when the node was linked, (false, nil) when the CAS
// lost and the caller should re-search, and (false, err) when the arena
// is exhausted even after a flush-and-retry. pos protections remain
// owned by the caller.
func (t *listThread) tryLink(pos *position, key uint64) (bool, error) {
	th := t.th
	// The new node owns a counted reference to cur.
	var curOwned core.RcPtr
	if !pos.curSnap.IsNil() {
		curOwned = th.RcFromSnapshot(pos.curSnap)
	} else if !pos.curRc.IsNil() {
		curOwned = th.Clone(pos.curRc)
	}
	init := func(nd *listNode) {
		nd.Key = key
		atomic.StoreUint64(&nd.Val, 0)
		atomic.StoreUint64(&nd.Exp, 0) // recycled slots carry arena poison
		nd.next.Init(curOwned)
		nd.Vers.Init(core.NilRcPtr) // recycled slots carry arena poison
	}
	n, err := newRc(th, init)
	if err != nil {
		// Drop the insert: init never ran, so curOwned is still ours.
		obsAllocDrop.Inc(th.ProcID())
		th.Release(curOwned)
		return false, err
	}
	if th.CompareAndSwapMove(pos.prevLink, pos.cur(), n) {
		return true, nil
	}
	th.Release(n) // never published; the finalizer releases curOwned
	return false, nil
}

// insert adds key under head. An arena-exhausted insert is dropped (the
// set-semantics callers count it via rcscheme.alloc.drop and return
// false, matching the benchmark adapters).
func (t *listThread) insert(head *core.AtomicRcPtr, key uint64) bool {
	for {
		pos := t.search(head, key)
		if pos.found {
			t.releasePos(&pos)
			return false
		}
		linked, err := t.tryLink(&pos, key)
		t.releasePos(&pos)
		if linked || err != nil {
			return linked
		}
	}
}

// delete removes key under head.
func (t *listThread) delete(head *core.AtomicRcPtr, key uint64) bool {
	th := t.th
	for {
		pos := t.search(head, key)
		if !pos.found {
			t.releasePos(&pos)
			return false
		}
		curN := t.deref(pos.curSnap, pos.curRc)
		nextW := curN.next.LoadRaw()
		if nextW.HasMark(deletedMark) {
			// Another deleter got here first; re-search to help unlink.
			t.releasePos(&pos)
			continue
		}
		if !th.CompareAndSetMark(&curN.next, nextW, deletedMark) {
			t.releasePos(&pos)
			continue
		}
		// Logically deleted by us; attempt the physical unlink.
		nextRc := th.Load(&curN.next)
		if !th.CompareAndSwapMove(pos.prevLink, pos.cur(), nextRc.Unmarked()) {
			th.Release(nextRc)
			// A later search will unlink it.
		}
		t.releasePos(&pos)
		return true
	}
}

func (t *listThread) contains(head *core.AtomicRcPtr, key uint64) bool {
	pos := t.search(head, key)
	found := pos.found
	t.releasePos(&pos)
	return found
}

// Insert implements ds.SetThread.
func (t *listThread) Insert(key uint64) bool { return t.insert(t.head, key) }

// Delete implements ds.SetThread.
func (t *listThread) Delete(key uint64) bool { return t.delete(t.head, key) }

// Contains implements ds.SetThread.
func (t *listThread) Contains(key uint64) bool { return t.contains(t.head, key) }

// Detach implements ds.SetThread.
func (t *listThread) Detach() {
	t.th.Flush()
	t.th.Detach()
}

// Abandon implements rcscheme.Crasher: the worker died mid-operation and
// survivors adopt its processor state. No flush - the dead thread's
// retired lists travel with the adoption.
func (t *listThread) Abandon() { t.th.Abandon() }
