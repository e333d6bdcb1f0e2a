package rcds

import (
	"cdrc/internal/core"
	"cdrc/internal/ds"
	"cdrc/internal/pid"
)

// Natarajan-Mittal tree over deferred reference counting (Figs. 7c-7f).
// Edge words carry the algorithm's FLAG and TAG bits in the reference's
// mark bits - possible because the library "does not steal any bits of the
// pointer representation" (§5).
//
// The instructive difference from the manual version (smrds/bst.go): the
// cleanup CAS that swings the ancestor's edge past a removed chain is the
// *only* reclamation-relevant step. The overwritten successor reference
// becomes a deferred decrement; when it lands, the successor's finalizer
// releases its children, cascading down the chain. The multi-node retire
// walk of the paper's Fig. 2 - the code "several published papers" leaked
// memory by omitting - does not exist here.
const (
	flagBit = 0
	tagBit  = 1
)

// Sentinel keys, as in smrds.
const (
	infKey0 = ^uint64(0) - 2
	infKey1 = ^uint64(0) - 1
	infKey2 = ^uint64(0)
)

type bstNode struct {
	Key         uint64
	left, right core.AtomicRcPtr
}

// BST is the Natarajan-Mittal tree over deferred reference counting.
type BST struct {
	dom       *core.Domain[bstNode]
	name      string
	snapshots bool

	root core.RcPtr // R sentinel (never released)
	s    core.RcPtr // S sentinel
}

// NewBST creates an empty tree. snapshots selects the paper's full
// configuration (traversals via snapshot pointers) versus eager counting.
func NewBST(maxProcs int, snapshots bool) *BST {
	if maxProcs <= 0 {
		maxProcs = pid.DefaultMaxProcs
	}
	b := &BST{snapshots: snapshots}
	suffix := "/DRC (+ snapshots)"
	if !snapshots {
		suffix = "/DRC"
	}
	b.name = "bst" + suffix
	b.dom = core.NewDomain[bstNode](core.Config[bstNode]{
		MaxProcs:      maxProcs,
		EagerDestruct: !snapshots,
		Finalizer: func(t *core.Thread[bstNode], n *bstNode) {
			t.Release(n.left.LoadRaw().Unmarked())
			t.Release(n.right.LoadRaw().Unmarked())
			n.left.Init(core.NilRcPtr)
			n.right.Init(core.NilRcPtr)
		},
	})
	t := b.dom.Attach()
	leaf := func(key uint64) core.RcPtr {
		return t.NewRc(func(n *bstNode) { n.Key = key })
	}
	b.s = t.NewRc(func(n *bstNode) {
		n.Key = infKey1
		n.left.Init(leaf(infKey1))
		n.right.Init(leaf(infKey2))
	})
	b.root = t.NewRc(func(n *bstNode) {
		n.Key = infKey2
		n.left.Init(t.Clone(b.s))
		n.right.Init(leaf(infKey2))
	})
	t.Detach()
	return b
}

// Name implements ds.Set.
func (b *BST) Name() string { return b.name }

// LiveNodes implements ds.Set.
func (b *BST) LiveNodes() int64 { return b.dom.Live() }

// Unreclaimed implements ds.Set.
func (b *BST) Unreclaimed() int64 { return b.dom.Deferred() }

// Attach implements ds.Set.
func (b *BST) Attach() ds.SetThread {
	return &bstThread{b: b, th: b.dom.Attach(), snapshots: b.snapshots}
}

type bstThread struct {
	b         *BST
	th        *core.Thread[bstNode]
	snapshots bool
}

// ref is a protected reference in either mode. borrowed marks references
// to the immortal sentinels, which carry no protection to release.
type ref struct {
	snap     core.Snapshot
	rc       core.RcPtr
	borrowed bool
}

func (r ref) ptr() core.RcPtr {
	if !r.snap.IsNil() {
		return r.snap.Ptr()
	}
	return r.rc
}

func (r ref) isNil() bool { return r.snap.IsNil() && r.rc.IsNil() }

func (t *bstThread) readRef(a *core.AtomicRcPtr) ref {
	if t.snapshots {
		return ref{snap: t.th.GetSnapshot(a)}
	}
	return ref{rc: t.th.Load(a)}
}

func (t *bstThread) releaseRef(r *ref) {
	if r.borrowed {
		*r = ref{}
		return
	}
	t.th.ReleaseSnapshot(&r.snap)
	t.th.Release(r.rc.Unmarked())
	r.rc = core.NilRcPtr
}

func (t *bstThread) deref(r ref) *bstNode {
	if !r.snap.IsNil() {
		return t.th.DerefSnapshot(r.snap)
	}
	return t.th.Deref(r.rc)
}

// ownRef mints a counted reference from a protected one (for storing into
// a new node or a cell).
func (t *bstThread) ownRef(r ref) core.RcPtr {
	if !r.snap.IsNil() {
		return t.th.RcFromSnapshot(r.snap).Unmarked()
	}
	return t.th.Clone(r.rc.Unmarked())
}

// seekRecord holds the four protected positions of a traversal: at most
// five protections live at once (the four roles plus the child being
// read), matching the paper's "at most five snapshot pointers" for this
// structure.
//
// While every edge on the path is untagged, the successor role coincides
// with the parent role (ancestor advances to the grandparent each level),
// so successor carries no hold of its own and succIsParent is set. Only
// when a tagged edge is traversed do ancestor/successor freeze; at that
// moment the successor materializes its own counted hold (the snapshot
// "copy" the paper notes is non-trivial - it must go through a count).
// The common-case traversal therefore performs no counter operations at
// all, which is the point of snapshots (§5.2).
type seekRecord struct {
	ancestor     ref
	successor    ref // valid only when !succIsParent
	succIsParent bool
	parent       ref
	leaf         ref
}

// succ returns the successor's reference word.
func (sr *seekRecord) succ() core.RcPtr {
	if sr.succIsParent {
		return sr.parent.ptr()
	}
	return sr.successor.ptr()
}

func (t *bstThread) releaseSeek(sr *seekRecord) {
	t.releaseRef(&sr.ancestor)
	if !sr.succIsParent {
		t.releaseRef(&sr.successor)
	}
	t.releaseRef(&sr.parent)
	t.releaseRef(&sr.leaf)
	sr.succIsParent = true
}

// childAddr returns the edge of node nd that a search for key follows.
func childAddr(nd *bstNode, key uint64) *core.AtomicRcPtr {
	if key < nd.Key {
		return &nd.left
	}
	return &nd.right
}

// sentinelRef fabricates a borrowed ref to a sentinel, which is safe
// because sentinels are never released.
func (t *bstThread) sentinelRef(p core.RcPtr) ref { return ref{rc: p, borrowed: true} }

// seek walks to key's leaf, tracking the last untagged turn.
func (t *bstThread) seek(key uint64) seekRecord {
	b := t.b
	sr := seekRecord{
		ancestor:     t.sentinelRef(b.root),
		succIsParent: true, // successor starts as the parent (both are S)
		parent:       t.sentinelRef(b.s),
	}
	sN := t.th.Deref(b.s)
	sr.leaf = t.readRef(&sN.left)
	parentField := sr.leaf.ptr()

	cur := t.readRef(&t.deref(sr.leaf).left)
	for !cur.ptr().IsNil() {
		if !parentField.HasMark(tagBit) {
			// The last untagged turn advances: ancestor becomes the old
			// parent, successor becomes the old leaf - which is exactly
			// the node the parent role is about to take, so no separate
			// hold is needed.
			t.releaseRef(&sr.ancestor)
			if !sr.succIsParent {
				t.releaseRef(&sr.successor)
				sr.succIsParent = true
			}
			sr.ancestor = sr.parent
			sr.parent = ref{} // moved into ancestor
		} else if sr.succIsParent {
			// Freeze: ancestor/successor stop advancing, but the parent
			// role moves on. Materialize the successor's own hold.
			sr.successor = t.dupRef(sr.parent)
			sr.succIsParent = false
			t.releaseRef(&sr.parent)
		} else {
			t.releaseRef(&sr.parent)
		}
		sr.parent = sr.leaf
		sr.leaf = cur
		parentField = cur.ptr()
		cur = t.readRef(childAddr(t.deref(sr.leaf), key))
	}
	t.releaseRef(&cur)
	return sr
}

// dupRef takes an additional protection of the node r protects. In
// snapshot mode this consumes a snapshot slot; in counted mode it clones.
func (t *bstThread) dupRef(r ref) ref {
	if r.isNil() {
		return ref{}
	}
	if !r.snap.IsNil() {
		return ref{rc: t.th.RcFromSnapshot(r.snap).WithMarks(r.snap.Marks())}
	}
	return ref{rc: t.th.Clone(r.rc.Unmarked()).WithMarks(r.rc.Marks())}
}

// Insert implements ds.SetThread.
func (t *bstThread) Insert(key uint64) bool {
	if key >= infKey0 {
		panic("rcds: key collides with BST sentinels")
	}
	th := t.th
	for {
		sr := t.seek(key)
		leafN := t.deref(sr.leaf)
		if leafN.Key == key {
			t.releaseSeek(&sr)
			return false
		}
		addr := childAddr(t.deref(sr.parent), key)
		leafOwned := t.ownRef(sr.leaf) // new internal's reference to the old leaf
		newLeafKey := key
		niKey := key
		leafOnLeft := key >= leafN.Key
		if key < leafN.Key {
			niKey = leafN.Key
		}
		// Allocate the new leaf before the internal node so a failure of
		// either can release exactly what has been minted so far.
		leafInit := func(nl *bstNode) { nl.Key = newLeafKey }
		newLeaf, err := newRc(th, leafInit)
		if err != nil {
			obsAllocDrop.Inc(th.ProcID())
			th.Release(leafOwned)
			t.releaseSeek(&sr)
			return false
		}
		niInit := func(ni *bstNode) {
			ni.Key = niKey
			if leafOnLeft {
				ni.left.Init(leafOwned)
				ni.right.Init(newLeaf)
			} else {
				ni.left.Init(newLeaf)
				ni.right.Init(leafOwned)
			}
		}
		n, err := newRc(th, niInit)
		if err != nil {
			obsAllocDrop.Inc(th.ProcID())
			th.Release(leafOwned)
			th.Release(newLeaf)
			t.releaseSeek(&sr)
			return false
		}
		expected := sr.leaf.ptr().Unmarked()
		if th.CompareAndSwapMove(addr, expected, n) {
			t.releaseSeek(&sr)
			return true
		}
		th.Release(n) // cascades: releases leafOwned and the new leaf
		w := addr.LoadRaw()
		if w.Unmarked() == expected && w.Marks() != 0 {
			t.cleanup(key, &sr)
		}
		t.releaseSeek(&sr)
	}
}

// Delete implements ds.SetThread.
func (t *bstThread) Delete(key uint64) bool {
	th := t.th
	injecting := true
	var target core.RcPtr
	for {
		sr := t.seek(key)
		if injecting {
			leafN := t.deref(sr.leaf)
			if leafN.Key != key {
				t.releaseSeek(&sr)
				return false
			}
			addr := childAddr(t.deref(sr.parent), key)
			expected := sr.leaf.ptr().Unmarked()
			if th.CompareAndSetMark(addr, expected, flagBit) {
				injecting = false
				target = expected
				done := t.cleanup(key, &sr)
				t.releaseSeek(&sr)
				if done {
					return true
				}
				continue
			}
			w := addr.LoadRaw()
			if w.Unmarked() == expected && w.Marks() != 0 {
				t.cleanup(key, &sr) // help
			}
			t.releaseSeek(&sr)
			continue
		}
		if sr.leaf.ptr().Unmarked() != target {
			t.releaseSeek(&sr)
			return true // someone else removed our flagged leaf
		}
		done := t.cleanup(key, &sr)
		t.releaseSeek(&sr)
		if done {
			return true
		}
	}
}

// Contains implements ds.SetThread.
func (t *bstThread) Contains(key uint64) bool {
	sr := t.seek(key)
	found := t.deref(sr.leaf).Key == key
	t.releaseSeek(&sr)
	return found
}

// cleanup swings the ancestor's edge past the removed chain. Reclamation
// of the chain is entirely automatic: the overwritten successor reference
// is a deferred decrement, and finalizers cascade it down the chain.
func (t *bstThread) cleanup(key uint64, sr *seekRecord) bool {
	th := t.th
	ancN := t.deref(sr.ancestor)
	succAddr := childAddr(ancN, key)
	parN := t.deref(sr.parent)
	var cAddr, sibAddr *core.AtomicRcPtr
	if key < parN.Key {
		cAddr, sibAddr = &parN.left, &parN.right
	} else {
		cAddr, sibAddr = &parN.right, &parN.left
	}
	if !cAddr.LoadRaw().HasMark(flagBit) {
		sibAddr = cAddr
	}
	// Freeze the surviving edge.
	for {
		sw := sibAddr.LoadRaw()
		if sw.HasMark(tagBit) || th.CompareAndSetMark(sibAddr, sw, tagBit) {
			break
		}
	}
	sw := sibAddr.LoadRaw()
	// Mint the ancestor's new counted reference to the sibling. The
	// parent (protected via sr.parent) owns sibAddr's reference, keeping
	// the sibling alive while we do this.
	sibOwned := th.Load(sibAddr).Unmarked()
	desired := sibOwned
	if sw.HasMark(flagBit) {
		desired = desired.WithMark(flagBit)
	}
	if th.CompareAndSwapMove(succAddr, sr.succ().Unmarked(), desired) {
		// The successor's reference was retired by the CAS; the chain
		// collapses through finalizers. Nothing else to do.
		return true
	}
	th.Release(sibOwned)
	return false
}

// Detach implements ds.SetThread.
func (t *bstThread) Detach() {
	t.th.Flush()
	t.th.Detach()
}

// Abandon implements rcscheme.Crasher (see listThread.Abandon). Note that
// BST operations hold counted references in locals across most of their
// windows, so crash injection must land between operations, not inside.
func (t *bstThread) Abandon() { t.th.Abandon() }
