package smrds

import (
	"fmt"
	"sync"
	"sync/atomic"

	"cdrc/internal/arena"
	"cdrc/internal/ds"
	"cdrc/internal/pid"
	"cdrc/internal/smr"
)

// Natarajan-Mittal lock-free binary search tree (PPoPP 2014), the
// structure of Figs. 7c-7f. It is leaf-oriented: keys live in leaves,
// internal nodes route, and deletion marks *edges* with two bits - FLAG
// (the edge's leaf is being deleted) and TAG (the edge must not change) -
// before a single CAS swings the ancestor's edge past the removed chain.
//
// Reclamation caveat, reproduced deliberately: applying HP/HE/IBR to this
// tree safely requires adding restarts after failed validations, which the
// IBR benchmark suite did not do; the paper therefore calls its Fig. 7
// numbers for those combinations "a generous estimate" (§7.2). This port
// mirrors the suite: seek announces protections but never restarts, so
// under HP/HE/IBR a stalled traversal can read recycled nodes. The arena
// makes such reads memory-safe in Go (slabs are never unmapped), exactly
// as they happened to be survivable in the C++ suite. EBR and No MM are
// safe without restarts; so is the rcds version via reference counting.

const (
	flagBit = 0 // edge's child (a leaf) is being deleted
	tagBit  = 1 // edge is frozen; no further CAS may change it
)

// Sentinel keys: every real key must be below infKey0.
const (
	infKey0 = ^uint64(0) - 2
	infKey1 = ^uint64(0) - 1
	infKey2 = ^uint64(0)
)

// bstNode is both internal node and leaf (leaves have nil children).
type bstNode struct {
	Key         uint64
	left, right atomic.Uint64
}

// BST is the Natarajan-Mittal tree reclaimed by a manual smr scheme.
type BST struct {
	pool *arena.Pool[bstNode]
	rec  smr.Reclaimer
	name string

	// leakyRetire reproduces the §8 bug found "in the artifacts of
	// several papers, some specifically about concurrent memory
	// reclamation": after cleanup's swing CAS, retire only the successor
	// and the target leaf instead of walking the whole removed chain
	// (the paper's Fig. 2). Under concurrent deletes the chain can be
	// long, and every skipped node leaks. Tests demonstrate the leak;
	// never enable outside them.
	leakyRetire bool

	// afterInjection and afterTag, when non-nil, run inside the delete
	// protocol's two preemption windows (after the injection CAS; after
	// cleanup's tag, before its swing). Preemption in the second window
	// freezes an edge and makes other cleanups remove multi-node chains.
	// Tests install scheduler yields here to provoke chains
	// deterministically.
	afterInjection func()
	afterTag       func()

	// debugRetires records the stack of each retire when non-nil (test
	// diagnostics for double-retire hunting).
	debugRetires *sync.Map

	root arena.Handle // R sentinel; R.left = S sentinel
	sHdl arena.Handle
}

// NewBSTLeaky creates a tree with the §8 retire bug deliberately present
// (for the leak-demonstration test).
func NewBSTLeaky(kind smr.Kind, maxProcs int) *BST {
	b := NewBST(kind, maxProcs)
	b.leakyRetire = true
	b.name += " (leaky retire)"
	return b
}

// NewBST creates an empty tree reclaimed by the given smr scheme.
func NewBST(kind smr.Kind, maxProcs int) *BST {
	if maxProcs <= 0 {
		maxProcs = pid.DefaultMaxProcs
	}
	b := &BST{
		pool: arena.NewPool[bstNode](maxProcs),
		name: "bst/" + string(kind),
	}
	b.rec = smr.New(kind, smr.Config{
		MaxProcs: maxProcs,
		Free: func(procID int, h arena.Handle) {
			if b.debugRetires != nil {
				if prev, ok := b.debugRetires.LoadAndDelete(h); !ok {
					panic(fmt.Sprintf("FREE WITHOUT PENDING RETIRE of %#x", uint64(h)))
				} else {
					_ = prev
				}
			}
			b.pool.Free(procID, h)
		},
		Era: b.pool.Era,
	})
	// Build the sentinels under a temporary reclaimer thread's id.
	init := b.rec.Attach()
	p := init.ID()
	leaf := func(key uint64) arena.Handle {
		h := b.pool.Alloc(p)
		b.pool.Get(h).Key = key
		return h
	}
	s := b.pool.Alloc(p)
	sN := b.pool.Get(s)
	sN.Key = infKey1
	sN.left.Store(uint64(leaf(infKey1)))
	sN.right.Store(uint64(leaf(infKey2)))
	r := b.pool.Alloc(p)
	rN := b.pool.Get(r)
	rN.Key = infKey2
	rN.left.Store(uint64(s))
	rN.right.Store(uint64(leaf(infKey2)))
	b.root, b.sHdl = r, s
	init.Detach()
	return b
}

// Name implements ds.Set.
func (b *BST) Name() string { return b.name }

// LiveNodes implements ds.Set.
func (b *BST) LiveNodes() int64 { return b.pool.Live() }

// Unreclaimed implements ds.Set.
func (b *BST) Unreclaimed() int64 { return b.rec.Unreclaimed() }

// Attach implements ds.Set.
func (b *BST) Attach() ds.SetThread {
	th := b.rec.Attach()
	return &bstThread{b: b, th: th, ppid: th.ID()}
}

type bstThread struct {
	b    *BST
	th   smr.Thread
	ppid int
}

// Protection slot roles during seek.
const (
	slotAncestor  = 0
	slotSuccessor = 1
	slotParent    = 2
	slotLeaf      = 3
	slotCurrent   = 4
)

// seekRecord is the result of a traversal (Natarajan-Mittal Fig. 4).
type seekRecord struct {
	ancestor  arena.Handle // deepest node whose edge to successor is untagged
	successor arena.Handle
	parent    arena.Handle
	leaf      arena.Handle
}

// childAddr returns the edge of n that a search for key follows.
func (b *BST) childAddr(n arena.Handle, key uint64) *atomic.Uint64 {
	nd := b.pool.Get(n)
	if key < nd.Key {
		return &nd.left
	}
	return &nd.right
}

// seek walks from the root to the leaf on key's search path, remembering
// the last untagged turn (ancestor/successor) so cleanup can swing past
// removed chains.
func (t *bstThread) seek(key uint64) seekRecord {
	b := t.b
	sr := seekRecord{
		ancestor:  b.root,
		successor: b.sHdl,
		parent:    b.sHdl,
	}
	t.th.Announce(slotAncestor, sr.ancestor)
	t.th.Announce(slotSuccessor, sr.successor)
	t.th.Announce(slotParent, sr.parent)

	// Start at S's left child; parentField is the edge word we followed
	// into the current leaf (its tag bit drives ancestor tracking).
	sN := b.pool.Get(b.sHdl)
	leafW := t.th.Protect(slotLeaf, &sN.left)
	sr.leaf = leafW.Unmarked()
	parentField := leafW

	currentField := t.th.Protect(slotCurrent, &b.pool.Get(sr.leaf).left)
	current := currentField.Unmarked()

	for !current.IsNil() {
		if !parentField.HasMark(tagBit) {
			sr.ancestor = sr.parent
			sr.successor = sr.leaf
			t.th.Announce(slotAncestor, sr.ancestor)
			t.th.Announce(slotSuccessor, sr.successor)
		}
		sr.parent = sr.leaf
		sr.leaf = current
		t.th.Announce(slotParent, sr.parent)
		t.th.Announce(slotLeaf, sr.leaf)

		parentField = currentField
		currentField = t.th.Protect(slotCurrent, t.b.childAddr(current, key))
		current = currentField.Unmarked()
	}
	return sr
}

// Insert implements ds.SetThread.
func (t *bstThread) Insert(key uint64) bool {
	if key >= infKey0 {
		panic("smrds: key collides with BST sentinels")
	}
	b := t.b
	t.th.Begin()
	defer t.th.End()
	for {
		sr := t.seek(key)
		leafN := b.pool.Get(sr.leaf)
		if leafN.Key == key {
			return false
		}
		addr := b.childAddr(sr.parent, key)
		// Build the replacement subtree: a new internal node whose
		// children are the existing leaf and the new leaf.
		newLeaf := b.pool.Alloc(t.ppid)
		t.th.OnAlloc(newLeaf)
		b.pool.Get(newLeaf).Key = key
		newInternal := b.pool.Alloc(t.ppid)
		t.th.OnAlloc(newInternal)
		ni := b.pool.Get(newInternal)
		if key < leafN.Key {
			ni.Key = leafN.Key
			ni.left.Store(uint64(newLeaf))
			ni.right.Store(uint64(sr.leaf))
		} else {
			ni.Key = key
			ni.left.Store(uint64(sr.leaf))
			ni.right.Store(uint64(newLeaf))
		}
		if addr.CompareAndSwap(uint64(sr.leaf), uint64(newInternal)) {
			return true
		}
		// Lost the race: discard the unpublished nodes and, if the edge
		// is flagged or tagged on our leaf, help the pending delete.
		b.pool.Free(t.ppid, newLeaf)
		b.pool.Free(t.ppid, newInternal)
		w := arena.Handle(addr.Load())
		if w.Unmarked() == sr.leaf && w.Marks() != 0 {
			t.cleanup(key, sr)
		}
	}
}

// Delete implements ds.SetThread (Natarajan-Mittal's injection/cleanup
// protocol).
func (t *bstThread) Delete(key uint64) bool {
	b := t.b
	t.th.Begin()
	defer t.th.End()
	injecting := true
	var target arena.Handle
	for {
		sr := t.seek(key)
		if injecting {
			if b.pool.Get(sr.leaf).Key != key {
				return false
			}
			addr := b.childAddr(sr.parent, key)
			// Injection: flag the edge to the victim leaf.
			if addr.CompareAndSwap(uint64(sr.leaf), uint64(sr.leaf.SetMark(flagBit))) {
				injecting = false
				target = sr.leaf
				if b.afterInjection != nil {
					b.afterInjection()
				}
				if t.cleanup(key, sr) {
					return true
				}
				continue
			}
			w := arena.Handle(addr.Load())
			if w.Unmarked() == sr.leaf && w.Marks() != 0 {
				t.cleanup(key, sr) // help whoever is deleting here
			}
			continue
		}
		// Cleanup mode: keep trying until our flagged leaf is gone.
		if sr.leaf != target {
			return true // someone else finished removing it
		}
		if t.cleanup(key, sr) {
			return true
		}
	}
}

// Contains implements ds.SetThread.
func (t *bstThread) Contains(key uint64) bool {
	t.th.Begin()
	defer t.th.End()
	sr := t.seek(key)
	return t.b.pool.Get(sr.leaf).Key == key
}

// cleanup removes the chain between sr.successor and the surviving
// sibling subtree with one CAS on the ancestor's edge, then retires every
// node on the removed chain - including the multi-node chains created by
// concurrent deletes that §8 (and Fig. 2) show are so easy to leak.
func (t *bstThread) cleanup(key uint64, sr seekRecord) bool {
	b := t.b
	ancN := b.pool.Get(sr.ancestor)
	var succAddr *atomic.Uint64
	if key < ancN.Key {
		succAddr = &ancN.left
	} else {
		succAddr = &ancN.right
	}
	parN := b.pool.Get(sr.parent)
	var childAddr, sibAddr *atomic.Uint64
	if key < parN.Key {
		childAddr, sibAddr = &parN.left, &parN.right
	} else {
		childAddr, sibAddr = &parN.right, &parN.left
	}
	if !arena.Handle(childAddr.Load()).HasMark(flagBit) {
		// The victim is on the sibling side; the subtree to keep is the
		// child side.
		sibAddr = childAddr
	}
	// Freeze the surviving edge so it cannot change under the swing.
	for {
		sw := sibAddr.Load()
		if arena.Handle(sw).HasMark(tagBit) ||
			sibAddr.CompareAndSwap(sw, uint64(arena.Handle(sw).SetMark(tagBit))) {
			break
		}
	}
	if b.afterTag != nil {
		b.afterTag()
	}
	sw := arena.Handle(sibAddr.Load())
	sibling := sw.Unmarked()
	// Swing the ancestor's edge past the whole chain, preserving the
	// sibling's flag (it may itself be a victim of a pending delete).
	newWord := sibling
	if sw.HasMark(flagBit) {
		newWord = newWord.SetMark(flagBit)
	}
	if !succAddr.CompareAndSwap(uint64(sr.successor), uint64(newWord)) {
		return false
	}
	if b.leakyRetire {
		// The §8 mistake: assume the chain is exactly one internal node
		// plus its victim leaf. Correct only when no deletes raced; every
		// deeper chain node leaks. (The victim is chosen tag-aware, like
		// the fixed walk below, so this variant leaks without the
		// separate double-retire hazard the tag rule prevents.)
		nd := b.pool.Get(sr.successor)
		l := arena.Handle(nd.left.Load())
		r := arena.Handle(nd.right.Load())
		victim := r
		if r.HasMark(tagBit) || (!l.HasMark(tagBit) && !l.HasMark(flagBit)) {
			victim = l
		}
		if !victim.IsNil() && victim.Unmarked() != sibling {
			t.th.Retire(victim.Unmarked())
		}
		t.th.Retire(sr.successor)
		return true
	}
	// We own the removed chain: retire every node from successor down to
	// sr.parent, plus each node's victim leaf.
	//
	// Navigating the chain is subtler than the paper's Fig. 2 sketch,
	// which branches on each node's flag bits: when the surviving sibling
	// is itself mid-deletion (its flag was preserved by the swing), or
	// when both edges of a node were tagged by different cleanups, the
	// mark-based rule can step the wrong way - retiring the reachable
	// sibling (a double retire) or running off a leaf. The robust
	// invariant is structural: the chain is exactly the nodes on key's
	// search path from successor to parent, every chain edge is frozen,
	// and each node's off-path child is the flagged victim leaf of the
	// delete that froze it. So walk by key, stop at the parent, and at
	// the parent retire whichever edge cleanup did not keep.
	for n := sr.successor; ; {
		nd := b.pool.Get(n)
		if n == sr.parent {
			var victimEdge *atomic.Uint64
			if sibAddr == childAddr {
				// Help case: the kept subtree is on key's side; the
				// victim is the other child.
				if key < nd.Key {
					victimEdge = &nd.right
				} else {
					victimEdge = &nd.left
				}
			} else {
				victimEdge = childAddr
			}
			t.retireDbg(arena.Handle(victimEdge.Load()).Unmarked(), key, sr, "parent-victim")
			t.retireDbg(n, key, sr, "parent")
			return true
		}
		var pathEdge, victimEdge *atomic.Uint64
		if key < nd.Key {
			pathEdge, victimEdge = &nd.left, &nd.right
		} else {
			pathEdge, victimEdge = &nd.right, &nd.left
		}
		t.retireDbg(arena.Handle(victimEdge.Load()).Unmarked(), key, sr, "chain-victim")
		t.retireDbg(n, key, sr, "chain")
		n = arena.Handle(pathEdge.Load()).Unmarked()
	}
}

// retireDbg retires h, recording/checking stacks when debugging.
func (t *bstThread) retireDbg(h arena.Handle, key uint64, sr seekRecord, role string) {
	if t.b.debugRetires != nil {
		desc := fmt.Sprintf("key=%d role=%s anc=%#x succ=%#x par=%#x leaf=%#x",
			key, role, uint64(sr.ancestor), uint64(sr.successor), uint64(sr.parent), uint64(sr.leaf))
		if prev, loaded := t.b.debugRetires.LoadOrStore(h, desc); loaded {
			panic(fmt.Sprintf("DOUBLE RETIRE of %#x\nFIRST:  %s\nSECOND: %s", uint64(h), prev, desc))
		}
	}
	t.th.Retire(h)
}

// Detach implements ds.SetThread.
func (t *bstThread) Detach() {
	t.th.Flush()
	t.th.Detach()
}
