package core

import (
	"sync"
	"testing"

	"cdrc/internal/acqret"
)

// node is the canonical test payload: a value plus a child link.
type node struct {
	Val  int64
	Next AtomicRcPtr
}

func newNodeDomain(procs int) *Domain[node] {
	return NewDomain[node](Config[node]{
		MaxProcs:    procs,
		DebugChecks: true,
		Finalizer: func(t *Thread[node], n *node) {
			t.Release(n.Next.LoadRaw())
			n.Next.Init(NilRcPtr)
		},
	})
}

// drain flushes t until the domain reaches a fixed point.
func drain[T any](t *Thread[T]) {
	for i := 0; i < 4; i++ {
		t.Flush()
	}
}

func TestAllocReleaseLeaf(t *testing.T) {
	d := newNodeDomain(2)
	th := d.Attach()
	defer th.Detach()

	p := th.NewRc(func(n *node) { n.Val = 7 })
	if th.Deref(p).Val != 7 {
		t.Fatal("init not applied")
	}
	if got := th.RefCount(p); got != 1 {
		t.Fatalf("RefCount = %d, want 1", got)
	}
	th.Release(p)
	drain(th)
	if live := d.Live(); live != 0 {
		t.Fatalf("Live = %d after release+drain", live)
	}
}

func TestEagerDestructFreesImmediately(t *testing.T) {
	d := NewDomain[node](Config[node]{MaxProcs: 2, EagerDestruct: true, DebugChecks: true})
	th := d.Attach()
	defer th.Detach()
	p := th.NewRc(nil)
	th.Release(p)
	if live := d.Live(); live != 0 {
		t.Fatalf("Live = %d immediately after eager release", live)
	}
}

func TestCloneCounts(t *testing.T) {
	d := newNodeDomain(2)
	th := d.Attach()
	defer th.Detach()
	p := th.NewRc(nil)
	q := th.Clone(p)
	if got := th.RefCount(p); got != 2 {
		t.Fatalf("RefCount after clone = %d, want 2", got)
	}
	th.Release(p)
	drain(th)
	if live := d.Live(); live != 1 {
		t.Fatalf("object freed while clone live (Live=%d)", live)
	}
	th.Release(q)
	drain(th)
	if live := d.Live(); live != 0 {
		t.Fatalf("Live = %d after releasing all", live)
	}
}

func TestLoadStoreCounted(t *testing.T) {
	d := newNodeDomain(2)
	th := d.Attach()
	defer th.Detach()

	var cell AtomicRcPtr
	a := th.NewRc(func(n *node) { n.Val = 1 })
	th.Store(&cell, a) // cell owns a copy; count 2
	if got := th.RefCount(a); got != 2 {
		t.Fatalf("count after store = %d, want 2", got)
	}
	l := th.Load(&cell)
	if th.Deref(l).Val != 1 {
		t.Fatal("loaded wrong object")
	}
	if got := th.RefCount(a); got != 3 {
		t.Fatalf("count after load = %d, want 3", got)
	}
	b := th.NewRc(func(n *node) { n.Val = 2 })
	th.StoreMove(&cell, b) // replaces a's cell copy, consumes b
	drain(th)
	if got := th.RefCount(a); got != 2 {
		t.Fatalf("count after overwrite = %d, want 2", got)
	}
	th.Release(a)
	th.Release(l)
	th.StoreMove(&cell, NilRcPtr)
	drain(th)
	if live := d.Live(); live != 0 {
		t.Fatalf("Live = %d at end", live)
	}
}

func TestCASSemantics(t *testing.T) {
	d := newNodeDomain(2)
	th := d.Attach()
	defer th.Detach()

	var cell AtomicRcPtr
	a := th.NewRc(func(n *node) { n.Val = 1 })
	b := th.NewRc(func(n *node) { n.Val = 2 })
	th.Store(&cell, a)

	// Failed CAS: no count changes.
	if th.CompareAndSwap(&cell, b, b) {
		t.Fatal("CAS succeeded with wrong expected")
	}
	if got := th.RefCount(a); got != 2 {
		t.Fatalf("count after failed CAS = %d, want 2", got)
	}
	if got := th.RefCount(b); got != 1 {
		t.Fatalf("desired count after failed CAS = %d, want 1", got)
	}

	// Successful CAS: b gains the cell's count, a's cell copy retired.
	if !th.CompareAndSwap(&cell, a, b) {
		t.Fatal("CAS failed with correct expected")
	}
	drain(th)
	if got := th.RefCount(a); got != 1 {
		t.Fatalf("expected's count after CAS = %d, want 1", got)
	}
	if got := th.RefCount(b); got != 2 {
		t.Fatalf("desired's count after CAS = %d, want 2", got)
	}

	th.Release(a)
	th.Release(b)
	th.StoreMove(&cell, NilRcPtr)
	drain(th)
	if live := d.Live(); live != 0 {
		t.Fatalf("Live = %d at end", live)
	}
}

func TestCompareAndSwapMove(t *testing.T) {
	d := newNodeDomain(2)
	th := d.Attach()
	defer th.Detach()
	var cell AtomicRcPtr
	a := th.NewRc(nil)
	th.StoreMove(&cell, a) // count 1, owned by cell
	b := th.NewRc(nil)
	if !th.CompareAndSwapMove(&cell, a, b) {
		t.Fatal("CASMove failed")
	}
	drain(th)
	// a's only count (the cell's) was retired: object freed.
	if live := d.Live(); live != 1 {
		t.Fatalf("Live = %d, want 1 (only b)", live)
	}
	if got := th.RefCount(b); got != 1 {
		t.Fatalf("b count = %d, want 1", got)
	}
	th.StoreMove(&cell, NilRcPtr)
	drain(th)
	if live := d.Live(); live != 0 {
		t.Fatalf("Live = %d at end", live)
	}
}

func TestCompareExchangeUpdatesExpected(t *testing.T) {
	d := newNodeDomain(2)
	th := d.Attach()
	defer th.Detach()
	var cell AtomicRcPtr
	a := th.NewRc(func(n *node) { n.Val = 1 })
	th.Store(&cell, a)

	stale := th.NewRc(func(n *node) { n.Val = 9 })
	exp := th.Clone(stale)
	des := th.NewRc(func(n *node) { n.Val = 2 })
	if th.CompareExchange(&cell, &exp, des) {
		t.Fatal("CompareExchange succeeded with stale expected")
	}
	// exp must now be a counted reference to the current cell content (a).
	if th.Deref(exp).Val != 1 {
		t.Fatalf("expected updated to Val=%d, want 1", th.Deref(exp).Val)
	}
	if !th.CompareExchange(&cell, &exp, des) {
		t.Fatal("CompareExchange failed with fresh expected")
	}
	th.Release(exp)
	th.Release(des)
	th.Release(a)
	th.Release(stale)
	th.StoreMove(&cell, NilRcPtr)
	drain(th)
	if live := d.Live(); live != 0 {
		t.Fatalf("Live = %d at end", live)
	}
}

func TestSnapshotBasics(t *testing.T) {
	d := newNodeDomain(2)
	th := d.Attach()
	defer th.Detach()
	var cell AtomicRcPtr
	a := th.NewRc(func(n *node) { n.Val = 5 })
	th.Store(&cell, a)

	s := th.GetSnapshot(&cell)
	if th.DerefSnapshot(s).Val != 5 {
		t.Fatal("snapshot reads wrong object")
	}
	// Snapshots are count-free.
	if got := th.RefCount(a); got != 2 {
		t.Fatalf("count with snapshot = %d, want 2", got)
	}
	// Upgrading mints a counted reference.
	up := th.RcFromSnapshot(s)
	if got := th.RefCount(a); got != 3 {
		t.Fatalf("count after upgrade = %d, want 3", got)
	}
	th.ReleaseSnapshot(&s)
	if !s.IsNil() {
		t.Fatal("snapshot not reset after release")
	}
	th.Release(up)
	th.Release(a)
	th.StoreMove(&cell, NilRcPtr)
	drain(th)
	if live := d.Live(); live != 0 {
		t.Fatalf("Live = %d at end", live)
	}
}

func TestSnapshotProtectsAgainstOverwrite(t *testing.T) {
	d := newNodeDomain(2)
	th := d.Attach()
	defer th.Detach()
	var cell AtomicRcPtr
	a := th.NewRc(func(n *node) { n.Val = 11 })
	th.StoreMove(&cell, a) // count 1: the cell's

	s := th.GetSnapshot(&cell)
	b := th.NewRc(func(n *node) { n.Val = 22 })
	th.StoreMove(&cell, b) // retires a's only count
	drain(th)              // decrement must remain deferred: s protects it
	if th.DerefSnapshot(s).Val != 11 {
		t.Fatal("snapshot invalidated by overwrite")
	}
	if live := d.Live(); live != 2 {
		t.Fatalf("Live = %d, want 2 while snapshot held", live)
	}
	th.ReleaseSnapshot(&s)
	drain(th)
	if live := d.Live(); live != 1 {
		t.Fatalf("Live = %d, want 1 after snapshot release", live)
	}
	th.StoreMove(&cell, NilRcPtr)
	drain(th)
	if live := d.Live(); live != 0 {
		t.Fatalf("Live = %d at end", live)
	}
}

func TestSnapshotSlotTakeover(t *testing.T) {
	d := newNodeDomain(2)
	th := d.Attach()
	defer th.Detach()

	cells := make([]AtomicRcPtr, acqret.MaxSnapshots+2)
	refs := make([]RcPtr, len(cells))
	for i := range cells {
		refs[i] = th.NewRc(func(n *node) { n.Val = int64(i) })
		th.Store(&cells[i], refs[i])
	}

	// Hold MaxSnapshots snapshots: all slots occupied, no counts bumped.
	snaps := make([]Snapshot, 0, len(cells))
	for i := 0; i < acqret.MaxSnapshots; i++ {
		snaps = append(snaps, th.GetSnapshot(&cells[i]))
	}
	if got := th.RefCount(refs[0]); got != 2 {
		t.Fatalf("count before takeover = %d, want 2", got)
	}

	// One more: takes over a slot, applying the victim's deferred
	// increment.
	extra := th.GetSnapshot(&cells[acqret.MaxSnapshots])
	bumped := 0
	for i := 0; i < acqret.MaxSnapshots; i++ {
		if th.RefCount(refs[i]) == 3 {
			bumped++
		}
	}
	if bumped != 1 {
		t.Fatalf("takeover bumped %d victim counts, want 1", bumped)
	}

	// Releasing every snapshot must restore all counts to 2 (cell + ref).
	th.ReleaseSnapshot(&extra)
	for i := range snaps {
		th.ReleaseSnapshot(&snaps[i])
	}
	for i := range refs {
		if got := th.RefCount(refs[i]); got != 2 {
			t.Fatalf("count of %d after all releases = %d, want 2", i, got)
		}
	}
	for i := range refs {
		th.Release(refs[i])
		th.StoreMove(&cells[i], NilRcPtr)
	}
	drain(th)
	if live := d.Live(); live != 0 {
		t.Fatalf("Live = %d at end", live)
	}
}

func TestMarkedPointers(t *testing.T) {
	d := newNodeDomain(2)
	th := d.Attach()
	defer th.Detach()
	var cell AtomicRcPtr
	a := th.NewRc(func(n *node) { n.Val = 3 })
	th.Store(&cell, a)

	if !th.CompareAndSetMark(&cell, a, 0) {
		t.Fatal("CompareAndSetMark failed")
	}
	if cell.Marks() != 1 {
		t.Fatalf("Marks = %d, want 1", cell.Marks())
	}
	// Counts unchanged by marking.
	if got := th.RefCount(a); got != 2 {
		t.Fatalf("count after mark = %d, want 2", got)
	}
	// Loading a marked cell yields a marked counted reference to the same
	// object.
	l := th.Load(&cell)
	if !l.HasMark(0) {
		t.Fatal("loaded reference lost its mark")
	}
	if th.Deref(l).Val != 3 {
		t.Fatal("marked deref read wrong object")
	}
	if got := th.RefCount(a); got != 3 {
		t.Fatalf("count after marked load = %d, want 3", got)
	}
	// CAS with marked expected succeeds and retires the marked word once.
	if !th.CompareAndSwap(&cell, a.WithMark(0), NilRcPtr) {
		t.Fatal("CAS with marked expected failed")
	}
	th.Release(l)
	th.Release(a)
	drain(th)
	if live := d.Live(); live != 0 {
		t.Fatalf("Live = %d at end", live)
	}
}

func TestFinalizerReleasesChain(t *testing.T) {
	d := newNodeDomain(2)
	th := d.Attach()
	defer th.Detach()

	// Build a 100-node chain head -> ... -> nil, each node owning the next.
	var head RcPtr
	for i := 0; i < 100; i++ {
		next := head
		head = th.NewRc(func(n *node) {
			n.Val = int64(i)
			n.Next.Init(next)
		})
	}
	if live := d.Live(); live != 100 {
		t.Fatalf("Live = %d, want 100", live)
	}
	th.Release(head)
	drain(th)
	if live := d.Live(); live != 0 {
		t.Fatalf("Live = %d after releasing chain head", live)
	}
}

func TestGetSnapshotPanicsOnEagerDomain(t *testing.T) {
	d := NewDomain[node](Config[node]{MaxProcs: 1, EagerDestruct: true})
	th := d.Attach()
	defer th.Detach()
	var cell AtomicRcPtr
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	th.GetSnapshot(&cell)
}

func TestDetachWithLiveSnapshotPanics(t *testing.T) {
	d := newNodeDomain(2)
	th := d.Attach()
	var cell AtomicRcPtr
	a := th.NewRc(nil)
	th.Store(&cell, a)
	s := th.GetSnapshot(&cell)
	_ = s
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on Detach with live snapshot")
		}
	}()
	th.Detach()
}

func TestNilOperations(t *testing.T) {
	d := newNodeDomain(2)
	th := d.Attach()
	defer th.Detach()
	var cell AtomicRcPtr
	if p := th.Load(&cell); !p.IsNil() {
		t.Fatal("load of empty cell not nil")
	}
	th.Release(NilRcPtr) // no-op
	if q := th.Clone(NilRcPtr); !q.IsNil() {
		t.Fatal("clone of nil not nil")
	}
	s := th.GetSnapshot(&cell)
	if !s.IsNil() {
		t.Fatal("snapshot of empty cell not nil")
	}
	th.ReleaseSnapshot(&s) // no-op
	if up := th.RcFromSnapshot(s); !up.IsNil() {
		t.Fatal("upgrade of nil snapshot not nil")
	}
	th.Store(&cell, NilRcPtr) // storing nil over nil: no-op
	if d.Live() != 0 {
		t.Fatal("phantom allocations")
	}
}

// Concurrent stress: threads hammer a small array of cells with loads,
// stores and CASes. DebugChecks makes any use-after-free panic; at the end
// everything must drain to zero live objects.
func TestConcurrentLoadStoreStress(t *testing.T) {
	const procs = 8
	const iters = 20000
	d := newNodeDomain(procs)

	var cells [4]AtomicRcPtr
	var wg sync.WaitGroup
	for w := 0; w < procs; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			th := d.Attach()
			defer th.Detach()
			rng := seed
			for i := 0; i < iters; i++ {
				rng = rng*6364136223846793005 + 1442695040888963407
				c := &cells[uint64(rng)>>33%4]
				switch uint64(rng) >> 60 & 3 {
				case 0:
					p := th.Load(c)
					if !p.IsNil() {
						if th.Deref(p).Val == 0 {
							t.Error("read uninitialized object")
						}
						th.Release(p)
					}
				case 1:
					n := th.NewRc(func(n *node) { n.Val = rng | 1 })
					th.StoreMove(c, n)
				case 2:
					exp := c.LoadRaw()
					n := th.NewRc(func(n *node) { n.Val = rng | 1 })
					if !th.CompareAndSwapMove(c, exp, n) {
						th.Release(n)
					}
				case 3:
					s := th.GetSnapshot(c)
					if !s.IsNil() {
						if th.DerefSnapshot(s).Val == 0 {
							t.Error("snapshot read uninitialized object")
						}
					}
					th.ReleaseSnapshot(&s)
				}
			}
		}(int64(w + 1))
	}
	wg.Wait()

	th := d.Attach()
	for i := range cells {
		th.StoreMove(&cells[i], NilRcPtr)
	}
	drain(th)
	th.Detach()
	if live := d.Live(); live != 0 {
		t.Fatalf("Live = %d after full teardown (deferred=%d)", live, d.Deferred())
	}
}

// Same stress under the wait-free and combined acquire modes.
func TestConcurrentStressWaitFree(t *testing.T) {
	testConcurrentStressMode(t, acqret.WaitFreeAcquire)
}

func TestConcurrentStressCombined(t *testing.T) {
	testConcurrentStressMode(t, acqret.CombinedAcquire)
}

func testConcurrentStressMode(t *testing.T, mode acqret.Mode) {
	const procs = 4
	const iters = 8000
	d := NewDomain[node](Config[node]{
		MaxProcs:    procs,
		AcquireMode: mode,
		DebugChecks: true,
	})
	var cell AtomicRcPtr
	var wg sync.WaitGroup
	for w := 0; w < procs; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			th := d.Attach()
			defer th.Detach()
			rng := seed
			for i := 0; i < iters; i++ {
				rng = rng*6364136223846793005 + 1442695040888963407
				if rng&1 == 0 {
					p := th.Load(&cell)
					th.Release(p)
				} else {
					n := th.NewRc(func(n *node) { n.Val = rng })
					th.StoreMove(&cell, n)
				}
			}
		}(int64(w + 1))
	}
	wg.Wait()
	th := d.Attach()
	th.StoreMove(&cell, NilRcPtr)
	drain(th)
	th.Detach()
	if live := d.Live(); live != 0 {
		t.Fatalf("Live = %d after teardown", live)
	}
}

// TestFlushAllocFreeWhenWarm pins the zero-allocation flush: once its
// scratch has grown, a Flush that ejects a destroyed chain, applies the
// decrements its finalizers retire, and keeps a handle another thread's
// snapshot still protects allocates nothing. The eject scan reuses its
// per-processor result buffer and compacts the retired list in place, so
// the Retires after it do not regrow the list either.
func TestFlushAllocFreeWhenWarm(t *testing.T) {
	d := newNodeDomain(2)
	th := d.Attach()
	reader := d.Attach()
	var cell AtomicRcPtr
	th.StoreMove(&cell, th.NewRc(nil))
	round := func() {
		var head RcPtr
		for i := 0; i < 8; i++ {
			p := th.NewRc(nil)
			th.Deref(p).Next.Init(head)
			head = p
		}
		th.Release(head)
		s := reader.GetSnapshot(&cell)
		th.StoreMove(&cell, th.NewRc(nil)) // retires the snapshotted node
		th.Flush()                         // keeps it: the snapshot protects it
		reader.ReleaseSnapshot(&s)
		th.Flush()
	}
	for i := 0; i < 64; i++ {
		round()
	}
	if allocs := testing.AllocsPerRun(200, round); allocs != 0 {
		t.Fatalf("warm Flush round allocates %.2f times, want 0", allocs)
	}
	th.Store(&cell, NilRcPtr)
	drain(th)
	reader.Detach()
	th.Detach()
	if live := d.Live(); live != 0 {
		t.Fatalf("Live = %d after teardown", live)
	}
}
