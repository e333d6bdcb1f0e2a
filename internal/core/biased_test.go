package core

import (
	"runtime"
	"sync"
	"testing"

	"cdrc/internal/acqret"
	"cdrc/internal/chaos"
	"cdrc/internal/obs"
)

// TestRefCountMergedFromNonOwner: RefCount must report the merged
// (owner-local + shared) count no matter which thread asks, even while
// the owner's contribution lives only in its private word.
func TestRefCountMergedFromNonOwner(t *testing.T) {
	d := newNodeDomain(4)
	owner := d.Attach()
	other := d.Attach()
	defer other.Detach()

	p := owner.NewRc(func(n *node) { n.Val = 1 })
	q1 := owner.Clone(p)
	q2 := owner.Clone(p) // count 3, all owner-local

	if got := other.RefCount(p); got != 3 {
		t.Fatalf("non-owner RefCount of biased object = %d, want 3", got)
	}
	r := other.Clone(p) // count 4: local 3 + shared 1
	if got, got2 := owner.RefCount(p), other.RefCount(p); got != 4 || got2 != 4 {
		t.Fatalf("merged RefCount = %d (owner view), %d (other view), want 4", got, got2)
	}

	other.Release(r)
	drain(other)
	owner.Release(q1)
	owner.Release(q2)
	owner.Release(p)
	drain(owner)
	owner.Detach()
	drain(other)
	if live := d.Live(); live != 0 {
		t.Fatalf("Live = %d at quiescence", live)
	}
}

// TestCrashWhileBiased: workers crash (chaos.CrashSignal at the
// snapshot-acquired point, where they hold zero counted references)
// while objects in shared cells are still biased to their pid. The
// survivors' cross-pid releases drive shared counts negative and queue
// merges against the dead pid; adoption must fold and unbias everything
// before the pid is reissued, with no leak and no double free
// (DebugChecks panics if a still-biased slot is ever freed).
func TestCrashWhileBiased(t *testing.T) {
	const (
		workers = 6
		crashes = 3
	)
	chaos.Enable(chaos.Config{
		Seed:        41,
		CrashBudget: crashes,
		Faults: map[string]chaos.Fault{
			"core.snapshot.acquired": {Every: 40, Crash: true},
		},
	})
	defer chaos.Disable()

	d := crashDomain(workers+2, acqret.LockFreeAcquire)
	var cells [8]AtomicRcPtr

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			th := d.Attach()
			crashed := false
			defer func() {
				if r := recover(); r != nil {
					if _, ok := r.(chaos.CrashSignal); !ok {
						panic(r)
					}
					crashed = true
					th.Abandon()
				}
				if !crashed {
					th.ReleaseStraySnapshots()
					th.Detach()
				}
			}()
			for i := 0; i < 4000; i++ {
				c := &cells[(w+i)%len(cells)]
				switch i % 4 {
				case 0:
					// Publish an object biased to this pid: its only
					// unit sits in the cell while the bias stays ours.
					p := th.NewRc(func(n *node) { n.Val = int64(i) })
					th.Store(c, p)
					th.Release(p)
				case 1:
					// Cross-pid release of whatever somebody published.
					p := th.Load(c)
					th.Release(p)
				case 2:
					// Overwrite: cross-pid decrement of the old occupant.
					th.Store(c, NilRcPtr)
				default:
					s := th.GetSnapshot(c) // crash point lives here
					th.ReleaseSnapshot(&s)
				}
			}
		}(w)
	}
	wg.Wait()
	// The crash points only count hits on non-nil cells, so how many of
	// the budgeted crashes fire depends on the interleaving (a worker
	// running a long solo quantum under -race snapshots mostly cells it
	// never publishes). At least one must fire for the test to mean
	// anything; every one that did must be adopted below.
	fired := uint64(chaos.Crashes())
	if fired == 0 {
		t.Fatal("no crashes fired; the chaos schedule no longer reaches the snapshot point")
	}
	chaos.Disable()

	th := d.Attach()
	for i := range cells {
		th.Store(&cells[i], NilRcPtr)
	}
	drain(th)
	th.Detach()
	if d.Live() != 0 {
		t.Fatalf("Live = %d at quiescence after %d crashes while biased", d.Live(), fired)
	}
	if d.AbandonedCount() != 0 {
		t.Fatalf("%d processors still unadopted at quiescence", d.AbandonedCount())
	}
	if d.Adopted() != fired {
		t.Fatalf("Adopted = %d, want %d", d.Adopted(), fired)
	}
	st := d.PoolStats()
	if sum := int64(st.FreeGlobal) + int64(st.FreeLocal); sum != int64(st.Slots) {
		t.Fatalf("slot conservation violated: %d free != %d carved", sum, st.Slots)
	}
}

// TestBiasedCrossThreadHammer churns one owner's biased fast path
// against K non-owner threads cloning, releasing, upgrading and reading
// the same objects through the shared word. Run under -race this pins
// down the single-writer discipline of the owner word; the quiescence
// checks pin down the two-word merge protocol.
func TestBiasedCrossThreadHammer(t *testing.T) {
	const (
		nonOwners = 4
		objects   = 16
		iters     = 5000
	)
	d := newNodeDomain(nonOwners + 2)
	owner := d.Attach()

	var cells [objects]AtomicRcPtr
	for i := range cells {
		p := owner.NewRc(func(n *node) { n.Val = int64(i) })
		owner.Store(&cells[i], p)
		owner.Release(p)
	}

	var wg sync.WaitGroup
	for w := 0; w < nonOwners; w++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			th := d.Attach()
			defer th.Detach()
			rng := seed
			for i := 0; i < iters; i++ {
				rng = rng*6364136223846793005 + 1442695040888963407
				c := &cells[rng>>33%objects]
				switch rng >> 61 {
				case 0, 1, 2:
					p := th.Load(c)
					th.Release(p)
				case 3:
					p := th.Load(c)
					if !p.IsNil() {
						q := th.Clone(p)
						th.Release(q)
					}
					th.Release(p)
				case 4:
					s := th.GetSnapshot(c)
					if !s.IsNil() {
						_ = th.DerefSnapshot(s).Val
					}
					th.ReleaseSnapshot(&s)
				case 5:
					p := th.Load(c)
					if !p.IsNil() {
						if got := th.RefCount(p); got < 1 {
							panic("merged RefCount < 1 on a held reference")
						}
					}
					th.Release(p)
				default:
					p := th.NewRc(func(n *node) { n.Val = int64(i) })
					th.Store(c, p)
					th.Release(p)
				}
			}
		}(uint64(w + 1))
	}
	// The owner churns its biased fast path on objects it allocated.
	for i := 0; i < iters; i++ {
		c := &cells[i%objects]
		p := owner.Load(c)
		if !p.IsNil() {
			q := owner.Clone(p)
			owner.Release(q)
		}
		owner.Release(p)
	}
	wg.Wait()

	for i := range cells {
		owner.Store(&cells[i], NilRcPtr)
	}
	drain(owner)
	owner.Detach()
	if live := d.Live(); live != 0 {
		t.Fatalf("Live = %d at quiescence", live)
	}
}

// TestMergeRetireDebtBounded pins the eject accounting of merge retires
// (retireWord). An owner pid publishes objects biased to it into cells; a
// second pid loads, clones and releases them and overwrites the cells, so
// the final drops land cross-pid and queue merges whose folds retire on
// the owner's list without an inline eject. Nothing flushes. At every
// sample the deferred work — the unejected retires plus both pids'
// retired and ejected-but-unreturned lists (Deferred alone misses the
// latter) — must stay within a fixed multiple of the two pids' scan
// thresholds; unpaid merge retires grow it linearly with the op count.
//
// The shapes differ in who balances whom: "replace" has the second pid
// publish its own objects (merges flow both ways), "empty" leaves the
// owner retiring only when it overwrites its own objects, and
// "owner-rarely-retires" makes the owner a producer that fills empty
// cells and overwrites one only every 32nd turn, so its merge retires
// far outnumber its own retires — the per-pid imbalance a flat
// ejects-per-retire count cannot cover.
func TestMergeRetireDebtBounded(t *testing.T) {
	const (
		cells  = 64
		ops    = 200_000
		sample = 1000
		// Deferred counts the retired lists once more, hence 4x the sum
		// of the pids' thresholds (2K+64 each, K = 2 pids x 8 slots).
		bound = 4 * 2 * (2*2*acqret.SlotsPerProc + 64)
	)
	for _, shape := range []string{"replace", "empty", "owner-rarely-retires"} {
		t.Run(shape, func(t *testing.T) {
			d := newNodeDomain(2)
			owner, other := d.Attach(), d.Attach()
			var cs [cells]AtomicRcPtr
			rng := uint64(1)
			for i := 0; i < ops; i++ {
				rng = rng*6364136223846793005 + 1442695040888963407
				c := &cs[rng>>33%cells]
				switch {
				case i%2 == 0 && shape == "owner-rarely-retires" && i%64 != 0:
					if c.LoadRaw().IsNil() {
						owner.StoreMove(c, owner.NewRc(func(n *node) { n.Val = int64(i) }))
					}
				case i%2 == 0:
					p := owner.NewRc(func(n *node) { n.Val = int64(i) })
					owner.Store(c, p) // the cell's unit is owner-local
					owner.Release(p)
				default:
					p := other.Load(c)
					q := other.Clone(p)
					other.Release(q)
					other.Release(p)
					if shape == "replace" {
						other.StoreMove(c, other.NewRc(func(n *node) { n.Val = -1 }))
					} else {
						other.Store(c, NilRcPtr)
					}
				}
				if i%sample == 0 {
					pending := d.Deferred() + int64(d.ar.PendingLocal(owner.pid)+d.ar.PendingLocal(other.pid))
					if pending > bound {
						t.Fatalf("op %d: %d deferred + pending ejects, bound %d (live %d)", i, pending, bound, d.Live())
					}
				}
			}
			for i := range cs {
				owner.Store(&cs[i], NilRcPtr)
			}
			drain(owner)
			drain(other)
			other.Detach()
			owner.Detach()
			if live := d.Live(); live != 0 {
				t.Fatalf("Live = %d at quiescence", live)
			}
		})
	}
}

// TestObsBiasedSharedIdentity runs a deterministic workload and checks
// the counter identities stated in biased.go: every applied count touch
// is exactly one of biased/shared, every lifetime unbiases exactly once
// (unbias == arena.alloc), and merges never exceed unbiases.
func TestObsBiasedSharedIdentity(t *testing.T) {
	obs.Enable()
	defer obs.Disable()
	obs.Reset()

	const objects = 50
	d := newNodeDomain(4)
	owner := d.Attach()
	other := d.Attach()

	// Owner-only churn: per object 2 clones (+2 biased), 2 inline
	// releases (+2 biased), final release deferred then applied on the
	// owner (+1 biased, +1 unbias). No shared touches.
	for i := 0; i < objects; i++ {
		p := owner.NewRc(func(n *node) { n.Val = int64(i) })
		q1 := owner.Clone(p)
		q2 := owner.Clone(p)
		owner.Release(q1)
		owner.Release(q2)
		owner.Release(p)
	}
	drain(owner)

	r := obs.Snapshot()
	if got, want := r.Counter("core.rc.biased"), int64(5*objects); got != want {
		t.Fatalf("core.rc.biased = %d after owner-only churn, want %d", got, want)
	}
	if got := r.Counter("core.rc.shared"); got != 0 {
		t.Fatalf("core.rc.shared = %d after owner-only churn, want 0", got)
	}

	// Cross-pid traffic: the other thread clones and releases each
	// object once (+1 shared inc, +1 shared dec application).
	for i := 0; i < objects; i++ {
		p := owner.NewRc(func(n *node) { n.Val = int64(i) })
		q := other.Clone(p)
		other.Release(q)
		drain(other)
		owner.Release(p)
	}
	drain(owner)
	drain(other)

	other.Detach()
	owner.Detach()
	if live := d.Live(); live != 0 {
		t.Fatalf("Live = %d at quiescence", live)
	}

	r = obs.Snapshot()
	if got, want := r.Counter("core.rc.shared"), int64(2*objects); got != want {
		t.Fatalf("core.rc.shared = %d, want %d", got, want)
	}
	if got, want := r.Counter("core.rc.unbias"), r.Counter("arena.alloc"); got != want {
		t.Fatalf("core.rc.unbias = %d, arena.alloc = %d: every lifetime must unbias exactly once", got, want)
	}
	if m, u := r.Counter("core.rc.merge"), r.Counter("core.rc.unbias"); m > u {
		t.Fatalf("core.rc.merge = %d exceeds core.rc.unbias = %d", m, u)
	}
}

// TestEagerOverwriteReleaseVsLoadWindow pins the cell-overwrite release
// discipline: units released by overwriting an atomic cell must always go
// through retire/eject, never through the inline owner fast path, even
// when the owner has further local units. A Fig. 3 loader that has
// announced and validated a handle but not yet incremented is protected
// only by the retire scan honoring its announcement; if the cell's unit
// is instead consumed by a plain owner-word store, a subsequent eager
// release of the owner's remaining unit reaches the zero decision without
// ever consulting announcements and destroys the object under the loader.
//
// The chaos schedule makes the race deterministic enough to catch on one
// CPU: loaders stall inside the acquire→increment window while the owner
// stalls between its zero decision and the destruct, so a protocol that
// reaches zero while a loader is mid-window reads a zeroed payload or a
// freed slot (DebugChecks) instead of racing past the check.
func TestEagerOverwriteReleaseVsLoadWindow(t *testing.T) {
	chaos.Enable(chaos.Config{
		Seed: 11,
		Faults: map[string]chaos.Fault{
			"core.load.between-acquire-and-increment": {Every: 1, Yields: 2},
			"core.decrement-before-destruct":          {Every: 1, Yields: 8},
		},
	})
	defer chaos.Disable()

	d := NewDomain[uint64](Config[uint64]{
		MaxProcs:      4,
		EagerDestruct: true,
		AcquireMode:   acqret.LockFreeAcquire,
		DebugChecks:   true,
	})
	var cell AtomicRcPtr

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			th := d.Attach()
			defer th.Detach()
			for {
				select {
				case <-stop:
					return
				default:
				}
				p := th.Load(&cell)
				if p.IsNil() {
					// Don't burn a whole preemption quantum spinning on an
					// empty cell; hand the CPU back to the owner.
					runtime.Gosched()
					continue
				}
				// A counted reference pins the payload; destruction zeroes
				// it first, so observing the zero means the count hit zero
				// while this loader held a unit.
				if got := *th.Deref(p); got == 0 {
					panic("core: counted load observed a destroyed payload")
				}
				th.Release(p)
			}
		}()
	}

	owner := d.Attach()
	for i := 0; i < 2500; i++ {
		p := owner.NewRc(func(v *uint64) { *v = uint64(i)*2 + 1 })
		owner.Store(&cell, p) // cell holds its own unit (local=2)
		// Let a loader validate the published handle and park in its
		// acquire→increment window before the owner takes it back down.
		runtime.Gosched()
		owner.StoreMove(&cell, NilRcPtr) // overwrite: must retire, not fold
		owner.Release(p)                 // eager: owner's last unit
	}
	close(stop)
	wg.Wait()
	owner.Flush()
	owner.Detach()
	if live := d.Live(); live != 0 {
		t.Fatalf("Live = %d at quiescence", live)
	}
}

// TestRetireToReclaimOneSample checks the obs retire-to-reclaim latency
// path through the slot's era word (arena Pool.Era): one object retired
// and destroyed adds exactly one sample to core.retire-to-reclaim.ns,
// and the slot it frees comes back from the arena with a zero era word,
// so a stale stamp can never time a later object.
func TestRetireToReclaimOneSample(t *testing.T) {
	obs.Enable()
	defer obs.Disable()
	obs.Reset()

	d := newNodeDomain(2)
	th := d.Attach()
	defer th.Detach()

	p := th.NewRc(func(n *node) { n.Val = 1 })
	h := p.Handle()
	if e := d.pool.Era(h).Load(); e != 0 {
		t.Fatalf("fresh slot era = %#x, want 0", e)
	}
	th.Release(p) // the last unit: retired, destroyed when its eject lands
	drain(th)
	if live := d.Live(); live != 0 {
		t.Fatalf("Live = %d after the last release drained", live)
	}
	r := obs.Snapshot()
	if got := r.Histograms["core.retire-to-reclaim.ns"].Count; got != 1 {
		t.Fatalf("core.retire-to-reclaim.ns has %d samples, want 1", got)
	}

	q := th.NewRc(nil)
	if q.Handle() != h {
		t.Fatalf("slot %#x not recycled (got %#x)", uint64(h), uint64(q.Handle()))
	}
	if e := d.pool.Era(q.Handle()).Load(); e != 0 {
		t.Fatalf("recycled slot era = %#x, want 0", e)
	}
	th.Release(q)
	drain(th)
	if got := obs.Snapshot().Histograms["core.retire-to-reclaim.ns"].Count; got != 2 {
		t.Fatalf("core.retire-to-reclaim.ns has %d samples after a second object, want 2", got)
	}
}
