// Package core implements the paper's primary contribution: concurrent
// deferred reference counting with constant-time overhead (§5).
//
// A Domain manages reference-counted objects of one type, allocated from a
// simulated manual arena and reclaimed automatically when their count
// reaches zero. The classic race - a decrement reaching zero while a
// concurrent load is incrementing - is resolved by protecting the
// *reference count* with acquire-retire: discarding a reference retires the
// handle (a deferred decrement, Fig. 3), and the decrement is applied only
// once it is ejected, i.e. once no in-flight increment can still be
// protected by an announcement. Short-lived references additionally use
// snapshots (deferred increments, Fig. 4): a traversal can hold up to seven
// protected references per processor without touching any counter at all.
//
// All per-processor operations go through a Thread, obtained from
// Domain.Attach. Threads are not safe for concurrent use; each worker
// goroutine attaches its own.
package core

import (
	"fmt"

	"cdrc/internal/acqret"
	"cdrc/internal/arena"
	"cdrc/internal/chaos"
	"cdrc/internal/obs"
	"cdrc/internal/pid"
)

// acquireSlot is the announcement slot used by in-flight load/store/CAS
// operations; slots 1..acqret.MaxSnapshots hold snapshots.
const acquireSlot = 0

// Fault-injection points (inert unless chaos.Enable has been called; see
// the "Fault model" section of DESIGN.md for which are crash-safe).
var (
	// Between a load's protecting announcement and its increment: the
	// widest version of the §3.1 read-reclaim race window. Stall-only — a
	// crash here would leak the counted reference the load is minting.
	chaosLoadWindow = chaos.New("core.load.between-acquire-and-increment")
	// A count has just reached zero and the object is about to be
	// destructed. Stall-only: stretches the window in which snapshots and
	// announcements must keep protecting the doomed object.
	chaosDecrementZero = chaos.New("core.decrement-before-destruct")
	// A snapshot has been acquired (announcement published, no count
	// taken). Crash-safe: a snapshot is uncounted, so a thread dying here
	// loses nothing that adoption cannot recover.
	chaosSnapshotAcquired = chaos.New("core.snapshot.acquired")
)

// Observability metrics (inert single atomic loads unless obs.Enable has
// armed them). Every retire-based decrement counts once as deferred and
// once as applied when its eject lands, so core.decr.deferred ==
// core.decr.applied at quiescence; eager decrements touch neither. The
// latency histogram measures last-retire to destruct: core has no other
// use for a live slot's era word (arena Pool.Era; only the era-based SMR
// schemes stamp eras, on their own pools), so while obs is enabled
// retireAndEject stamps it with a monotonic nanosecond timestamp that
// deleteObj reads back.
var (
	obsIncrDeferred = obs.NewCounter("core.incr.deferred")
	obsDecrDeferred = obs.NewCounter("core.decr.deferred")
	obsDecrApplied  = obs.NewCounter("core.decr.applied")
	obsTakeover     = obs.NewCounter("core.snapshot.takeover")
	obsReclaimLat   = obs.NewHistogram("core.retire-to-reclaim.ns")

	// Value-slab words routed through the same retire/eject pipeline
	// (DESIGN.md §13): every RetireValue counts once as retired and once
	// as freed when its eject lands, so core.val.retired ==
	// core.val.freed at quiescence. Eager frees (unpublished refs,
	// finalizers) touch neither.
	obsValRetired = obs.NewCounter("core.val.retired")
	obsValFreed   = obs.NewCounter("core.val.freed")
)

// ValuePool is the value-slab plane a Domain may be wired to
// (internal/vals.Pool): ejected words carrying arena.ValueRefTag are
// freed here instead of being applied as count decrements, and abandoned
// pids have their value-plane state adopted before reissue.
type ValuePool interface {
	// Free returns a ref's slab(s) to procID's magazines.
	Free(procID int, ref uint64)

	// Adopt reclaims an abandoned pid's in-flight slab and drains its
	// per-class magazines (called from the acqret adopt hook).
	Adopt(procID int)

	// DrainLocal pushes procID's per-class magazines to the global
	// stacks (Thread.DrainArena).
	DrainLocal(procID int)
}

// RcPtr is a counted reference to a domain-managed object, the analogue of
// the library's rc_ptr (itself modelled on shared_ptr). It is a plain
// single word - exactly the arena handle, possibly carrying low-order mark
// bits - so it can be compared with ==, embedded in objects, and passed to
// CAS. Ownership discipline mirrors C++: holding an RcPtr accounts for
// exactly one unit of the object's reference count, Clone adds a unit, and
// Release gives one up. The zero RcPtr is nil.
type RcPtr struct {
	h arena.Handle
}

// NilRcPtr is the nil reference.
var NilRcPtr = RcPtr{}

// IsNil reports whether p is nil (marks ignored: a marked nil is nil).
func (p RcPtr) IsNil() bool { return p.h.IsNil() }

// Handle exposes the underlying arena handle (diagnostics and adapters).
func (p RcPtr) Handle() arena.Handle { return p.h }

// HasMark reports whether mark bit i (0..2) is set on the reference word.
func (p RcPtr) HasMark(i uint) bool { return p.h.HasMark(i) }

// WithMark returns p with mark bit i set. Marks are properties of the
// stored word, not of the object: marking does not affect the count.
func (p RcPtr) WithMark(i uint) RcPtr { return RcPtr{p.h.SetMark(i)} }

// WithMarks returns p with its mark bits replaced.
func (p RcPtr) WithMarks(m uint64) RcPtr { return RcPtr{p.h.WithMarks(m)} }

// Marks returns the mark bits of the reference word.
func (p RcPtr) Marks() uint64 { return p.h.Marks() }

// Unmarked returns p with all marks cleared.
func (p RcPtr) Unmarked() RcPtr { return RcPtr{p.h.Unmarked()} }

// Snapshot is a protected, uncounted reference - the analogue of
// snapshot_ptr. It pins the object by announcement rather than by
// incrementing its counter, so acquiring and releasing one is
// contention-free. A Snapshot is local to the Thread that created it and
// must be released by that thread (or converted with RcFromSnapshot). The
// zero Snapshot is nil.
type Snapshot struct {
	h    arena.Handle // raw word as acquired (marks preserved)
	slot int          // announcement slot index (1..MaxSnapshots), 0 if nil or upgraded
}

// IsNil reports whether s refers to no object.
func (s Snapshot) IsNil() bool { return s.h.IsNil() }

// Handle exposes the underlying arena handle.
func (s Snapshot) Handle() arena.Handle { return s.h }

// HasMark reports whether mark bit i is set on the snapshot's word.
func (s Snapshot) HasMark(i uint) bool { return s.h.HasMark(i) }

// Marks returns the mark bits of the snapshot's word.
func (s Snapshot) Marks() uint64 { return s.h.Marks() }

// Ptr reinterprets the snapshot's word as an RcPtr for use as a CAS
// expected value or for equality comparisons. The result carries no
// ownership: it must not be Released, Cloned, or stored. To mint an owned
// reference from a snapshot use Thread.RcFromSnapshot.
func (s Snapshot) Ptr() RcPtr { return RcPtr{s.h} }

// Config parameterizes a Domain. The zero value is a working default:
// snapshot-compatible deferred destructs, lock-free acquire, and
// pid.DefaultMaxProcs processors.
type Config[T any] struct {
	// MaxProcs bounds the number of simultaneously attached Threads.
	MaxProcs int

	// Finalizer, if non-nil, runs exactly once when an object's count
	// reaches zero and it is about to be freed. It must release any child
	// RcPtrs the object owns (the analogue of a C++ destructor releasing
	// members). It runs on the thread that applied the final decrement.
	Finalizer func(*Thread[T], *T)

	// EagerDestruct applies Release decrements immediately (Fig. 3
	// destruct) instead of deferring them through retire (Fig. 4). Eager
	// destructs are only safe if the domain never hands out snapshots;
	// GetSnapshot panics when this is set. Used by the non-snapshot "DRC"
	// configuration in the paper's benchmarks.
	EagerDestruct bool

	// AcquireMode selects the lock-free announce/validate loop (default)
	// or the wait-free swcopy-based acquire.
	AcquireMode acqret.Mode

	// DebugChecks enables arena use-after-free checking on every Deref.
	DebugChecks bool

	// ValueSlabs, when non-nil, wires the domain to a value-slab pool:
	// tagged ref words (arena.ValueRefTag) may then ride the retire
	// pipeline (RetireValue) and announcement slots (AnnounceValue), and
	// the adopt hook reclaims a dead pid's value plane before reissue.
	ValueSlabs ValuePool
}

// Domain manages a universe of reference-counted objects of type T.
type Domain[T any] struct {
	pool  *arena.Pool[T]
	ar    *acqret.Domain
	cfg   Config[T]
	procs int
}

// NewDomain creates a Domain with the given configuration.
func NewDomain[T any](cfg Config[T]) *Domain[T] {
	procs := cfg.MaxProcs
	if procs <= 0 {
		procs = pid.DefaultMaxProcs
	}
	d := &Domain[T]{
		cfg:   cfg,
		procs: procs,
	}
	d.pool = arena.NewPool[T](procs)
	d.ar = acqret.New(procs,
		acqret.WithMode(cfg.AcquireMode),
		acqret.WithNormalizer(func(w uint64) uint64 {
			return uint64(arena.Handle(w).Unmarked())
		}),
		// When a survivor adopts an abandoned processor, push the dead
		// processor's private arena magazines (active and spare) onto the
		// global block stack before the id can be reissued (the
		// one-id-space invariant: a reissued id must start with empty
		// magazines), and reclaim its value plane the same way.
		acqret.WithAdoptHook(func(procID int) {
			d.pool.DrainLocal(procID)
			if vp := d.cfg.ValueSlabs; vp != nil {
				vp.Adopt(procID)
			}
		}))
	d.pool.DebugChecks = cfg.DebugChecks
	return d
}

// Attach registers the calling worker and returns its Thread.
func (d *Domain[T]) Attach() *Thread[T] {
	return &Thread[T]{d: d, pid: d.ar.Register()}
}

// Live returns the number of currently allocated objects (the "allocated
// objects" series of Figs. 6d and 6h).
func (d *Domain[T]) Live() int64 { return d.pool.Live() }

// Deferred returns the number of deferred decrements not yet applied (the
// O(P²) bound of Theorem 1).
func (d *Domain[T]) Deferred() int64 { return d.ar.Deferred() }

// PoolStats exposes the arena counters.
func (d *Domain[T]) PoolStats() arena.Stats { return d.pool.Stats() }

// SetCapacity caps the domain's arena at the given slot count (0 removes
// the cap; see arena.Pool.SetCapacity). Beyond it TryNewRc/TryAllocRc
// return an error wrapping arena.ErrExhausted - the backpressure signal
// service layers map to load shedding.
func (d *Domain[T]) SetCapacity(slots uint64) { d.pool.SetCapacity(slots) }

// EnableDebugChecks turns on arena use-after-free checking for every
// dereference. Set before the domain is shared; intended for tests.
func (d *Domain[T]) EnableDebugChecks() { d.pool.DebugChecks = true }

// SetValueSlabs wires vp into the domain after construction (for owners
// that decide on byte values once the domain exists). Must be called
// before the domain is shared: the adopt hook and every thread read the
// binding unsynchronized.
func (d *Domain[T]) SetValueSlabs(vp ValuePool) { d.cfg.ValueSlabs = vp }

// Thread is a processor-bound operation context. Obtain with Attach; call
// Detach when the worker is done. Not safe for concurrent use.
type Thread[T any] struct {
	// Pads keep the single-writer fields below off lines shared with
	// neighbouring heap objects: a Thread is written on every snapshot,
	// so false sharing there shows up per operation.
	_ [64]byte

	d        *Domain[T]
	pid      int
	snapNext int // round-robin victim for snapshot-slot takeover

	// snapHeld mirrors this pid's snapshot slots (index 0, the acquire
	// slot, is unused): the word a live snapshot announces there, or 0
	// when the slot is free. Only the owner writes its snapshot slots, so
	// the mirror is exact and the snapshot paths read no shared word.
	snapHeld [acqret.SlotsPerProc]arena.Handle

	_ [64]byte
}

// Domain returns the thread's domain.
func (t *Thread[T]) Domain() *Domain[T] { return t.d }

// ProcID returns the thread's processor id (diagnostics).
func (t *Thread[T]) ProcID() int { return t.pid }

// Detach flushes what can be flushed and releases the processor id. Any
// still-deferred decrements are adopted by other threads' scans (or by
// Domain drains). Snapshots must be released before detaching.
func (t *Thread[T]) Detach() {
	for _, h := range t.snapHeld {
		if h != 0 {
			panic("core: Detach with live snapshots")
		}
	}
	t.drainLocal()
	t.d.ar.Unregister(t.pid)
}

// Abandon reports that this thread's worker died (or simulated dying)
// mid-operation and will never call Detach. The processor id, its
// announcement slots, its retired lists, and its arena free list all stay
// exactly as the crash left them until a surviving thread's scan adopts
// them; only then is the id reissued. Unlike Detach, Abandon tolerates
// live snapshots (their announcements are cleared at adoption) and is safe
// to call from a deferred recover. The Thread must not be used afterwards.
//
// What adoption cannot recover is ownership that existed only in the dead
// goroutine's locals: a counted RcPtr held across the crash point is a
// permanent leak. Crash-style fault injection is therefore restricted to
// points where the dying thread holds no counted references.
func (t *Thread[T]) Abandon() {
	t.d.ar.Abandon(t.pid)
}

// AbandonedCount returns the number of processors currently abandoned and
// not yet adopted (diagnostics).
func (d *Domain[T]) AbandonedCount() int {
	return int(d.ar.AbandonedCount())
}

// Adopted returns the number of abandoned processors that survivors have
// adopted so far (diagnostics).
func (d *Domain[T]) Adopted() uint64 { return d.ar.Adopted() }

// ReleaseStraySnapshots clears every announcement slot this thread still
// holds, including the acquire slot. It is the recover-path counterpart of
// releasing each Snapshot individually: after a panic unwinds an operation
// the Snapshot values are lost, but the announcements they published are
// still in the slots and would otherwise make Detach panic. Snapshots
// whose slot had been taken over (their deferred increment already
// applied) cannot be found this way; the increment they carry is lost.
// That case is rare (it needs 8+ simultaneous snapshots) and the leak is
// bounded by one count per takeover, so recover paths accept it.
func (t *Thread[T]) ReleaseStraySnapshots() {
	for s := 0; s <= acqret.MaxSnapshots; s++ {
		if t.d.ar.ReadSlot(t.pid, s) != 0 {
			t.d.ar.Release(t.pid, s)
		}
	}
	t.snapHeld = [acqret.SlotsPerProc]arena.Handle{}
}

// drainLocal synchronously ejects and applies everything currently
// safe. An applied decrement can destroy an object whose finalizer
// retires more, so the loop runs to a fixed point.
func (t *Thread[T]) drainLocal() {
	for {
		out := t.d.ar.EjectAllLocal(t.pid)
		if len(out) == 0 {
			return
		}
		for _, w := range out {
			t.applyEjected(w)
		}
	}
}

// applyEjected applies one word the acqret pipeline has declared safe:
// a handle word is a deferred decrement; a value-slab ref word
// (arena.ValueRefTag) frees its slab — no reader that announced it can
// still be copying out (DESIGN.md §13).
func (t *Thread[T]) applyEjected(w uint64) {
	if w&arena.ValueRefTag != 0 {
		obsValFreed.Inc(t.pid)
		t.d.cfg.ValueSlabs.Free(t.pid, w)
		return
	}
	obsDecrApplied.Inc(t.pid)
	t.decrement(arena.Handle(w))
}

// Flush applies all currently-safe deferred decrements on this thread,
// including orphans. Useful in tests and at teardown barriers.
func (t *Thread[T]) Flush() { t.drainLocal() }

// DrainArena pushes this processor's private free-slot magazines onto the
// arena's global block stack, making them allocatable from any processor.
// Only the owning thread may call it. Threads that free far more than
// they allocate (a cache shard's expiry sweeper) call it periodically so
// a capacity-capped pool's slots do not strand in magazines no allocation
// ever reaches.
func (t *Thread[T]) DrainArena() {
	t.d.pool.DrainLocal(t.pid)
	if vp := t.d.cfg.ValueSlabs; vp != nil {
		vp.DrainLocal(t.pid)
	}
}

// --- internal count plumbing -------------------------------------------

// increment adds one count unit. Safe blindly: every increment is
// protected by a held unit or an announcement, so the object cannot die
// underneath it.
func (t *Thread[T]) increment(h arena.Handle) {
	t.d.pool.Hdr(h).RefCount.Add(1)
}

// decrement applies one safe-to-apply count unit removal (the handle was
// ejected, or the domain destructs eagerly). The count is exact, so the
// decrement that reaches zero is the single destruction decision.
func (t *Thread[T]) decrement(h arena.Handle) {
	h = h.Unmarked()
	if c := t.d.pool.Hdr(h).RefCount.Add(-1); c == 0 {
		chaosDecrementZero.Fire()
		t.deleteObj(h)
	} else if c < 0 {
		panic(fmt.Sprintf("core: reference count of %#x went negative (%d)", uint64(h), c))
	}
}

// deleteObj destroys the object: runs the finalizer (which releases child
// references, possibly recursively), clears the payload, and releases the
// strong side's implicit weak unit - freeing the slot unless outstanding
// WeakPtrs still pin it (see weak.go).
func (t *Thread[T]) deleteObj(h arena.Handle) {
	ptr := t.d.pool.Get(h)
	if fin := t.d.cfg.Finalizer; fin != nil {
		fin(t, ptr)
	}
	var zero T
	*ptr = zero
	if ts := t.d.pool.Era(h).Load(); ts != 0 {
		obsReclaimLat.Observe(obs.NowNanos() - ts)
	}
	if c := t.d.pool.Hdr(h).WeakCount.Add(-1); c == 0 {
		t.d.pool.Free(t.pid, h)
	} else if c < 0 {
		panic("core: weak count went negative at destruction")
	}
}

// retireAndEject defers one decrement of h (Fig. 3's retire_and_eject)
// through retireWord, which pays its ejects.
func (t *Thread[T]) retireAndEject(h arena.Handle) {
	h = h.Unmarked()
	obsDecrDeferred.Inc(t.pid)
	if obs.Enabled() {
		t.d.pool.Era(h).Store(obs.NowNanos())
	}
	t.retireWord(uint64(h))
}

// retireWord is the one retire path for handles and value-slab refs: it
// retires w and runs two eject-and-apply steps (DESIGN.md §12, eject
// accounting). An Eject returns at most one handle, so one per retire is
// the least that keeps a pid's lists from growing; the second drains
// orphans adopted into them and catches up after ejects that found
// nothing safe yet. Theorem 1's O(K·P) bound holds with a constant of 2.
func (t *Thread[T]) retireWord(w uint64) {
	t.d.ar.Retire(t.pid, w)
	for n := 0; n < 2; n++ {
		if e, ok := t.d.ar.Eject(t.pid); ok {
			t.applyEjected(e)
		}
	}
}

// --- value-slab words (DESIGN.md §13) -------------------------------------

// AnnounceValue publishes announcement protection for a value ref word
// this thread is about to copy out of a mutable Val cell. The caller
// must re-validate that the cell still holds w after announcing (the
// lock-free acquire loop) and call ReleaseValue when the copy is done.
// Uses the acquire slot: no other cell operation may run in between.
func (t *Thread[T]) AnnounceValue(w uint64) {
	t.d.ar.Announce(t.pid, acquireSlot, w)
}

// ReleaseValue clears the announcement AnnounceValue published.
func (t *Thread[T]) ReleaseValue() {
	t.d.ar.Release(t.pid, acquireSlot)
}

// RetireValue defers the free of a value ref displaced from a published
// cell. Like a cell overwrite's unit, a displaced ref must go through
// the pipeline: a reader
// that announced the word and validated the cell may still be copying
// slab bytes, and the eject scan honoring its announcement is the only
// thing keeping the slab from recycling under it. The retire and its
// ejects go through retireWord. Ref 0 is a no-op.
func (t *Thread[T]) RetireValue(ref uint64) {
	if ref == 0 {
		return
	}
	obsValRetired.Inc(t.pid)
	t.retireWord(ref)
}

// FreeValue immediately returns a value ref's slab to this thread's
// magazines. Legal only when no announcement can protect the ref: an
// unpublished ref still owned by its allocator, or a ref read out of a
// record being finalized (count zero implies every reader's protecting
// node snapshot is gone). Ref 0 is a no-op.
func (t *Thread[T]) FreeValue(ref uint64) {
	if ref == 0 {
		return
	}
	t.d.cfg.ValueSlabs.Free(t.pid, ref)
}

// --- allocation ----------------------------------------------------------

// AllocRc allocates a fresh object with reference count 1 and returns the
// owning reference together with a pointer for initialization. The object
// must be fully initialized before its reference is shared. The weak
// count starts at 1: the unit all strong references collectively hold.
func (t *Thread[T]) AllocRc() (RcPtr, *T) {
	h := t.d.pool.Alloc(t.pid)
	hdr := t.d.pool.Hdr(h)
	hdr.RefCount.Store(1)
	hdr.WeakCount.Store(1)
	return RcPtr{h}, t.d.pool.Get(h)
}

// NewRc allocates a fresh object initialized by init (may be nil) and
// returns the owning reference.
func (t *Thread[T]) NewRc(init func(*T)) RcPtr {
	p, v := t.AllocRc()
	if init != nil {
		init(v)
	}
	return p
}

// TryAllocRc is AllocRc with backpressure: when the arena is at its
// configured capacity (or chaos forces an allocation failure) it returns
// an error wrapping arena.ErrExhausted instead of panicking, and the
// caller backs off — typically by flushing deferred decrements to recycle
// slots and retrying, or by failing its own operation upward.
func (t *Thread[T]) TryAllocRc() (RcPtr, *T, error) {
	h, err := t.d.pool.TryAlloc(t.pid)
	if err != nil {
		return NilRcPtr, nil, err
	}
	hdr := t.d.pool.Hdr(h)
	hdr.RefCount.Store(1)
	hdr.WeakCount.Store(1)
	return RcPtr{h}, t.d.pool.Get(h), nil
}

// TryNewRc is NewRc with backpressure (see TryAllocRc).
func (t *Thread[T]) TryNewRc(init func(*T)) (RcPtr, error) {
	p, v, err := t.TryAllocRc()
	if err != nil {
		return NilRcPtr, err
	}
	if init != nil {
		init(v)
	}
	return p, nil
}

// --- reference manipulation ----------------------------------------------

// Deref returns a pointer to the object p refers to. The caller must hold
// p (counted) or a protecting snapshot for the duration of use.
func (t *Thread[T]) Deref(p RcPtr) *T {
	return t.d.pool.Get(p.h)
}

// DerefSnapshot returns a pointer to the object s refers to, valid until
// the snapshot is released.
func (t *Thread[T]) DerefSnapshot(s Snapshot) *T {
	return t.d.pool.Get(s.h)
}

// RefCount returns the current reference count of p's object
// (diagnostics; inherently racy).
func (t *Thread[T]) RefCount(p RcPtr) int64 {
	return t.d.pool.Hdr(p.h).RefCount.Load()
}

// Clone returns a new counted reference to p's object. Safe because the
// caller's own reference keeps the count at least one.
func (t *Thread[T]) Clone(p RcPtr) RcPtr {
	if p.IsNil() {
		return NilRcPtr
	}
	t.increment(p.h.Unmarked())
	return p
}

// Release gives up the reference p (the destruct operation). In the
// default configuration the decrement is deferred via retire so that live
// snapshots of the object stay valid (Fig. 4); with EagerDestruct it is
// applied immediately (Fig. 3).
func (t *Thread[T]) Release(p RcPtr) {
	if p.IsNil() {
		return
	}
	if t.d.cfg.EagerDestruct {
		t.decrement(p.h)
		return
	}
	t.retireAndEject(p.h)
}

// --- atomic cells ---------------------------------------------------------

// Load atomically reads the reference in a and returns a counted copy
// (Fig. 3 load): the handle is acquired, protecting its count, the count
// is incremented, and the protection released. O(1) steps.
func (t *Thread[T]) Load(a *AtomicRcPtr) RcPtr {
	w := t.d.ar.Acquire(t.pid, acquireSlot, &a.w)
	h := arena.Handle(w)
	if !h.IsNil() {
		chaosLoadWindow.Fire()
		t.increment(h.Unmarked())
	}
	t.d.ar.Release(t.pid, acquireSlot)
	return RcPtr{h}
}

// Store atomically replaces the reference in a with a counted copy of v
// (Fig. 3 store, copy semantics). The overwritten reference's decrement is
// deferred via retire_and_eject, even under EagerDestruct: a concurrent
// Fig. 3 loader that announced and validated the old handle but has not
// yet incremented is protected only by the retire scan honoring its
// announcement (TestEagerOverwriteReleaseVsLoadWindow). The same holds
// for every cell overwrite below. O(1) expected steps.
func (t *Thread[T]) Store(a *AtomicRcPtr, v RcPtr) {
	if !v.IsNil() {
		// The caller's reference keeps the count positive, so this
		// increment needs no protection (§5.1).
		t.increment(v.h.Unmarked())
	}
	old := arena.Handle(a.w.Swap(uint64(v.h)))
	if !old.IsNil() {
		t.retireAndEject(old)
	}
}

// StoreMove atomically replaces the reference in a with v, consuming the
// caller's ownership of v (move semantics, §5.1): no increment is needed
// because the caller's count unit transfers to the cell.
func (t *Thread[T]) StoreMove(a *AtomicRcPtr, v RcPtr) {
	old := arena.Handle(a.w.Swap(uint64(v.h)))
	if !old.IsNil() {
		t.retireAndEject(old)
	}
}

// StoreSnapshot atomically replaces the reference in a with a counted copy
// of the object s protects. The snapshot remains held by the caller. It is
// Store on the snapshot's word: the increment is safe because the
// snapshot's announcement blocks the deferred decrements that could
// otherwise race the count to zero.
func (t *Thread[T]) StoreSnapshot(a *AtomicRcPtr, s Snapshot) { t.Store(a, s.Ptr()) }

// CompareAndSwap atomically replaces the reference in a with a counted
// copy of desired if it currently equals expected (including marks). On
// success the overwritten expected reference is retired. The caller's own
// references to expected and desired are untouched (copy semantics).
// Fig. 3 cas: desired is announced before the CAS so that a competing
// store cannot race desired's count to zero between our CAS succeeding
// and our increment landing.
func (t *Thread[T]) CompareAndSwap(a *AtomicRcPtr, expected, desired RcPtr) bool {
	t.d.ar.Announce(t.pid, acquireSlot, uint64(desired.h))
	if a.w.CompareAndSwap(uint64(expected.h), uint64(desired.h)) {
		if !desired.IsNil() {
			t.increment(desired.h.Unmarked())
		}
		t.d.ar.Release(t.pid, acquireSlot)
		if !expected.IsNil() {
			t.retireAndEject(expected.h)
		}
		return true
	}
	t.d.ar.Release(t.pid, acquireSlot)
	return false
}

// CompareAndSwapMove is CompareAndSwap with move semantics on desired: on
// success the caller's ownership unit transfers to the cell (no
// increment). On failure the caller still owns desired.
func (t *Thread[T]) CompareAndSwapMove(a *AtomicRcPtr, expected, desired RcPtr) bool {
	// Announcing desired is unnecessary here: on success the cell's
	// reference is the caller's transferred unit, which already exists.
	if a.w.CompareAndSwap(uint64(expected.h), uint64(desired.h)) {
		if !expected.IsNil() {
			t.retireAndEject(expected.h)
		}
		return true
	}
	return false
}

// CompareExchange is the compare_exchange_weak analogue: on failure it
// releases *expected and replaces it with a counted copy of the current
// reference, returning false. On success it behaves like CompareAndSwap.
func (t *Thread[T]) CompareExchange(a *AtomicRcPtr, expected *RcPtr, desired RcPtr) bool {
	if t.CompareAndSwap(a, *expected, desired) {
		return true
	}
	old := *expected
	*expected = t.Load(a)
	t.Release(old)
	return false
}

// CompareAndSetMark atomically sets mark bit i on the reference word in a
// if it currently equals expected. No counts change: the cell refers to
// the same object before and after.
func (t *Thread[T]) CompareAndSetMark(a *AtomicRcPtr, expected RcPtr, i uint) bool {
	return a.w.CompareAndSwap(uint64(expected.h), uint64(expected.h.SetMark(i)))
}

// --- snapshots (deferred increments, Fig. 4) ------------------------------

// GetSnapshot atomically reads the reference in a and returns a protected,
// uncounted snapshot of it. Cheap (one announcement write, no shared
// counter traffic); ideal for traversals. Panics if the domain was
// configured with EagerDestruct, which is incompatible with snapshots.
func (t *Thread[T]) GetSnapshot(a *AtomicRcPtr) Snapshot {
	if t.d.cfg.EagerDestruct {
		panic("core: GetSnapshot on an EagerDestruct domain")
	}
	slot := t.getSlot()
	w := t.d.ar.Acquire(t.pid, slot, &a.w)
	h := arena.Handle(w)
	if h.IsNil() {
		// Nothing to protect; hand the slot back immediately. The word is
		// preserved so a marked nil keeps its marks.
		t.d.ar.Release(t.pid, slot)
		return Snapshot{h: h}
	}
	t.snapHeld[slot] = h
	chaosSnapshotAcquired.Fire()
	obsIncrDeferred.Inc(t.pid)
	return Snapshot{h: h, slot: slot}
}

// getSlot returns a free snapshot slot, taking one over round-robin when
// all are occupied: the victim snapshot's deferred increment is applied
// (its object's count is bumped) so that it remains valid after losing its
// announcement (Fig. 4 get_slot).
func (t *Thread[T]) getSlot() int {
	for s := 1; s <= acqret.MaxSnapshots; s++ {
		if t.snapHeld[s] == 0 {
			return s
		}
	}
	slot := 1 + t.snapNext
	t.snapNext = (t.snapNext + 1) % acqret.MaxSnapshots
	obsTakeover.Inc(t.pid)
	t.increment(t.snapHeld[slot].Unmarked())
	// The victim no longer owns the slot: its release now pays the
	// decrement. The caller's Acquire overwrites the announcement.
	t.snapHeld[slot] = 0
	return slot
}

// ReleaseSnapshot ends a snapshot. If the snapshot still owns its
// announcement slot the release is free; if the slot was taken over, the
// deferred increment was applied at takeover, so a decrement is due
// (Fig. 4 release_snapshot). The snapshot is reset to nil.
// Ownership is read from the mirror, so the only shared access is the
// store that clears the announcement.
func (t *Thread[T]) ReleaseSnapshot(s *Snapshot) {
	if s.h.IsNil() {
		return
	}
	if s.slot != 0 && t.snapHeld[s.slot] == s.h {
		t.snapHeld[s.slot] = 0
		t.d.ar.Release(t.pid, s.slot)
	} else {
		t.decrement(s.h)
	}
	*s = Snapshot{}
}

// RcFromSnapshot mints a counted reference from a snapshot (the
// "copying a snapshot_ptr" operation the paper credits Correia et al. for
// flagging as non-trivial). Safe while the snapshot is held: its
// announcement blocks the decrements that could race the count to zero.
// The snapshot remains held.
func (t *Thread[T]) RcFromSnapshot(s Snapshot) RcPtr {
	if s.IsNil() {
		return NilRcPtr
	}
	t.increment(s.h.Unmarked())
	return RcPtr{s.h}
}

// CompareAndSwapFromSnapshots performs CompareAndSwap where expected
// and/or desired are snapshot-protected words (the atomic_rc_ptr interface
// allows mixing rc_ptr and snapshot_ptr arguments). Copy semantics: on
// success the cell gains its own counted reference to desired's object.
// It is CompareAndSwap on the snapshots' words.
func (t *Thread[T]) CompareAndSwapFromSnapshots(a *AtomicRcPtr, expected, desired Snapshot) bool {
	return t.CompareAndSwap(a, expected.Ptr(), desired.Ptr())
}
