// Package acqret implements the acquire-retire interface, the paper's
// generalization of hazard pointers (§4) and its constant-time
// implementation (§6).
//
// Acquire-retire manages arbitrary word-sized resource handles rather than
// memory blocks, and - unlike hazard pointers - permits the same handle to
// be retired multiple times concurrently. Each processor owns a small fixed
// set of announcement slots. Acquire atomically copies a handle from a
// shared location into an announcement slot, protecting it; Release clears
// the slot; Retire marks one occurrence of a handle as no longer needed;
// Eject returns a previously retired handle that is now safe to act upon
// (no acquire that could map to that retire is still active).
//
// The implementation follows Fig. 5 of the paper. Retired handles go on a
// per-processor rlist. ejectAll scans every announcement slot into a hash
// multiset (plist) and computes the multiset difference rlist \ plist: a
// handle retired s times and announced t times is ejected s-t times, which
// is exactly what makes multiple concurrent retires sound. Eject is the
// deamortized version: each call performs a constant number of steps of
// the current scan (each hash-table operation counting as one step), so
// retire+eject pairs run in O(1) expected time and at most O(K*P) retires
// are deferred, where K is the total number of announcement slots.
//
// Two acquire paths are provided, selected by Option:
//
//   - LockFreeAcquire (default): the classic announce/validate loop. It is
//     lock-free but not wait-free; the paper reports using it for all
//     headline experiments because the fast path dominates.
//   - WaitFreeAcquire: announcement slots are swcopy Destinations and
//     acquire is a single atomic copy, making it constant-time wait-free.
package acqret

import (
	"sync"
	"sync/atomic"

	"cdrc/internal/chaos"
	"cdrc/internal/multiset"
	"cdrc/internal/obs"
	"cdrc/internal/pid"
	"cdrc/internal/swcopy"
)

// Fault-injection points (single atomic loads unless an injector is
// installed). The two acquire points bracket the classic read-reclaim race
// window of §3.1: a stall between reading a handle and announcing it lets
// a concurrent retire+eject free the object under the reader (the validate
// catches it); a stall between announcing and validating widens the window
// where a stale announcement protects a dead handle. acqret.retire stalls
// the deferred-decrement path (§4's backlog).
var (
	chaosAcquireRead     = chaos.New("acqret.acquire.between-read-and-announce")
	chaosAcquireValidate = chaos.New("acqret.acquire.between-announce-and-validate")
	chaosRetire          = chaos.New("acqret.retire")
)

// Observability metrics (inert single atomic loads unless obs.Enable has
// armed them). The eject counter mirrors d.ejected exactly, including the
// negative re-defer adjustments of Unregister and reapAbandoned, so
// acqret.retire == acqret.eject holds at quiescence even across simulated
// crashes.
var (
	obsRetire    = obs.NewCounter("acqret.retire")
	obsEject     = obs.NewCounter("acqret.eject")
	obsScan      = obs.NewCounter("acqret.scan")
	obsAbandon   = obs.NewCounter("acqret.abandon")
	obsAdopt     = obs.NewCounter("acqret.adopt")
	obsScanBatch = obs.NewHistogram("acqret.scan.batch")
)

// SlotsPerProc is the number of announcement slots each processor owns:
// one for in-flight acquires by load/store/CAS operations plus seven
// snapshot slots (Fig. 4 uses MAX_SNAPSHOTS = 7, so that all eight slots
// fit on one cache line in the C++ layout).
const SlotsPerProc = 8

// MaxSnapshots is the number of per-processor snapshot slots (slots
// 1..MaxSnapshots; slot 0 is the acquire slot).
const MaxSnapshots = SlotsPerProc - 1

// ejectStepsPerCall bounds the work each Eject call contributes to the
// in-progress ejectAll scan. Each announcement-slot read and each
// hash-table operation counts as one step.
const ejectStepsPerCall = 4

// scanSlack is added to the scan-start threshold so tiny domains do not
// scan on every retire.
const scanSlack = 64

// Mode selects the acquire implementation.
type Mode int

const (
	// LockFreeAcquire uses the announce/validate retry loop.
	LockFreeAcquire Mode = iota
	// WaitFreeAcquire uses swcopy destinations for announcement slots.
	WaitFreeAcquire
	// CombinedAcquire applies the fast-path/slow-path methodology the
	// paper's §7 reports trying (Kogan-Petrank style): a bounded number
	// of lock-free announce/validate attempts, then the wait-free swcopy
	// path. Scans cover both representations, so protection holds
	// whichever path an acquire took. The paper found this "as fast as
	// the lock-free one" because the fast path dominates.
	CombinedAcquire
)

// fastAttempts bounds the lock-free attempts of CombinedAcquire before it
// falls back to the wait-free path.
const fastAttempts = 4

// Option configures a Domain.
type Option func(*config)

type config struct {
	mode       Mode
	normalize  func(uint64) uint64
	thresholdK int
	adoptHook  func(procID int)
}

// WithMode selects the acquire implementation (default LockFreeAcquire).
func WithMode(m Mode) Option { return func(c *config) { c.mode = m } }

// WithNormalizer installs a canonicalization function applied to announced
// handles before they are matched against retired handles. Users whose
// handles carry transient bits (e.g. low-order marks on arena handles)
// announce raw words but must Retire canonical ones; the normalizer makes
// the multiset difference compare like with like. Normalizing to zero
// removes the announcement from consideration (a marked nil protects
// nothing).
func WithNormalizer(f func(uint64) uint64) Option {
	return func(c *config) { c.normalize = f }
}

// WithAdoptHook installs a callback invoked while an abandoned processor
// id is being adopted, after its announcement slots are cleared and its
// retired lists taken, and before the id is reinstated for reuse. Layers
// stacked on the domain use it to evacuate their own per-processor state
// bound to the same id space - the core library drains the dead
// processor's arena magazines (active and spare) to the global block
// stack here, so an id is never reissued while its magazines are
// non-empty. The hook runs on the adopting goroutine with the domain's
// adoption lock held, so it must not call back into the domain: that
// risks deadlock on the adoption lock.
func WithAdoptHook(f func(procID int)) Option {
	return func(c *config) { c.adoptHook = f }
}

// WithScanThreshold sets the multiple of K (total announcement slots) a
// processor's retired list must reach before a scan starts (default 2).
// Larger values amortize scans over more retires - cheaper ejects, more
// deferred memory; this is the constant inside Theorem 1's O(P²) bound,
// and ablation A3 sweeps it.
func WithScanThreshold(mult int) Option {
	return func(c *config) {
		if mult >= 1 {
			c.thresholdK = mult
		}
	}
}

// procState is the per-processor private state: retired list, free list,
// and the incremental scan. Only the owning processor touches it (orphan
// adoption happens under the domain's orphan mutex).
type procState struct {
	rlist []uint64 // retired, not yet ejected
	flist []uint64 // ejected, not yet returned by Eject
	plist multiset.Set

	scanActive bool
	scanAnnIdx int      // next announcement slot to read (phase 1)
	scanAnnLen int      // number of announcement slots fixed at scan start
	scanRIdx   int      // next rlist entry to classify (phase 2)
	scanBound  int      // rlist prefix under scan
	scanKeep   []uint64 // protected handles retained for the next scan
	scanSpare  []uint64 // recycled backing for the post-scan rlist rebuild

	_ [64]byte // avoid false sharing between adjacent processors
}

// Domain is an instance of acquire-retire serving up to maxProcs
// processors. Create one with New. A worker must Register to obtain a
// processor id before calling the per-processor operations, and must
// Unregister when done.
type Domain struct {
	mode       Mode
	normalize  func(uint64) uint64
	thresholdK int

	// Announcement slots, maxProcs*SlotsPerProc of them. Exactly one of
	// the two arrays is in use depending on mode. Slot value 0 means
	// "empty" (the nil handle never needs protection).
	annWords []paddedWord
	annDests []*swcopy.Destination

	procs []procState
	reg   *pid.Registry

	// orphans holds retired handles abandoned by unregistered processors;
	// scans adopt them.
	orphanMu sync.Mutex
	orphans  []uint64

	// Crash abandonment: abandoned[i] marks processor i as owned by a dead
	// goroutine; reapMu serializes adoption of such processors. adoptHook
	// (optional) lets stacked layers evacuate their own per-id state
	// before the id is reinstated.
	abandoned  []atomic.Bool
	abandonedN atomic.Int32
	reapMu     sync.Mutex
	adoptHook  func(procID int)
	adopted    atomic.Uint64

	deferred atomic.Int64 // retired and not yet ejected (including orphans)
	ejected  atomic.Uint64
	retired  atomic.Uint64
}

type paddedWord struct {
	v atomic.Uint64
	_ [56]byte
}

// New creates a Domain for up to maxProcs concurrently registered
// processors (pid.DefaultMaxProcs if maxProcs <= 0).
func New(maxProcs int, opts ...Option) *Domain {
	var c config
	for _, o := range opts {
		o(&c)
	}
	if maxProcs <= 0 {
		maxProcs = pid.DefaultMaxProcs
	}
	if c.thresholdK == 0 {
		c.thresholdK = 2
	}
	d := &Domain{
		mode:       c.mode,
		normalize:  c.normalize,
		thresholdK: c.thresholdK,
		procs:      make([]procState, maxProcs),
		reg:        pid.NewRegistry(maxProcs),
		abandoned:  make([]atomic.Bool, maxProcs),
		adoptHook:  c.adoptHook,
	}
	switch c.mode {
	case WaitFreeAcquire:
		d.annDests = make([]*swcopy.Destination, maxProcs*SlotsPerProc)
		for i := range d.annDests {
			d.annDests[i] = swcopy.New(0)
		}
	case CombinedAcquire:
		d.annWords = make([]paddedWord, maxProcs*SlotsPerProc)
		d.annDests = make([]*swcopy.Destination, maxProcs*SlotsPerProc)
		for i := range d.annDests {
			d.annDests[i] = swcopy.New(0)
		}
	default:
		d.annWords = make([]paddedWord, maxProcs*SlotsPerProc)
	}
	return d
}

// MaxProcs returns the processor capacity of the domain.
func (d *Domain) MaxProcs() int { return len(d.procs) }

// Register claims a processor id for the calling worker.
func (d *Domain) Register() int { return d.reg.Register() }

// Unregister releases a processor id. Any handles still on the
// processor's retired list are handed to the orphan pool for other
// processors' scans to adopt; its announcement slots must already be
// released (they are cleared defensively).
func (d *Domain) Unregister(procID int) {
	for s := 0; s < SlotsPerProc; s++ {
		d.clearSlot(procID, s)
	}
	p := &d.procs[procID]
	d.abandonScan(p)
	pending := append(p.rlist, p.flist...)
	// flist entries were already counted as ejected; re-defer them.
	d.deferred.Add(int64(len(p.flist)))
	d.ejected.Add(^uint64(len(p.flist) - 1))
	if n := len(p.flist); n > 0 {
		obsEject.Sub(procID, uint64(n))
	}
	p.rlist = nil
	p.flist = nil
	p.scanSpare = nil
	if len(pending) > 0 {
		d.orphanMu.Lock()
		d.orphans = append(d.orphans, pending...)
		d.orphanMu.Unlock()
	}
	d.reg.Release(procID)
}

// Abandon marks procID as owned by a goroutine that died without
// Unregister - the hazard-pointer family's classic failure mode. Unlike
// every other per-processor operation it may be called from any goroutine,
// provided the caller has synchronized with the owner's death (recovered
// its panic, or observed its exit). The dead processor's announcement
// slots keep protecting whatever they announce until a survivor's scan
// adopts the processor: adoption clears the slots, moves the retired and
// free lists to the orphan pool, runs the adopt hook, and only then
// reinstates the id for reuse. Abandoning the same id twice before
// adoption is a no-op; abandoning it again after adoption is a caller bug
// (the id may already belong to a new thread).
func (d *Domain) Abandon(procID int) {
	d.reg.Abandon(procID)
	if d.abandoned[procID].CompareAndSwap(false, true) {
		d.abandonedN.Add(1)
		obsAbandon.Inc(procID)
	}
}

// AbandonedCount returns the number of abandoned processors not yet
// adopted (diagnostics).
func (d *Domain) AbandonedCount() int { return int(d.abandonedN.Load()) }

// Adopted returns the cumulative number of abandoned processors adopted by
// survivors (diagnostics).
func (d *Domain) Adopted() uint64 { return d.adopted.Load() }

// reapAbandoned adopts every abandoned processor: its partial scan is
// discarded, its retired and free lists move to the orphan pool (a
// subsequent adoptOrphans folds them into the caller's scan), its
// announcement slots are cleared - ending their protection - and its id is
// reinstated after the adopt hook has evacuated any stacked per-id state.
// The fast path is one atomic load when nothing is abandoned.
func (d *Domain) reapAbandoned() {
	if d.abandonedN.Load() == 0 {
		return
	}
	d.reapMu.Lock()
	defer d.reapMu.Unlock()
	hw := d.reg.HighWater()
	for id := 0; id < hw; id++ {
		if !d.abandoned[id].Load() {
			continue
		}
		dead := &d.procs[id]
		d.abandonScan(dead)
		pending := append(dead.rlist, dead.flist...)
		// flist entries were already counted as ejected; re-defer them.
		if n := len(dead.flist); n > 0 {
			d.deferred.Add(int64(n))
			d.ejected.Add(^uint64(n - 1))
			obsEject.Sub(id, uint64(n))
		}
		dead.rlist, dead.flist, dead.scanSpare = nil, nil, nil
		for s := 0; s < SlotsPerProc; s++ {
			d.clearSlot(id, s)
		}
		if len(pending) > 0 {
			d.orphanMu.Lock()
			d.orphans = append(d.orphans, pending...)
			d.orphanMu.Unlock()
		}
		if d.adoptHook != nil {
			d.adoptHook(id)
		}
		d.abandoned[id].Store(false)
		d.abandonedN.Add(-1)
		d.adopted.Add(1)
		obsAdopt.Inc(id)
		d.reg.Reinstate(id)
	}
}

func (d *Domain) slotIndex(procID, slot int) int { return procID*SlotsPerProc + slot }

func (d *Domain) readSlotIdx(i int) uint64 {
	switch d.mode {
	case WaitFreeAcquire:
		return d.annDests[i].Read()
	case CombinedAcquire:
		// The owner uses exactly one representation at a time; the word
		// takes precedence (the fast path clears the destination before
		// announcing, and vice versa).
		if w := d.annWords[i].v.Load(); w != 0 {
			return w
		}
		return d.annDests[i].Read()
	default:
		return d.annWords[i].v.Load()
	}
}

// ReadSlot returns the handle currently announced in the given slot, or 0.
func (d *Domain) ReadSlot(procID, slot int) uint64 {
	return d.readSlotIdx(d.slotIndex(procID, slot))
}

// readAnnNormalized reads an announcement slot and canonicalizes it for
// multiset matching.
func (d *Domain) readAnnNormalized(i int) uint64 {
	a := d.readSlotIdx(i)
	if a != 0 && d.normalize != nil {
		a = d.normalize(a)
	}
	return a
}

func (d *Domain) clearSlot(procID, slot int) {
	i := d.slotIndex(procID, slot)
	switch d.mode {
	case WaitFreeAcquire:
		d.annDests[i].Write(0)
	case CombinedAcquire:
		d.annWords[i].v.Store(0)
		if d.annDests[i].Read() != 0 {
			d.annDests[i].Write(0)
		}
	default:
		d.annWords[i].v.Store(0)
	}
}

// Acquire atomically copies the handle stored at src into the processor's
// announcement slot and returns it, protecting the handle until the slot
// is released or overwritten by a later Acquire. slot must be in
// [0, SlotsPerProc).
func (d *Domain) Acquire(procID, slot int, src *atomic.Uint64) uint64 {
	i := d.slotIndex(procID, slot)
	switch d.mode {
	case WaitFreeAcquire:
		return d.annDests[i].SWCopy(src)
	case CombinedAcquire:
		// Fast path: bounded announce/validate attempts on the word. The
		// owner keeps at most one representation populated, so clear the
		// destination left by a previous slow-path acquire first.
		if d.annDests[i].Read() != 0 {
			d.annDests[i].Write(0)
		}
		w := &d.annWords[i].v
		for a := 0; a < fastAttempts; a++ {
			v := src.Load()
			chaosAcquireRead.Fire()
			w.Store(v)
			chaosAcquireValidate.Fire()
			if src.Load() == v {
				return v
			}
		}
		// Slow path: wait-free atomic copy.
		w.Store(0)
		return d.annDests[i].SWCopy(src)
	default:
		w := &d.annWords[i].v
		for {
			v := src.Load()
			chaosAcquireRead.Fire()
			w.Store(v)
			chaosAcquireValidate.Fire()
			if src.Load() == v {
				return v
			}
		}
	}
}

// Announce writes a handle directly into an announcement slot. It provides
// protection only if the caller can otherwise guarantee the handle is safe
// at the moment of announcement (e.g. it already holds a counted
// reference); the usual path is Acquire.
func (d *Domain) Announce(procID, slot int, h uint64) {
	i := d.slotIndex(procID, slot)
	switch d.mode {
	case WaitFreeAcquire:
		d.annDests[i].Write(h)
	case CombinedAcquire:
		if d.annDests[i].Read() != 0 {
			d.annDests[i].Write(0)
		}
		d.annWords[i].v.Store(h)
	default:
		d.annWords[i].v.Store(h)
	}
}

// Release clears an announcement slot, ending the active acquire on it.
func (d *Domain) Release(procID, slot int) { d.clearSlot(procID, slot) }

// Retire records that one occurrence of handle h is no longer needed. A
// later Eject maps to it once no acquire that could have returned this
// occurrence is active. Each Retire should be followed by at least one
// Eject (the time and space bounds assume it).
func (d *Domain) Retire(procID int, h uint64) {
	chaosRetire.Fire()
	p := &d.procs[procID]
	p.rlist = append(p.rlist, h)
	d.retired.Add(1)
	d.deferred.Add(1)
	obsRetire.Inc(procID)
}

// Eject performs a constant number of steps of the incremental ejectAll
// and, if any handle has become safe, returns one of them. The bool result
// reports whether a handle was returned.
func (d *Domain) Eject(procID int) (uint64, bool) {
	p := &d.procs[procID]
	d.scanSteps(procID, p, ejectStepsPerCall)
	if n := len(p.flist); n > 0 {
		h := p.flist[n-1]
		p.flist = p.flist[:n-1]
		return h, true
	}
	return 0, false
}

// announcedSlots returns the number of announcement slots a scan must
// cover: all slots of every processor id ever handed out.
func (d *Domain) announcedSlots() int {
	return d.reg.HighWater() * SlotsPerProc
}

// scanSteps advances the processor's incremental scan by at most budget
// steps, starting a new scan if warranted.
func (d *Domain) scanSteps(procID int, p *procState, budget int) {
	for budget > 0 {
		if !p.scanActive {
			k := d.announcedSlots()
			if len(p.rlist) < d.thresholdK*k+scanSlack {
				return
			}
			d.reapAbandoned()
			d.adoptOrphans(p)
			p.scanActive = true
			p.scanAnnIdx = 0
			p.scanAnnLen = d.announcedSlots()
			p.scanRIdx = 0
			p.scanBound = len(p.rlist)
			p.scanKeep = p.scanKeep[:0]
			p.plist.Reset()
			obsScan.Inc(procID)
			obsScanBatch.Observe(uint64(p.scanBound))
			budget--
			continue
		}
		// Phase 1: read announcement slots into plist, preserving
		// multiplicity across slots.
		if p.scanAnnIdx < p.scanAnnLen {
			if a := d.readAnnNormalized(p.scanAnnIdx); a != 0 {
				p.plist.Add(a)
			}
			p.scanAnnIdx++
			budget--
			continue
		}
		// Phase 2: multiset difference rlist[0:bound] \ plist.
		if p.scanRIdx < p.scanBound {
			h := p.rlist[p.scanRIdx]
			if p.plist.Remove(h) {
				p.scanKeep = append(p.scanKeep, h)
			} else {
				p.flist = append(p.flist, h)
				d.deferred.Add(-1)
				d.ejected.Add(1)
				obsEject.Inc(procID)
			}
			p.scanRIdx++
			budget--
			continue
		}
		// Scan complete: retained handles plus retires that arrived during
		// the scan form the new rlist. Rebuild into the spare backing and
		// recycle the old rlist array as the next spare: rlist, scanKeep
		// and scanSpare stay pairwise non-aliasing, and once capacities
		// stabilize a completed scan allocates nothing.
		merged := append(p.scanSpare[:0], p.scanKeep...)
		merged = append(merged, p.rlist[p.scanBound:]...)
		p.scanSpare = p.rlist[:0]
		p.rlist = merged
		p.scanKeep = p.scanKeep[:0]
		p.scanActive = false
		p.plist.Reset()
		budget--
	}
}

// abandonScan discards a partial scan, folding its retained handles back
// into the unclassified remainder of the retired list. Entries already
// classified onto the free list stay there; the classified prefix of rlist
// must therefore be dropped, not re-kept, or those entries would be ejected
// twice.
func (d *Domain) abandonScan(p *procState) {
	if !p.scanActive {
		return
	}
	rest := p.rlist[p.scanRIdx:]
	merged := append(p.scanSpare[:0], p.scanKeep...)
	merged = append(merged, rest...)
	p.scanSpare = p.rlist[:0]
	p.rlist = merged
	p.scanKeep = p.scanKeep[:0]
	p.scanActive = false
	p.plist.Reset()
}

// adoptOrphans moves abandoned retires into this processor's rlist.
func (d *Domain) adoptOrphans(p *procState) {
	d.orphanMu.Lock()
	if len(d.orphans) > 0 {
		p.rlist = append(p.rlist, d.orphans...)
		d.orphans = d.orphans[:0]
	}
	d.orphanMu.Unlock()
}

// EjectAllLocal synchronously runs a complete scan for the processor and
// returns every handle that is currently safe, leaving still-protected
// handles on the retired list. It is used for draining at teardown and for
// the non-deamortized comparison benchmarks.
func (d *Domain) EjectAllLocal(procID int) []uint64 {
	p := &d.procs[procID]
	d.abandonScan(p)
	d.reapAbandoned()
	d.adoptOrphans(p)
	p.plist.Reset()
	obsScan.Inc(procID)
	obsScanBatch.Observe(uint64(len(p.rlist)))
	n := d.announcedSlots()
	for i := 0; i < n; i++ {
		if a := d.readAnnNormalized(i); a != 0 {
			p.plist.Add(a)
		}
	}
	var out, keep []uint64
	for _, h := range p.rlist {
		if p.plist.Remove(h) {
			keep = append(keep, h)
		} else {
			out = append(out, h)
		}
	}
	p.rlist = keep
	p.plist.Reset()
	d.deferred.Add(-int64(len(out)))
	d.ejected.Add(uint64(len(out)))
	if len(out) > 0 {
		obsEject.Add(procID, uint64(len(out)))
	}
	// Drain the flist too: callers of EjectAllLocal want everything.
	out = append(out, p.flist...)
	p.flist = p.flist[:0]
	return out
}

// PendingLocal returns the number of handles on the processor's retired
// and free lists (diagnostics).
func (d *Domain) PendingLocal(procID int) int {
	p := &d.procs[procID]
	return len(p.rlist) + len(p.flist)
}

// Deferred returns the total number of retires not yet ejected, including
// orphans. This is the quantity the paper bounds by O(K*P). It excludes
// handles a scan has already classified safe that no Eject call has
// returned yet (the free lists; see PendingLocal): those count as
// ejected here, although their caller has not applied them.
func (d *Domain) Deferred() int64 { return d.deferred.Load() }

// Stats returns cumulative retire/eject counters.
func (d *Domain) Stats() (retired, ejected uint64) {
	return d.retired.Load(), d.ejected.Load()
}
