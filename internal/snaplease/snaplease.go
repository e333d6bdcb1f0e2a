// Package snaplease multiplexes point-in-time read leases over a global
// version clock, so that W workers × S shards can serve consistent
// multi-key reads without any of them holding cdrc snapshots across the
// whole request (the 7-slot acqret.MaxSnapshots ceiling makes that
// impossible for a fanned-out scan; see DESIGN.md §10).
//
// A lease is not a snapshot: it is a retention contract. Acquire hands
// out a version timestamp ts drawn from the clock; the versioned map
// (internal/ds/rcds vers.go) promises that while any lease with
// timestamp ≥ v is active, no version with stamp ≤ v is trimmed from a
// key's version chain. A reader resolves every key "as of ts" with at
// most four short-lived cdrc snapshots at a time — well inside the
// per-thread ceiling — releasing each before the next hop, exactly the
// release-before-Detach discipline CLAUDE.md mandates.
//
// The publish-then-stamp order in Acquire is the linchpin: a slot is
// claimed (published as pending) BEFORE the clock is read, so a trimmer
// scanning MinActive concurrently either sees the pending claim (and
// conservatively treats it as timestamp 0) or the slot was claimed after
// the scan — in which case its timestamp is at least the clock value the
// trimmer already observed, and nothing the trimmer cut was needed.
//
// The pool also counts claimed-or-pending leases, so that MinActive
// answers MaxUint64 without a scan while no lease is held — the common
// case for a write-heavy table, which trims on every write. The count is
// raised before the slot CAS and lowered after the slot clear, so it
// covers every slot the scan could see non-zero: a zero count at the
// read means no slot was claimed then, and a claim that follows it
// stamps its lease from a later clock value, exactly as above.
package snaplease

import (
	"math"
	"sync/atomic"
	"time"

	"cdrc/internal/obs"
)

// snaplease.acquire / snaplease.shed count lease grants and pool-full
// rejections (the server maps a shed to -BUSY under server.busy.lease);
// snaplease.age.ns records each lease's hold time at release — the
// "snapshot age" histogram: how far behind the clock the oldest analytic
// read lags.
var (
	obsAcquire = obs.NewCounter("snaplease.acquire")
	obsShed    = obs.NewCounter("snaplease.shed")
	obsAgeNs   = obs.NewHistogram("snaplease.age.ns")
)

// pendingTS marks a slot claimed but not yet stamped. MinActive treats
// it as "could be anything ≥ what I've seen", i.e. 0.
const pendingTS = math.MaxUint64

// DefaultLeases is the pool size when the caller passes 0.
const DefaultLeases = 64

// Pool is a fixed-size pool of version leases over one clock. All
// methods are safe for concurrent use; Acquire and Release are
// lock-free, MinActive is one load while no lease is held and a
// wait-free scan otherwise.
type Pool struct {
	clock atomic.Uint64
	held  atomic.Int64    // leases claimed or mid-claim (see the package comment)
	slots []atomic.Uint64 // 0 = free, pendingTS = claiming, else the lease ts
}

// NewPool creates a pool with the given number of concurrent leases
// (0 selects DefaultLeases). The slots are packed: MinActive runs on
// every version-chain trim, so read density beats false-sharing
// avoidance on the rare Acquire/Release writes.
func NewPool(leases int) *Pool {
	if leases <= 0 {
		leases = DefaultLeases
	}
	p := &Pool{slots: make([]atomic.Uint64, leases)}
	p.clock.Store(1) // stamp 0 stays "never written"
	return p
}

// Lease is one granted read timestamp. The zero Lease is invalid;
// Release on it is a no-op, so callers can release unconditionally.
type Lease struct {
	p   *Pool
	idx int32
	ts  uint64
	t0  int64
}

// TS returns the lease's version timestamp: every write stamped ≤ TS is
// visible to reads at this lease, every later write invisible.
func (l Lease) TS() uint64 { return l.ts }

// Valid reports whether the lease is live (acquired and not released).
func (l Lease) Valid() bool { return l.p != nil }

// Acquire claims a lease. It publishes the slot claim before reading
// the clock (see the package comment) and returns ok == false when
// every slot is held — the caller's backpressure signal. procID shards
// the obs counters.
func (p *Pool) Acquire(procID int) (Lease, bool) {
	p.held.Add(1) // before any claim, so MinActive's fast path sees it
	for i := range p.slots {
		if p.slots[i].CompareAndSwap(0, pendingTS) {
			ts := p.clock.Add(1) - 1
			p.slots[i].Store(ts)
			obsAcquire.Inc(procID)
			return Lease{p: p, idx: int32(i), ts: ts, t0: time.Now().UnixNano()}, true
		}
	}
	p.held.Add(-1)
	obsShed.Inc(procID)
	return Lease{}, false
}

// Release frees the lease's slot, ending its retention of old versions.
// Idempotent and safe on the zero Lease.
func (l *Lease) Release(procID int) {
	if l.p == nil {
		return
	}
	if obs.Enabled() {
		obsAgeNs.Observe(uint64(time.Now().UnixNano() - l.t0))
	}
	l.p.slots[l.idx].Store(0)
	l.p.held.Add(-1) // after the clear (see the package comment)
	l.p = nil
}

// Now returns the current clock value: the stamp a write fixed right
// now would carry. Writes stamp with Now; leases draw strictly
// increasing timestamps, so a write stamped after a lease was granted
// always carries a stamp > that lease's TS.
func (p *Pool) Now() uint64 { return p.clock.Load() }

// MinActive returns the smallest timestamp any active lease may hold
// (MaxUint64 when none are active): versions superseded at or before it
// are safe to trim. A pending claim forces the conservative answer 0.
// With no lease held it returns without scanning the slots.
func (p *Pool) MinActive() uint64 {
	if p.held.Load() == 0 {
		return math.MaxUint64
	}
	min := uint64(math.MaxUint64)
	for i := range p.slots {
		switch ts := p.slots[i].Load(); {
		case ts == 0:
		case ts == pendingTS:
			return 0
		case ts < min:
			min = ts
		}
	}
	return min
}

// Active counts currently held (or mid-claim) leases; a quiescent
// server must report 0.
func (p *Pool) Active() int {
	n := 0
	for i := range p.slots {
		if p.slots[i].Load() != 0 {
			n++
		}
	}
	return n
}

// Cap returns the pool size.
func (p *Pool) Cap() int { return len(p.slots) }
