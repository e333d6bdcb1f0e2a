// Package pid provides a registry of processor identifiers.
//
// The algorithms in this module (acquire-retire, deferred reference
// counting, and the manual SMR baselines) all assume a fixed bound P on the
// number of concurrent processes and give each process a private set of
// announcement slots indexed by a small integer id. C++ implementations
// bind these ids to OS threads with thread-local storage; in Go a worker
// goroutine instead registers with a Registry to obtain an id for the
// duration of its work and releases it when done. Ids are reused.
package pid

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// DefaultMaxProcs is the registry capacity used when a component is created
// without an explicit bound. It is sized for the largest sweeps in the
// benchmark harness (the paper runs up to 200 threads).
const DefaultMaxProcs = 256

// Registry hands out processor ids in [0, Cap()). The zero value is not
// usable; create one with NewRegistry.
type Registry struct {
	mu        sync.Mutex
	free      []int        // stack of released ids
	next      int          // next never-used id
	hw        atomic.Int64 // mirrors next so HighWater skips the lock
	cap       int
	inUse     int
	abandoned map[int]bool // ids whose owner died without Release
}

// NewRegistry returns a registry that can have at most maxProcs ids
// registered simultaneously. If maxProcs <= 0 it uses DefaultMaxProcs.
func NewRegistry(maxProcs int) *Registry {
	if maxProcs <= 0 {
		maxProcs = DefaultMaxProcs
	}
	return &Registry{cap: maxProcs}
}

// Cap returns the maximum number of simultaneously registered ids.
func (r *Registry) Cap() int { return r.cap }

// InUse returns the number of currently registered ids.
func (r *Registry) InUse() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.inUse
}

// Register claims a processor id. It panics if the registry is full, since
// exceeding P is a configuration error rather than a runtime condition the
// caller can meaningfully handle mid-operation.
func (r *Registry) Register() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	var id int
	switch {
	case len(r.free) > 0:
		id = r.free[len(r.free)-1]
		r.free = r.free[:len(r.free)-1]
	case r.next < r.cap:
		id = r.next
		r.next++
		r.hw.Store(int64(r.next))
	default:
		panic(fmt.Sprintf("pid: registry full (maxProcs=%d)", r.cap))
	}
	r.inUse++
	return id
}

// TryRegister claims a processor id, reporting false when the registry is
// full instead of panicking.
func (r *Registry) TryRegister() (int, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	var id int
	switch {
	case len(r.free) > 0:
		id = r.free[len(r.free)-1]
		r.free = r.free[:len(r.free)-1]
	case r.next < r.cap:
		id = r.next
		r.next++
		r.hw.Store(int64(r.next))
	default:
		return 0, false
	}
	r.inUse++
	return id, true
}

// Release returns an id to the registry. Releasing an id that is not
// currently registered corrupts the registry, so callers must pair each
// Register with exactly one Release. Releasing an abandoned id panics:
// abandoned ids carry state (announcement slots, retired lists, arena free
// lists) that must be adopted and drained first, after which the adopter
// calls Reinstate.
func (r *Registry) Release(id int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if id < 0 || id >= r.cap {
		panic(fmt.Sprintf("pid: release of out-of-range id %d (maxProcs=%d)", id, r.cap))
	}
	if r.abandoned[id] {
		panic(fmt.Sprintf("pid: release of abandoned id %d (adopt and Reinstate instead)", id))
	}
	r.free = append(r.free, id)
	r.inUse--
}

// Abandon marks a registered id as abandoned: its owner died (or was
// simulated to die) without Release. The id stays out of circulation -
// Register will never reissue it - until an adopter has taken over the
// owner's per-processor state and calls Reinstate. Abandoning an id twice
// is a no-op; abandoning an unregistered id is a caller bug but is not
// detectable here (the registry does not track which ids are out).
func (r *Registry) Abandon(id int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if id < 0 || id >= r.cap {
		panic(fmt.Sprintf("pid: abandon of out-of-range id %d (maxProcs=%d)", id, r.cap))
	}
	if r.abandoned == nil {
		r.abandoned = make(map[int]bool)
	}
	r.abandoned[id] = true
}

// Reinstate returns an abandoned id to circulation. Only the adopter that
// has finished evacuating the id's state (announcements cleared, retired
// lists adopted, arena free lists drained) may call it; reinstating an id
// that was never abandoned panics.
func (r *Registry) Reinstate(id int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.abandoned[id] {
		panic(fmt.Sprintf("pid: reinstate of non-abandoned id %d", id))
	}
	delete(r.abandoned, id)
	r.free = append(r.free, id)
	r.inUse--
}

// Abandoned returns the currently abandoned ids (diagnostics).
func (r *Registry) Abandoned() []int {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]int, 0, len(r.abandoned))
	for id := range r.abandoned {
		out = append(out, id)
	}
	return out
}

// HighWater returns the number of distinct ids ever handed out. Scans over
// announcement slots only need to cover [0, HighWater()). Lock-free: the
// value is monotone and mirrored atomically by Register, so it is called
// on every incremental scan step without touching the registry lock.
func (r *Registry) HighWater() int {
	return int(r.hw.Load())
}
