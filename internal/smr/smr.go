// Package smr implements the manual safe-memory-reclamation techniques the
// paper benchmarks against in §7.2: epoch-based reclamation (EBR), hazard
// pointers (HP) plus the paper's scan-frequency-optimized variant (HPopt),
// two-global-epoch interval-based reclamation (IBR), hazard eras (HE), and
// the leaky "No MM" baseline.
//
// All schemes reclaim arena handles: the data structure owns the arena
// pool and supplies Free/Era callbacks. Handles may carry low-order marks
// (deleted-bit idiom); schemes compare unmarked handles when deciding
// safety. As the paper emphasizes (§8), these are *manual* techniques: the
// data structure must call Retire at exactly the right moments, and
// getting that wrong leaks or corrupts memory - which is precisely the
// usability gap the paper's automatic scheme closes.
package smr

import (
	"strings"
	"sync"
	"sync/atomic"

	"cdrc/internal/arena"
	"cdrc/internal/obs"
	"cdrc/internal/pid"
)

// SlotsPerThread is the number of protection slots each thread owns.
// The Natarajan-Mittal tree needs five simultaneously protected nodes;
// eight keeps a thread's slots on one cache line, as in the paper.
const SlotsPerThread = 8

// scanSlack pads scan thresholds so small runs do not scan per-retire.
const scanSlack = 64

// Config supplies the callbacks a reclaimer needs to manage a pool it does
// not own.
type Config struct {
	// MaxProcs bounds simultaneously attached threads.
	MaxProcs int

	// Free reclaims a (unmarked) handle on behalf of procID.
	Free func(procID int, h arena.Handle)

	// Era returns a live slot's era word (arena Pool.Era) for birth-era
	// stamping. Required by IBR and HE; the others ignore it.
	Era func(h arena.Handle) *atomic.Uint64
}

func (c Config) withDefaults() Config {
	if c.MaxProcs <= 0 {
		c.MaxProcs = pid.DefaultMaxProcs
	}
	return c
}

// Reclaimer is a manual SMR scheme instance.
type Reclaimer interface {
	// Name is the label used in figures ("EBR", "HP", ...).
	Name() string

	// Attach registers a worker.
	Attach() Thread

	// Unreclaimed returns the number of retired-but-not-freed handles
	// (the "extra nodes" series of Fig. 7).
	Unreclaimed() int64
}

// Thread is a per-worker SMR context. Not safe for concurrent use.
type Thread interface {
	// ID returns the thread's processor id. Data structures must use it
	// for their arena allocations so that the reclaimer's frees (which
	// run under this id) and the structure's allocations share one
	// per-processor free list. Using a second id space corrupts the
	// arena's free lists.
	ID() int

	// Begin brackets the start of one data-structure operation (epoch and
	// era schemes announce here; pointer-based schemes no-op).
	Begin()

	// End brackets the end of one data-structure operation, dropping all
	// protections, including every Protect slot.
	End()

	// Protect reads the handle stored at src and protects it until the
	// slot is reused or End is called. The returned word preserves marks.
	Protect(slot int, src *atomic.Uint64) arena.Handle

	// Announce writes a handle directly into a protection slot without
	// source validation. Data structures use it to shift an
	// already-protected handle between role-pinned slots (e.g. the
	// ancestor/successor/parent/leaf roles of the Natarajan-Mittal tree).
	// Pointer-based schemes store the handle; era- and epoch-based
	// schemes no-op.
	Announce(slot int, h arena.Handle)

	// OnAlloc informs the scheme of a freshly allocated handle (era
	// schemes stamp the birth era).
	OnAlloc(h arena.Handle)

	// Retire hands the scheme an unlinked handle for eventual
	// reclamation. The handle must be unmarked and retired exactly once.
	Retire(h arena.Handle)

	// Flush reclaims everything currently safe (teardown helper; assumes
	// no protection is held by this thread).
	Flush()

	// Detach unregisters the worker, handing leftover retirements to
	// other threads.
	Detach()
}

// Kind names a scheme for the registry.
type Kind string

// The benchmarked schemes.
const (
	KindNoMM  Kind = "No MM"
	KindEBR   Kind = "EBR"
	KindHP    Kind = "HP"
	KindHPOpt Kind = "HPopt"
	KindIBR   Kind = "IBR"
	KindHE    Kind = "HE"
)

// Kinds lists every scheme in the order Fig. 7 plots them.
func Kinds() []Kind {
	return []Kind{KindEBR, KindHP, KindHPOpt, KindIBR, KindHE, KindNoMM}
}

// New creates a reclaimer of the given kind.
func New(kind Kind, cfg Config) Reclaimer {
	cfg = cfg.withDefaults()
	switch kind {
	case KindNoMM:
		return newNoMM(cfg)
	case KindEBR:
		return newEBR(cfg)
	case KindHP:
		return newHP(cfg, 1)
	case KindHPOpt:
		return newHP(cfg, 4)
	case KindIBR:
		return newIBR(cfg)
	case KindHE:
		return newHE(cfg)
	default:
		panic("smr: unknown kind " + string(kind))
	}
}

// obsScanBatchHist records the retired-list length at every scan/sweep,
// across all manual schemes (per-kind attribution lives in the counters).
var obsScanBatchHist = obs.NewHistogram("smr.scan.batch")

// obsMetrics bundles one scheme instance's observability counters (inert
// single atomic loads unless obs.Enable has armed them). At quiescence
// after Flush+Detach, retire - reclaim == Unreclaimed for every scheme.
type obsMetrics struct {
	retire  *obs.Counter
	reclaim *obs.Counter
	scan    *obs.Counter
}

// newObsMetrics names the counters smr.<Name>.retire/.reclaim/.scan,
// stripping spaces ("No MM" -> smr.NoMM.retire).
func newObsMetrics(name string) obsMetrics {
	prefix := "smr." + strings.ReplaceAll(name, " ", "")
	return obsMetrics{
		retire:  obs.NewCounter(prefix + ".retire"),
		reclaim: obs.NewCounter(prefix + ".reclaim"),
		scan:    obs.NewCounter(prefix + ".scan"),
	}
}

// paddedSlot is a cache-line-isolated announcement word.
type paddedSlot struct {
	v atomic.Uint64
	_ [56]byte
}

// orphanage collects retirements abandoned by detached threads.
type orphanage[T any] struct {
	mu   sync.Mutex
	list []T
}

func (o *orphanage[T]) deposit(items []T) {
	if len(items) == 0 {
		return
	}
	o.mu.Lock()
	o.list = append(o.list, items...)
	o.mu.Unlock()
}

func (o *orphanage[T]) adopt(into []T) []T {
	o.mu.Lock()
	if len(o.list) > 0 {
		into = append(into, o.list...)
		o.list = o.list[:0]
	}
	o.mu.Unlock()
	return into
}
