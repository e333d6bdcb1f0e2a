package smr

import (
	"sync/atomic"

	"cdrc/internal/arena"
	"cdrc/internal/pid"
)

// ibrFreq is the number of allocations between era advances, and also the
// retirement batch between sweeps.
const ibrFreq = 64

// ibr implements two-global-epoch interval-based reclamation (Wen et al.,
// PPoPP 2018, the "2GEIBR" variant). Every node is stamped with a birth
// era at allocation and a retire era at retirement; every thread announces
// a reservation interval [lo, hi] covering the eras of all nodes it may
// hold. A retired node is safe once its lifetime interval [birth, retire]
// overlaps no thread's reservation.
type ibr struct {
	cfg    Config
	era    atomic.Uint64
	allocs atomic.Uint64
	lo     []paddedSlot // announced interval low; 0 = inactive
	hi     []paddedSlot
	reg    *pid.Registry

	orphans     orphanage[ibrRetired]
	unreclaimed atomic.Int64
	obs         obsMetrics
}

type ibrRetired struct {
	h     arena.Handle
	birth uint64
	death uint64
}

func newIBR(cfg Config) *ibr {
	if cfg.Era == nil {
		panic("smr: IBR requires Config.Era for era stamping")
	}
	r := &ibr{
		cfg: cfg,
		lo:  make([]paddedSlot, cfg.MaxProcs),
		hi:  make([]paddedSlot, cfg.MaxProcs),
		reg: pid.NewRegistry(cfg.MaxProcs),
		obs: newObsMetrics(string(KindIBR)),
	}
	r.era.Store(1)
	return r
}

func (r *ibr) Name() string       { return string(KindIBR) }
func (r *ibr) Unreclaimed() int64 { return r.unreclaimed.Load() }

func (r *ibr) Attach() Thread { return &ibrThread{r: r, id: r.reg.Register()} }

type ibrThread struct {
	r       *ibr
	id      int
	limbo   []ibrRetired
	counter int
}

func (t *ibrThread) ID() int { return t.id }

func (t *ibrThread) Begin() {
	e := t.r.era.Load()
	t.r.lo[t.id].v.Store(e)
	t.r.hi[t.id].v.Store(e)
}

func (t *ibrThread) End() {
	t.r.lo[t.id].v.Store(0)
	t.r.hi[t.id].v.Store(0)
}

// Protect reads the source and extends the reservation's upper bound until
// the read is covered: the 2GE tagged read. No per-pointer announcements
// are needed, which is IBR's usability advantage over HP.
func (t *ibrThread) Protect(slot int, src *atomic.Uint64) arena.Handle {
	hi := &t.r.hi[t.id].v
	prev := hi.Load()
	for {
		w := arena.Handle(src.Load())
		e := t.r.era.Load()
		if e == prev {
			return w
		}
		hi.Store(e)
		prev = e
	}
}

// Announce is a no-op: the reservation interval already covers every era
// read during the operation.
func (t *ibrThread) Announce(int, arena.Handle) {}

// OnAlloc stamps the node's birth era and advances the global era every
// ibrFreq allocations.
func (t *ibrThread) OnAlloc(h arena.Handle) {
	t.r.cfg.Era(h).Store(t.r.era.Load())
	if t.r.allocs.Add(1)%ibrFreq == 0 {
		t.r.era.Add(1)
	}
}

func (t *ibrThread) Retire(h arena.Handle) {
	death := t.r.era.Load()
	t.limbo = append(t.limbo, ibrRetired{h: h, birth: t.r.cfg.Era(h).Load(), death: death})
	t.r.unreclaimed.Add(1)
	t.r.obs.retire.Inc(t.id)
	t.counter++
	if t.counter >= ibrFreq {
		t.counter = 0
		t.sweep()
	}
}

// conflicts reports whether any thread's reservation overlaps [birth,
// death].
func (r *ibr) conflicts(birth, death uint64) bool {
	n := r.reg.HighWater()
	for i := 0; i < n; i++ {
		lo := r.lo[i].v.Load()
		if lo == 0 {
			continue
		}
		hi := r.hi[i].v.Load()
		if lo <= death && birth <= hi {
			return true
		}
	}
	return false
}

func (t *ibrThread) sweep() {
	t.r.obs.scan.Inc(t.id)
	obsScanBatchHist.Observe(uint64(len(t.limbo)))
	keep := t.limbo[:0]
	for _, n := range t.limbo {
		if t.r.conflicts(n.birth, n.death) {
			keep = append(keep, n)
			continue
		}
		t.r.cfg.Free(t.id, n.h)
		t.r.unreclaimed.Add(-1)
		t.r.obs.reclaim.Inc(t.id)
	}
	t.limbo = keep
}

func (t *ibrThread) Flush() {
	t.limbo = t.r.orphans.adopt(t.limbo)
	t.sweep()
}

func (t *ibrThread) Detach() {
	t.End()
	t.sweep()
	t.r.orphans.deposit(t.limbo)
	t.limbo = nil
	t.r.reg.Release(t.id)
}
