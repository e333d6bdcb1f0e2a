package smr

import (
	"sync/atomic"

	"cdrc/internal/arena"
	"cdrc/internal/pid"
)

// heFreq is the retirement batch between era advances and sweeps.
const heFreq = 64

// he implements hazard eras (Ramalhete & Correia, SPAA 2017): the
// protection granularity of hazard pointers with the constant-time
// protection cost of epochs. Each slot announces an *era* rather than a
// pointer; a retired node is safe once no announced era falls within its
// [birth, retire] lifetime.
type he struct {
	cfg   Config
	era   atomic.Uint64
	slots []paddedSlot // announced eras; 0 = empty
	reg   *pid.Registry

	orphans     orphanage[heRetired]
	unreclaimed atomic.Int64
	obs         obsMetrics
}

type heRetired struct {
	h     arena.Handle
	birth uint64
	death uint64
}

func newHE(cfg Config) *he {
	if cfg.Era == nil {
		panic("smr: HE requires Config.Era for era stamping")
	}
	r := &he{
		cfg:   cfg,
		slots: make([]paddedSlot, cfg.MaxProcs*SlotsPerThread),
		reg:   pid.NewRegistry(cfg.MaxProcs),
		obs:   newObsMetrics(string(KindHE)),
	}
	r.era.Store(1)
	return r
}

func (r *he) Name() string       { return string(KindHE) }
func (r *he) Unreclaimed() int64 { return r.unreclaimed.Load() }

func (r *he) Attach() Thread { return &heThread{r: r, id: r.reg.Register()} }

type heThread struct {
	r       *he
	id      int
	limbo   []heRetired
	counter int
}

func (t *heThread) slot(i int) *atomic.Uint64 {
	return &t.r.slots[t.id*SlotsPerThread+i].v
}

func (t *heThread) ID() int { return t.id }

func (t *heThread) Begin() {}

func (t *heThread) End() {
	for i := 0; i < SlotsPerThread; i++ {
		t.slot(i).Store(0)
	}
}

// Protect announces the current era in the slot and re-reads until the era
// is stable across the read: any node the returned handle points to was
// alive in the announced era, so it cannot be freed while the slot holds
// it.
func (t *heThread) Protect(slot int, src *atomic.Uint64) arena.Handle {
	s := t.slot(slot)
	prev := s.Load()
	for {
		w := arena.Handle(src.Load())
		e := t.r.era.Load()
		if e == prev {
			return w
		}
		s.Store(e)
		prev = e
	}
}

// Announce is a no-op for hazard eras: slots hold eras, not pointers.
// (This is the over-generous application the paper's §7.2 notes for HE on
// structures that need role pinning.)
func (t *heThread) Announce(int, arena.Handle) {}

// OnAlloc stamps the birth era.
func (t *heThread) OnAlloc(h arena.Handle) {
	t.r.cfg.Era(h).Store(t.r.era.Load())
}

func (t *heThread) Retire(h arena.Handle) {
	death := t.r.era.Load()
	t.limbo = append(t.limbo, heRetired{h: h, birth: t.r.cfg.Era(h).Load(), death: death})
	t.r.unreclaimed.Add(1)
	t.r.obs.retire.Inc(t.id)
	t.counter++
	if t.counter >= heFreq {
		t.counter = 0
		t.r.era.Add(1)
		t.sweep()
	}
}

// covered reports whether any announced era lies within [birth, death].
func (r *he) covered(birth, death uint64) bool {
	n := r.reg.HighWater() * SlotsPerThread
	for i := 0; i < n; i++ {
		if e := r.slots[i].v.Load(); e != 0 && birth <= e && e <= death {
			return true
		}
	}
	return false
}

func (t *heThread) sweep() {
	t.r.obs.scan.Inc(t.id)
	obsScanBatchHist.Observe(uint64(len(t.limbo)))
	keep := t.limbo[:0]
	for _, n := range t.limbo {
		if t.r.covered(n.birth, n.death) {
			keep = append(keep, n)
			continue
		}
		t.r.cfg.Free(t.id, n.h)
		t.r.unreclaimed.Add(-1)
		t.r.obs.reclaim.Inc(t.id)
	}
	t.limbo = keep
}

func (t *heThread) Flush() {
	t.limbo = t.r.orphans.adopt(t.limbo)
	t.sweep()
}

func (t *heThread) Detach() {
	t.End()
	t.sweep()
	t.r.orphans.deposit(t.limbo)
	t.limbo = nil
	t.r.reg.Release(t.id)
}
