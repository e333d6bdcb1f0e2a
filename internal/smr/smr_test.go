package smr

import (
	"sync"
	"sync/atomic"
	"testing"

	"cdrc/internal/arena"
)

// harness wires a reclaimer to a real arena pool so frees are observable.
type harness struct {
	pool *arena.Pool[uint64]
	rec  Reclaimer
}

func newHarness(kind Kind, maxProcs int) *harness {
	h := &harness{pool: arena.NewPool[uint64](maxProcs)}
	h.pool.DebugChecks = true
	h.rec = New(kind, Config{
		MaxProcs: maxProcs,
		Free:     func(procID int, hd arena.Handle) { h.pool.Free(procID, hd) },
		Era:      h.pool.Era,
	})
	return h
}

func (h *harness) alloc(t Thread, procID int, v uint64) arena.Handle {
	hd := h.pool.Alloc(procID)
	t.OnAlloc(hd)
	*h.pool.Get(hd) = v
	return hd
}

func reclaimKinds() []Kind {
	return []Kind{KindEBR, KindHP, KindHPOpt, KindIBR, KindHE}
}

func TestRetireEventuallyFrees(t *testing.T) {
	for _, k := range reclaimKinds() {
		t.Run(string(k), func(t *testing.T) {
			h := newHarness(k, 4)
			th := h.rec.Attach()
			const n = 2000
			for i := 0; i < n; i++ {
				hd := h.alloc(th, 0, uint64(i))
				th.Retire(hd)
			}
			th.Flush()
			th.Detach()
			if un := h.rec.Unreclaimed(); un != 0 {
				t.Fatalf("Unreclaimed = %d after flush", un)
			}
			if live := h.pool.Live(); live != 0 {
				t.Fatalf("Live = %d after flush", live)
			}
		})
	}
}

func TestNoMMNeverFrees(t *testing.T) {
	h := newHarness(KindNoMM, 2)
	th := h.rec.Attach()
	for i := 0; i < 100; i++ {
		th.Retire(h.alloc(th, 0, uint64(i)))
	}
	th.Flush()
	th.Detach()
	if un := h.rec.Unreclaimed(); un != 100 {
		t.Fatalf("Unreclaimed = %d, want 100", un)
	}
	if live := h.pool.Live(); live != 100 {
		t.Fatalf("Live = %d, want 100", live)
	}
}

// A protected handle must survive any amount of retire pressure; once the
// protection drops, it must be reclaimed.
func TestProtectBlocksReclamation(t *testing.T) {
	for _, k := range reclaimKinds() {
		t.Run(string(k), func(t *testing.T) {
			h := newHarness(k, 4)
			reader := h.rec.Attach()
			writer := h.rec.Attach()

			var cell atomic.Uint64
			target := h.alloc(writer, 1, 42)
			cell.Store(uint64(target))

			reader.Begin()
			got := reader.Protect(0, &cell)
			if got != target {
				t.Fatalf("Protect returned %#x, want %#x", got, target)
			}

			// The writer unlinks and retires the target, then churns far
			// past every scan threshold.
			cell.Store(0)
			writer.Retire(target)
			for i := 0; i < 5000; i++ {
				hd := h.alloc(writer, 1, uint64(i))
				writer.Retire(hd)
			}
			writer.Flush()
			// The protected object must still be alive and intact.
			if !h.pool.IsLive(target) {
				t.Fatal("protected handle was freed")
			}
			if *h.pool.Get(target) != 42 {
				t.Fatal("protected handle corrupted")
			}

			reader.End()
			writer.Flush()
			if h.pool.IsLive(target) {
				t.Fatal("handle not reclaimed after protection dropped")
			}
			reader.Detach()
			writer.Detach()
		})
	}
}

// Marked announcements must still protect the unmarked handle.
func TestProtectWithMarks(t *testing.T) {
	for _, k := range []Kind{KindHP, KindHPOpt} {
		t.Run(string(k), func(t *testing.T) {
			h := newHarness(k, 4)
			reader := h.rec.Attach()
			writer := h.rec.Attach()

			target := h.alloc(writer, 1, 7)
			var cell atomic.Uint64
			cell.Store(uint64(target.SetMark(0))) // marked link

			got := reader.Protect(0, &cell)
			if got.Unmarked() != target {
				t.Fatalf("Protect = %#x, want marked %#x", got, target)
			}
			cell.Store(0)
			writer.Retire(target) // retires the unmarked handle
			for i := 0; i < 5000; i++ {
				writer.Retire(h.alloc(writer, 1, uint64(i)))
			}
			writer.Flush()
			if !h.pool.IsLive(target) {
				t.Fatal("marked announcement failed to protect")
			}
			reader.End()
			writer.Flush()
			if h.pool.IsLive(target) {
				t.Fatal("not reclaimed after release")
			}
			reader.Detach()
			writer.Detach()
		})
	}
}

// Era-based schemes must respect lifetime intervals: a node born after a
// reader's reservation is not protected by it.
func TestEraSchemesFreeYoungNodes(t *testing.T) {
	for _, k := range []Kind{KindIBR, KindHE} {
		t.Run(string(k), func(t *testing.T) {
			h := newHarness(k, 4)
			writer := h.rec.Attach()
			// No readers at all: everything frees.
			for i := 0; i < 3000; i++ {
				writer.Retire(h.alloc(writer, 0, uint64(i)))
			}
			writer.Flush()
			if live := h.pool.Live(); live != 0 {
				t.Fatalf("Live = %d with no readers", live)
			}
			writer.Detach()
		})
	}
}

// Detach must hand pending retirements to the orphanage, and another
// thread's flush must adopt and free them.
func TestOrphanAdoption(t *testing.T) {
	for _, k := range reclaimKinds() {
		t.Run(string(k), func(t *testing.T) {
			h := newHarness(k, 4)
			a := h.rec.Attach()
			for i := 0; i < 50; i++ {
				a.Retire(h.alloc(a, 0, uint64(i)))
			}
			a.Detach() // may or may not free everything itself

			b := h.rec.Attach()
			b.Flush()
			b.Detach()
			if live := h.pool.Live(); live != 0 {
				t.Fatalf("Live = %d after orphan adoption flush", live)
			}
		})
	}
}

// Concurrent stress: readers continuously protect the current cell value;
// a writer continuously replaces and retires. The reader must never
// observe a dead slot while protected. (EBR included: its Begin/End spans
// the check.)
func TestConcurrentProtectRetireStress(t *testing.T) {
	for _, k := range reclaimKinds() {
		t.Run(string(k), func(t *testing.T) {
			h := newHarness(k, 8)
			var cell atomic.Uint64
			var stop atomic.Bool
			var wg sync.WaitGroup

			for r := 0; r < 3; r++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					th := h.rec.Attach()
					defer th.Detach()
					for !stop.Load() {
						th.Begin()
						hd := th.Protect(0, &cell)
						if !hd.IsNil() {
							if !h.pool.IsLive(hd) {
								t.Error("protected handle dead")
								th.End()
								return
							}
							_ = *h.pool.Get(hd)
						}
						th.End()
					}
				}()
			}

			writer := h.rec.Attach()
			for i := 0; i < 30000; i++ {
				hd := h.alloc(writer, 0, uint64(i)+1)
				old := arena.Handle(cell.Swap(uint64(hd)))
				if !old.IsNil() {
					writer.Retire(old)
				}
			}
			if old := arena.Handle(cell.Swap(0)); !old.IsNil() {
				writer.Retire(old)
			}
			stop.Store(true)
			wg.Wait()
			writer.Flush()
			writer.Detach()
			b := h.rec.Attach()
			b.Flush()
			b.Detach()
			if live := h.pool.Live(); live != 0 {
				t.Fatalf("Live = %d at quiescence", live)
			}
		})
	}
}
