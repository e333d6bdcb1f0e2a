package splitrc

import (
	"sync"
	"testing"
	"testing/quick"

	"cdrc/internal/arena"
)

// Property: word packing round-trips for every representable pair.
func TestPackUnpackProperty(t *testing.T) {
	f := func(ext uint32, idx uint64) bool {
		e := uint64(ext) & (1<<20 - 1)
		h := arena.FromIndex(idx & (1<<40 - 1)) // leave room for mark bits
		w := pack(e, h)
		return extOf(w) == e && handleOf(w) == h
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPackOverflowPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on oversized handle")
		}
	}()
	pack(0, arena.Handle(1<<45))
}

// Property: adding external units never changes the handle.
func TestExtUnitArithmeticProperty(t *testing.T) {
	f := func(idx uint64, bumps uint8) bool {
		h := arena.FromIndex(idx & (1<<40 - 1))
		w := pack(0, h)
		for i := uint8(0); i < bumps; i++ {
			w += extUnit
		}
		return handleOf(w) == h && extOf(w) == uint64(bumps)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Protocol invariant at quiescence: after any single-threaded sequence of
// loads and stores, every object's internal count equals the number of
// cells holding it, and dropping all cells frees everything.
func TestSequentialAccounting(t *testing.T) {
	s := NewFolly(2)
	s.EnableDebugChecks()
	s.Setup(4)
	th := s.Attach()
	for i := 0; i < 1000; i++ {
		th.Store(i%4, uint64(i)|1)
		if v := th.Load(i % 4); v != uint64(i)|1 {
			t.Fatalf("Load = %d, want %d", v, uint64(i)|1)
		}
	}
	if live := s.Live(); live != 4 {
		t.Fatalf("Live = %d, want 4 (one per cell)", live)
	}
	th.Detach()
	s.Teardown()
	if live := s.Live(); live != 0 {
		t.Fatalf("Live = %d after teardown", live)
	}
}

// TestConcurrentLoadStoreNoEarlyFree pins the pre-paid batch protocol
// under contention: loaders on few cells race writers swapping them out.
// The count must never reach zero while a reader holds the object
// (DebugChecks turns that into a use-after-free or double-free panic), and
// teardown must free everything. A reader that took a durable unit and
// then gave its pin back could land the give-back before the writer's
// transfer of outstanding pins and free a live object.
func TestConcurrentLoadStoreNoEarlyFree(t *testing.T) {
	for _, mk := range []func(int) *Scheme{NewFolly, NewJustThread} {
		for round := 0; round < 20; round++ {
			s := mk(8)
			s.EnableDebugChecks()
			s.Setup(10)
			th := s.Attach()
			for i := 0; i < 10; i++ {
				th.Store(i, uint64(i)|1)
			}
			th.Detach()
			var wg sync.WaitGroup
			for w := 0; w < 4; w++ {
				wg.Add(1)
				go func(id int) {
					defer wg.Done()
					th := s.Attach()
					defer th.Detach()
					r := uint64(id)*0x9E3779B97F4A7C15 + uint64(round)
					for k := 0; k < 2000; k++ {
						r = r*6364136223846793005 + 1442695040888963407
						i := int(r>>40) % 10
						if (r>>20)%100 < 30 {
							th.Store(i, r|1)
						} else if v := th.Load(i); v&1 == 0 {
							t.Errorf("Load(%d) = %#x: not a stored value", i, v)
							return
						}
					}
				}(w)
			}
			wg.Wait()
			if live := s.Live(); live != 10 {
				t.Fatalf("%s round %d: Live = %d at quiescence, want 10 (one per cell)", s.Name(), round, live)
			}
			s.Teardown()
			if live := s.Live(); live != 0 {
				t.Fatalf("%s round %d: Live = %d after teardown", s.Name(), round, live)
			}
		}
	}
}

// TestBatchRefillAccounting drives one cell's batch through several
// refills with concurrent loaders and checks the exact invariant at
// quiescence: the object's internal count is the cell's untaken batch.
func TestBatchRefillAccounting(t *testing.T) {
	s := NewFolly(4)
	s.EnableDebugChecks()
	s.Setup(1)
	th := s.Attach()
	th.Store(0, 7)
	th.Detach()
	var wg sync.WaitGroup
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			th := s.Attach()
			defer th.Detach()
			for k := 0; k < refillAt; k++ {
				if v := th.Load(0); v != 7 {
					t.Errorf("Load = %d, want 7", v)
					return
				}
			}
		}()
	}
	wg.Wait()
	w := s.cells[0].w.Load()
	if got, want := s.objs.Hdr(handleOf(w)).RefCount.Load(), int64(cellBatch-extOf(w)); got != want {
		t.Fatalf("internal count %d, want untaken batch %d (ext %d)", got, want, extOf(w))
	}
	if extOf(w) >= refillAt {
		t.Fatalf("ext %d not below refillAt %d after 3x refillAt loads", extOf(w), refillAt)
	}
	s.Teardown()
	if live := s.Live(); live != 0 {
		t.Fatalf("Live = %d after teardown", live)
	}
}
