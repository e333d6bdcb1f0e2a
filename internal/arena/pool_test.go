package arena

import (
	"sync"
	"testing"
)

type payload struct {
	A, B uint64
}

func TestAllocGetFree(t *testing.T) {
	p := NewPool[payload](4)
	p.DebugChecks = true
	h := p.Alloc(0)
	if h.IsNil() {
		t.Fatal("Alloc returned nil handle")
	}
	v := p.Get(h)
	if v.A != 0 || v.B != 0 {
		t.Fatalf("fresh slot not zeroed: %+v", *v)
	}
	v.A = 42
	if p.Get(h).A != 42 {
		t.Fatal("value did not persist")
	}
	p.Free(0, h)
	if got := p.Live(); got != 0 {
		t.Fatalf("Live = %d, want 0", got)
	}
}

func TestAllocZeroesRecycledSlot(t *testing.T) {
	p := NewPool[payload](1)
	h := p.Alloc(0)
	p.Get(h).A = 99
	p.Hdr(h).RefCount.Store(7)
	p.Free(0, h)
	h2 := p.Alloc(0) // must recycle from the local free list
	if h2.Unmarked() != h.Unmarked() {
		t.Fatalf("expected recycled handle %#x, got %#x", uint64(h), uint64(h2))
	}
	if got := p.Get(h2).A; got != 0 {
		t.Fatalf("recycled slot value not zeroed: %d", got)
	}
	if got := p.Hdr(h2).RefCount.Load(); got != 0 {
		t.Fatalf("recycled slot refcount not zeroed: %d", got)
	}
}

func TestDoubleFreePanics(t *testing.T) {
	p := NewPool[payload](1)
	h := p.Alloc(0)
	p.Free(0, h)
	mustPanic(t, "Pool double free", func() { p.Free(0, h) })

	s := NewSlabs[[16]byte](PoolOpts{MaxProcs: 1})
	hs := s.Alloc(0)
	s.Free(0, hs)
	mustPanic(t, "Slabs double free", func() { s.Free(0, hs) })
}

func TestUseAfterFreePanicsWithChecks(t *testing.T) {
	p := NewPool[payload](1)
	p.DebugChecks = true
	h := p.Alloc(0)
	p.Free(0, h)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on checked use-after-free")
		}
	}()
	_ = p.Get(h)
}

func TestGetNilPanics(t *testing.T) {
	p := NewPool[payload](1)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on Get(Nil)")
		}
	}()
	_ = p.Get(Nil)
}

func TestGetClearsMarks(t *testing.T) {
	p := NewPool[payload](1)
	h := p.Alloc(0)
	p.Get(h).A = 5
	if got := p.Get(h.SetMark(0)).A; got != 5 {
		t.Fatalf("marked Get returned %d, want 5", got)
	}
	p.Hdr(h).RefCount.Store(3)
	if got := p.Hdr(h.SetMark(2)).RefCount.Load(); got != 3 {
		t.Fatalf("marked Hdr returned %d, want 3", got)
	}
}

func TestStatsAccounting(t *testing.T) {
	p := NewPool[payload](2)
	var hs []Handle
	for i := 0; i < 100; i++ {
		hs = append(hs, p.Alloc(i%2))
	}
	for _, h := range hs[:40] {
		p.Free(1, h)
	}
	st := p.Stats()
	if st.Allocs != 100 || st.Frees != 40 || st.Live != 60 {
		t.Fatalf("Stats = %+v", st)
	}
}

// growthSlots is enough slots to run p through its whole carving ramp
// (chunks of 64, 128, ... up to the full chunk) and then past two full
// chunks, ending 17 slots into a third.
func growthSlots[T any](p *Pool[T]) int {
	full := 1 << p.chunkShift
	return (2*full - blockSize) + 2*full + 17
}

func TestHandlesAreDistinctWhileLive(t *testing.T) {
	p := NewPool[payload](1)
	seen := map[Handle]bool{}
	for i := 0; i < growthSlots(p); i++ {
		h := p.Alloc(0)
		if seen[h] {
			t.Fatalf("duplicate live handle %#x", uint64(h))
		}
		seen[h] = true
	}
}

func TestCrossChunkGrowth(t *testing.T) {
	p := NewPool[uint64](1)
	p.DebugChecks = true
	n := growthSlots(p)
	hs := make([]Handle, n)
	for i := range hs {
		hs[i] = p.Alloc(0)
		*p.Get(hs[i]) = uint64(i)
	}
	for i, h := range hs {
		if got := *p.Get(h); got != uint64(i) {
			t.Fatalf("slot %d: got %d", i, got)
		}
	}
	if st := p.Stats(); st.Slots < uint64(n) || st.Slots >= uint64(n+blockSize) {
		t.Fatalf("Slots = %d, want the %d allocated rounded up to a block", st.Slots, n)
	}
}

func TestFreeOnOtherProcessorsList(t *testing.T) {
	p := NewPool[payload](2)
	h := p.Alloc(0)
	p.Free(1, h) // freed onto processor 1's list
	h2 := p.Alloc(1)
	if h2.Unmarked() != h.Unmarked() {
		t.Fatalf("processor 1 did not recycle the freed slot")
	}
}

func TestFlushToGlobalAndRefill(t *testing.T) {
	p := NewPool[payload](2)
	// Allocate and free enough on processor 0 to overflow its two
	// magazines and push full blocks onto the global stack.
	var hs []Handle
	for i := 0; i < 4*blockSize; i++ {
		hs = append(hs, p.Alloc(0))
	}
	for _, h := range hs {
		p.Free(0, h)
	}
	if st := p.Stats(); st.FreeGlobal == 0 {
		t.Fatalf("no blocks reached the global stack: %+v", st)
	}
	// Processor 1 should be able to pop recycled blocks from the global
	// stack rather than carving fresh capacity.
	before := p.Stats().Slots
	for i := 0; i < blockSize; i++ {
		p.Alloc(1)
	}
	if after := p.Stats().Slots; after != before {
		t.Fatalf("Alloc carved fresh slots (%d -> %d) despite recycled capacity", before, after)
	}
}

func TestConcurrentAllocFree(t *testing.T) {
	const procs = 8
	const iters = 5000
	p := NewPool[payload](procs)
	p.DebugChecks = true
	var wg sync.WaitGroup
	for w := 0; w < procs; w++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			local := make([]Handle, 0, 16)
			for i := 0; i < iters; i++ {
				h := p.Alloc(id)
				p.Get(h).A = uint64(id)
				local = append(local, h)
				if len(local) == cap(local) {
					for _, lh := range local {
						if got := p.Get(lh).A; got != uint64(id) {
							t.Errorf("slot stomped: got %d want %d", got, id)
							return
						}
						p.Free(id, lh)
					}
					local = local[:0]
				}
			}
			for _, lh := range local {
				p.Free(id, lh)
			}
		}(w)
	}
	wg.Wait()
	if got := p.Live(); got != 0 {
		t.Fatalf("Live = %d at quiescence", got)
	}
}

// TestAllocFreeMagazineHitZeroAlloc pins the magazine fast path's
// zero-allocation claim (ISSUE: AllocsPerRun instead of -benchmem):
// once a processor's magazines are warm, an Alloc/Free pair touches only
// the private magazine pair and the slot header — no Go-heap allocation.
func TestAllocFreeMagazineHitZeroAlloc(t *testing.T) {
	p := NewPool[payload](2)
	// Warm: carve enough capacity that both magazines recycle, then park
	// everything back on the local free lists.
	warm := make([]Handle, 0, 3*blockSize)
	for i := 0; i < cap(warm); i++ {
		warm = append(warm, p.Alloc(0))
	}
	for _, h := range warm {
		p.Free(0, h)
	}
	allocs := testing.AllocsPerRun(100, func() {
		for i := 0; i < 64; i++ {
			h := p.Alloc(0)
			p.Get(h).A = uint64(i)
			p.Free(0, h)
		}
	})
	if allocs != 0 {
		t.Fatalf("magazine-hit Alloc/Free allocated %.2f per run, want 0", allocs)
	}
}
