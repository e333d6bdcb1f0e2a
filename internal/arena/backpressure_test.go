package arena

import (
	"errors"
	"sync"
	"testing"

	"cdrc/internal/chaos"
)

func TestTryAllocExhaustsAtCapacity(t *testing.T) {
	p := NewPool[uint64](2)
	p.DebugChecks = true
	p.SetCapacity(100)

	var got []Handle
	for {
		h, err := p.TryAlloc(0)
		if err != nil {
			if !errors.Is(err, ErrExhausted) {
				t.Fatalf("TryAlloc failed with %v, want ErrExhausted", err)
			}
			break
		}
		got = append(got, h)
	}
	if len(got) != 100 {
		t.Fatalf("allocated %d slots under a 100-slot cap", len(got))
	}
	if st := p.Stats(); st.Slots != 100 || st.Capacity != 100 {
		t.Fatalf("Stats = %+v, want Slots=100 Capacity=100", st)
	}

	// Recycling restores allocability without growing the pool.
	p.Free(0, got[0])
	h, err := p.TryAlloc(0)
	if err != nil {
		t.Fatalf("TryAlloc after Free: %v", err)
	}
	if h != got[0] {
		t.Fatalf("recycled handle %#x, want %#x (LIFO reuse)", uint64(h), uint64(got[0]))
	}
	if st := p.Stats(); st.Slots != 100 {
		t.Fatalf("recycling grew the pool: %d slots", st.Slots)
	}
}

func TestAllocPanicsAtCapacity(t *testing.T) {
	p := NewPool[uint64](1)
	p.SetCapacity(10)
	for i := 0; i < 10; i++ {
		p.Alloc(0)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Alloc beyond capacity did not panic")
		}
	}()
	p.Alloc(0)
}

func TestStatsOccupancy(t *testing.T) {
	p := NewPool[uint64](3)
	p.DebugChecks = true

	var hs []Handle
	for i := 0; i < 200; i++ {
		hs = append(hs, p.Alloc(1))
	}
	for _, h := range hs {
		p.Free(1, h)
	}
	st := p.Stats()
	if st.Live != 0 {
		t.Fatalf("Live = %d at quiescence", st.Live)
	}
	perProc := p.FreeLocalPerProc()
	if len(perProc) != 3 {
		t.Fatalf("FreeLocalPerProc has %d shards, want 3", len(perProc))
	}
	// Conservation: every carved slot is live, in a magazine, or global.
	sum := int64(st.FreeGlobal) + int64(st.FreeLocal)
	if sum+st.Live != int64(st.Slots) {
		t.Fatalf("slot conservation violated: %d free + %d live != %d carved", sum, st.Live, st.Slots)
	}
	perSum := 0
	for _, n := range perProc {
		perSum += n
	}
	if perSum != st.FreeLocal {
		t.Fatalf("FreeLocal %d != summed per-proc occupancy %d", st.FreeLocal, perSum)
	}
	if perProc[1] == 0 {
		t.Fatal("shard 1 freed 200 slots but reports empty magazines")
	}
}

// TestRecyclingNeverResurrectsLiveHeader hammers alloc/free recycling
// across processors and checks that no slot ever reaches the free list
// while its header is live (takeSlot panics on that corruption) and that
// poisoned slots are always re-armed before reuse.
func TestRecyclingNeverResurrectsLiveHeader(t *testing.T) {
	const procs = 4
	p := NewPool[uint64](procs)
	p.DebugChecks = true
	p.SetCapacity(256) // small cap forces heavy recycling

	var wg sync.WaitGroup
	for w := 0; w < procs; w++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			var held []Handle
			for i := 0; i < 20000; i++ {
				if len(held) < 32 {
					if h, err := p.TryAlloc(id); err == nil {
						if !p.IsLive(h) {
							panic("freshly allocated header not live")
						}
						*p.Get(h) = uint64(h)
						held = append(held, h)
						continue
					}
				}
				if len(held) > 0 {
					h := held[len(held)-1]
					held = held[:len(held)-1]
					if got := *p.Get(h); got != uint64(h) {
						panic("slot payload clobbered while live")
					}
					p.Free(id, h)
				}
			}
			for _, h := range held {
				p.Free(id, h)
			}
		}(w)
	}
	wg.Wait()

	st := p.Stats()
	if st.Live != 0 {
		t.Fatalf("leaked %d slots", st.Live)
	}
	if sum := int64(st.FreeGlobal) + int64(st.FreeLocal); sum != int64(st.Slots) {
		t.Fatalf("conservation at quiescence: %d free != %d carved", sum, st.Slots)
	}
}

func TestDrainLocalMovesShardToGlobal(t *testing.T) {
	p := NewPool[uint64](2)
	var hs []Handle
	for i := 0; i < 50; i++ {
		hs = append(hs, p.Alloc(1))
	}
	for _, h := range hs {
		p.Free(1, h)
	}
	before := p.Stats()
	beforeLocal := p.FreeLocalPerProc()[1]
	if beforeLocal == 0 {
		t.Fatal("shard 1 unexpectedly empty before drain")
	}
	p.DrainLocal(1)
	after := p.Stats()
	if got := p.FreeLocalPerProc()[1]; got != 0 {
		t.Fatalf("DrainLocal left %d slots on shard 1", got)
	}
	if after.FreeGlobal != before.FreeGlobal+beforeLocal {
		t.Fatalf("global stack gained %d, want %d", after.FreeGlobal-before.FreeGlobal, beforeLocal)
	}
	// Another processor can allocate the drained slots.
	if _, err := p.TryAlloc(0); err != nil {
		t.Fatalf("TryAlloc after drain: %v", err)
	}
}

// TestChaosShuffleKeepsConservation enables the refill-shuffle and
// forced-failure faults and verifies the free lists stay sound: every
// TryAlloc either succeeds with a live header or fails with ErrExhausted,
// and conservation holds at quiescence.
func TestChaosShuffleKeepsConservation(t *testing.T) {
	chaos.Enable(chaos.Config{Seed: 11, Faults: map[string]chaos.Fault{
		"arena.refill": {Every: 2},
		"arena.alloc":  {Prob: 0.05, Fail: true},
		"arena.free":   {Prob: 0.05, Yields: 1},
	}})
	defer chaos.Disable()

	p := NewPool[uint64](2)
	p.DebugChecks = true
	p.SetCapacity(128)

	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			var held []Handle
			for i := 0; i < 10000; i++ {
				if i%2 == 0 {
					h, err := p.TryAlloc(id)
					if err == nil {
						held = append(held, h)
					} else if !errors.Is(err, ErrExhausted) {
						panic(err)
					}
				} else if len(held) > 0 {
					p.Free(id, held[len(held)-1])
					held = held[:len(held)-1]
				}
			}
			for _, h := range held {
				p.Free(id, h)
			}
		}(w)
	}
	wg.Wait()

	st := p.Stats()
	if st.Live != 0 {
		t.Fatalf("leaked %d slots under chaos", st.Live)
	}
	if sum := int64(st.FreeGlobal) + int64(st.FreeLocal); sum != int64(st.Slots) {
		t.Fatalf("conservation under chaos: %d free != %d carved", sum, st.Slots)
	}
}
