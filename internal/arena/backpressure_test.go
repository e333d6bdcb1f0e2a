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

// TestCappedPoolStrandedBlocksReachable: procs processors concurrently
// strand free slots of a capped pool and go quiet. Each allocates three
// blocks and frees 128 + k of them (k < blockSize, different per pid),
// leaving a full spare block, a partial active block of k slots, one
// block on the shared stack and 64 - k live slots. Another processor
// must still allocate until Live() reaches capacity - strandSlack(procs):
// every full block is reachable through the shared stack or the cap-miss
// hand-off of spare blocks (without the hand-off it stops short), and
// only the partial active blocks, which their owners alone may hand
// back, stay out of reach. At its first miss those are the only free
// slots left.
func TestCappedPoolStrandedBlocksReachable(t *testing.T) {
	const procs = 6
	const capSlots = 1280
	p := NewPool[uint64](procs + 1)
	p.DebugChecks = true
	p.SetCapacity(capSlots)
	var wg sync.WaitGroup
	for id := 0; id < procs; id++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			hs := make([]Handle, 0, 3*blockSize)
			for i := 0; i < 3*blockSize; i++ {
				h, err := p.TryAlloc(id)
				if err != nil {
					t.Errorf("pid %d: allocation %d under the cap: %v", id, i, err)
					return
				}
				hs = append(hs, h)
			}
			for _, h := range hs[:2*blockSize+10+8*id] {
				p.Free(id, h)
			}
		}(id)
	}
	wg.Wait()
	for id := 0; id < procs; id++ {
		if got, want := p.FreeLocalPerProc()[id], blockSize+10+8*id; got != want {
			t.Fatalf("setup: pid %d holds %d free slots, want a full spare and %d in its active block", id, got, want-blockSize)
		}
	}

	thief := procs
	floor := int64(capSlots - strandSlack(procs))
	for p.Live() < floor {
		if _, err := p.TryAlloc(thief); err != nil {
			t.Fatalf("miss at Live %d, below capacity %d - slack %d: %v", p.Live(), capSlots, strandSlack(procs), err)
		}
	}
	for {
		if _, err := p.TryAlloc(thief); err != nil {
			break
		}
	}
	st := p.Stats()
	local := p.FreeLocalPerProc()
	stranded := 0
	for id := 0; id < procs; id++ {
		if local[id] != 10+8*id {
			t.Errorf("pid %d holds %d free slots at the miss, want only its partial block of %d", id, local[id], 10+8*id)
		}
		stranded += local[id]
	}
	if st.FreeGlobal != 0 || local[thief] != 0 || int64(stranded)+st.Live != capSlots {
		t.Fatalf("at the miss: %d live + %d in partial blocks (global %d, thief %d), want %d",
			st.Live, stranded, st.FreeGlobal, local[thief], capSlots)
	}
}

// TestCappedPoolHandOffUnderChurn races the cap-miss hand-off against
// owners that park and take back their spares: every processor churns a
// capped pool across block boundaries, so spare cells fill and empty
// while other processors' misses claim them. A block taken twice would
// hand one slot to two processors (a double free or a free-list state
// panic under DebugChecks); a lost one breaks conservation at the end.
func TestCappedPoolHandOffUnderChurn(t *testing.T) {
	const procs = 4
	const capSlots = 6 * blockSize
	p := NewPool[uint64](procs)
	p.DebugChecks = true
	p.SetCapacity(capSlots)
	var wg sync.WaitGroup
	for id := 0; id < procs; id++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			hs := make([]Handle, 0, 3*blockSize)
			for round := 0; round < 300; round++ {
				for len(hs) < 2*blockSize+17*(round%5) {
					h, err := p.TryAlloc(id)
					if err != nil {
						break
					}
					hs = append(hs, h)
				}
				for _, h := range hs {
					p.Free(id, h)
				}
				hs = hs[:0]
			}
		}(id)
	}
	wg.Wait()
	for id := 0; id < procs; id++ {
		p.DrainLocal(id)
	}
	st := p.Stats()
	if st.Live != 0 || st.FreeLocal != 0 || int64(st.FreeGlobal) != int64(st.Slots) || st.Slots != capSlots {
		t.Fatalf("after churn and drain: %+v, want every one of %d slots on the shared stack", st, capSlots)
	}
}
