package arena

import (
	"errors"
	"sync"
	"testing"
)

// walkMagazine counts the slots reachable from m's head, bounded by limit,
// and reports each visited index to visit (which may be nil). The caller
// must own m exclusively.
func walkMagazine[T any](p *Pool[T], m magazine, limit int, visit func(uint64)) int {
	n := 0
	for idx := m.head; idx != 0 && n < limit; idx = p.metaFor(idx).link.Load() & blockIdxMask {
		if visit != nil {
			visit(idx)
		}
		n++
	}
	return n
}

func TestBlockStackPushPopLIFO(t *testing.T) {
	p := NewPool[uint64](1)
	var heads []uint64
	for i := 0; i < 3; i++ {
		m, ok := p.carveBlock()
		if !ok || m.count != blockSize {
			t.Fatalf("carveBlock = %+v, %v", m, ok)
		}
		heads = append(heads, m.head)
		p.pushBlock(m)
	}
	if got := int(p.blocksN.Load()); got != 3*blockSize {
		t.Fatalf("blocksN = %d after 3 pushes, want %d", got, 3*blockSize)
	}
	for i := 2; i >= 0; i-- {
		m, ok := p.popBlock()
		if !ok {
			t.Fatalf("popBlock empty with %d blocks expected", i+1)
		}
		if m.head != heads[i] || m.count != blockSize {
			t.Fatalf("popped {head %d, count %d}, want {head %d, count %d} (LIFO)",
				m.head, m.count, heads[i], blockSize)
		}
		if n := walkMagazine(p, m, m.count+1, nil); n != m.count {
			t.Fatalf("block chain has %d reachable slots, descriptor says %d", n, m.count)
		}
	}
	if _, ok := p.popBlock(); ok {
		t.Fatal("popBlock succeeded on an empty stack")
	}
	if got := p.blocksN.Load(); got != 0 {
		t.Fatalf("blocksN = %d on an empty stack", got)
	}
}

// TestBlockStackConcurrentTransfers hammers the Treiber stack's ABA guard:
// workers race to pop a block, walk its chain while holding exclusive
// ownership, and push it back. A stale-head CAS that wrongly succeeded
// would splice chains together or resurrect a popped block, which the
// per-round chain walks and the final distinct-slot sweep would detect.
func TestBlockStackConcurrentTransfers(t *testing.T) {
	const workers = 8
	const rounds = 5000
	p := NewPool[uint64](workers)
	total := 0
	for i := 0; i < 2*workers; i++ {
		m, ok := p.carveBlock()
		if !ok {
			t.Fatal("carveBlock failed on an unbounded pool")
		}
		total += m.count
		p.pushBlock(m)
	}

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				m, ok := p.popBlock()
				if !ok {
					continue // transiently drained by the other workers
				}
				if n := walkMagazine(p, m, m.count+1, nil); n != m.count {
					t.Errorf("popped block: %d reachable slots, descriptor says %d", n, m.count)
					return
				}
				p.pushBlock(m)
			}
		}()
	}
	wg.Wait()

	if got := int(p.blocksN.Load()); got != total {
		t.Fatalf("blocksN = %d at quiescence, want %d", got, total)
	}
	seen := make(map[uint64]bool, total)
	for {
		m, ok := p.popBlock()
		if !ok {
			break
		}
		walkMagazine(p, m, m.count+1, func(idx uint64) {
			if seen[idx] {
				t.Fatalf("slot %d appears in two blocks", idx)
			}
			seen[idx] = true
		})
	}
	if len(seen) != total {
		t.Fatalf("recovered %d distinct slots from the stack, want %d", len(seen), total)
	}
}

// TestMagazineSpareHysteresis: alloc/free ping-pong across a block
// boundary must bounce between the active and spare magazines without any
// global-stack traffic.
func TestMagazineSpareHysteresis(t *testing.T) {
	p := NewPool[uint64](1)
	var hs []Handle
	for i := 0; i < 2*blockSize; i++ {
		hs = append(hs, p.Alloc(0))
	}
	for _, h := range hs {
		p.Free(0, h)
	}
	global := p.Stats().FreeGlobal
	for i := 0; i < 10*blockSize; i++ {
		h := p.Alloc(0)
		p.Free(0, h)
	}
	if got := p.Stats().FreeGlobal; got != global {
		t.Fatalf("local ping-pong leaked block traffic to the global stack: %d -> %d", global, got)
	}
}

// TestDrainLocalPushesBothMagazines is the abandonment-adoption contract
// at arena level: a dead processor's active AND spare magazines must both
// reach the global stack, leaving nothing stranded, and the drained slots
// must be allocatable by another processor without fresh carving.
func TestDrainLocalPushesBothMagazines(t *testing.T) {
	p := NewPool[uint64](2)
	p.DebugChecks = true
	var hs []Handle
	for i := 0; i < 100; i++ {
		hs = append(hs, p.Alloc(1))
	}
	// Keep 10 live so conservation has a live component; free the rest.
	for _, h := range hs[10:] {
		p.Free(1, h)
	}
	// 90 frees: the first 36 fill the partially consumed active magazine
	// to a full block, which parks as the spare; the remaining 54 land in
	// a fresh active magazine.
	pc := &p.local[1]
	spare := unpackSpare(p.spares[1].Load())
	if spare.count == 0 || pc.active.count == 0 {
		t.Fatalf("setup: want both magazines populated, have active=%d spare=%d",
			pc.active.count, spare.count)
	}
	localBefore := p.FreeLocalPerProc()[1]
	globalBefore := p.Stats().FreeGlobal

	p.DrainLocal(1)

	if got := p.FreeLocalPerProc()[1]; got != 0 {
		t.Fatalf("DrainLocal stranded %d slots in the dead processor's magazines", got)
	}
	st := p.Stats()
	if st.FreeGlobal != globalBefore+localBefore {
		t.Fatalf("global stack gained %d slots, want %d", st.FreeGlobal-globalBefore, localBefore)
	}
	if sum := int64(st.FreeGlobal) + int64(st.FreeLocal); sum+st.Live != int64(st.Slots) {
		t.Fatalf("conservation after drain: %d free + %d live != %d carved", sum, st.Live, st.Slots)
	}
	// Freeze capacity: processor 0 may only recycle, never carve, so every
	// drained slot must be reachable through the global stack.
	p.SetCapacity(st.Slots)
	for i := int64(0); i < int64(st.Slots)-st.Live; i++ {
		if _, err := p.TryAlloc(0); err != nil {
			t.Fatalf("TryAlloc %d/%d after drain: %v", i, int64(st.Slots)-st.Live, err)
		}
	}
	if _, err := p.TryAlloc(0); !errors.Is(err, ErrExhausted) {
		t.Fatalf("pool over-delivered: %v", err)
	}
}

// TestCappedPoolLastBlockFirstAsker: when capacity allows exactly one
// block, whichever processor allocates first owns the whole block (block
// transfer is all-or-nothing), and the loser sees ErrExhausted while the
// winner holds it as a partial active magazine. Only the owner's drain
// republishes a partial block; once the winner's frees complete the block
// it parks as the winner's spare, which the loser's next cap miss claims.
func TestCappedPoolLastBlockFirstAsker(t *testing.T) {
	p := NewPool[uint64](2)
	p.SetCapacity(blockSize)

	h, err := p.TryAlloc(0)
	if err != nil {
		t.Fatalf("first asker failed: %v", err)
	}
	if got := p.FreeLocalPerProc()[0]; got != blockSize-1 {
		t.Fatalf("first asker's magazine holds %d slots, want the whole block minus one (%d)",
			got, blockSize-1)
	}
	if _, err := p.TryAlloc(1); !errors.Is(err, ErrExhausted) {
		t.Fatalf("second processor got %v, want ErrExhausted while the block is privately held", err)
	}
	h2, err := p.TryAlloc(0)
	if err != nil {
		t.Fatalf("winner's second allocation: %v", err)
	}
	p.Free(0, h2)
	if _, err := p.TryAlloc(1); !errors.Is(err, ErrExhausted) {
		t.Fatalf("second processor got %v while the winner holds a partial block", err)
	}
	p.DrainLocal(0)
	h1, err := p.TryAlloc(1)
	if err != nil {
		t.Fatalf("TryAlloc after drain: %v", err)
	}
	// Both slots freed on the second processor complete the block, which
	// parks as its spare; the winner's next cap miss claims it.
	p.Free(1, h1)
	p.Free(1, h)
	if got := unpackSpare(p.spares[1].Load()).count; got != blockSize {
		t.Fatalf("second processor's spare holds %d slots, want a full block", got)
	}
	if _, err := p.TryAlloc(0); err != nil {
		t.Fatalf("cap miss did not claim the other processor's spare block: %v", err)
	}
	if got := p.FreeLocalPerProc(); got[0] != blockSize-1 || got[1] != 0 {
		t.Fatalf("after the hand-off magazines hold %v, want [%d 0]", got, blockSize-1)
	}
}

// TestCrossProcChurnCountsExact: allocation and free counts live on the
// processor that made the call, so a slot allocated on one processor and
// freed on another is counted on both sides. Summed over every processor
// the totals must still be exact: each producer allocates on its own pid
// and hands the slots to a consumer that frees them on another, and after
// every magazine is drained Allocs == Frees == the total and Live is 0.
func TestCrossProcChurnCountsExact(t *testing.T) {
	const pairs = 4
	const perPair = 20000
	p := NewPool[uint64](2 * pairs)
	p.DebugChecks = true
	var wg sync.WaitGroup
	for i := 0; i < pairs; i++ {
		// Two blocks of slack let the producer run ahead, so frees land
		// on the consumer in whole blocks and slots cross processors in
		// both directions through the global stack.
		ch := make(chan Handle, 2*blockSize)
		wg.Add(2)
		go func(id int) {
			defer wg.Done()
			for n := 0; n < perPair; n++ {
				ch <- p.Alloc(id)
			}
			close(ch)
		}(2 * i)
		go func(id int) {
			defer wg.Done()
			for h := range ch {
				p.Free(id, h)
			}
		}(2*i + 1)
	}
	wg.Wait()
	for id := 0; id < 2*pairs; id++ {
		p.DrainLocal(id)
	}
	st := p.Stats()
	if st.Allocs != pairs*perPair || st.Frees != pairs*perPair {
		t.Fatalf("Allocs = %d, Frees = %d, want both %d", st.Allocs, st.Frees, pairs*perPair)
	}
	if live := p.Live(); live != 0 || st.Live != 0 {
		t.Fatalf("Live() = %d, Stats().Live = %d at quiescence, want 0", live, st.Live)
	}
	if st.FreeLocal != 0 || int64(st.FreeGlobal) != int64(st.Slots) {
		t.Fatalf("after draining every pid: FreeLocal = %d, FreeGlobal = %d, Slots = %d",
			st.FreeLocal, st.FreeGlobal, st.Slots)
	}
}
