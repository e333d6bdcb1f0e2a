package arena

import (
	"errors"
	"testing"
)

// chunkLens returns the slot count of every chunk p has made so far.
func chunkLens[T any](p *Pool[T]) []int {
	var out []int
	for _, c := range *p.chunks.Load() {
		out = append(out, len(c.slots))
	}
	return out
}

// TestChunkShiftDerivedFromSlotSize pins the one chunk-size rule: a full
// chunk is the largest power of two of slots that fits in about 1 MiB,
// side-table entries included, and never less than one block.
func TestChunkShiftDerivedFromSlotSize(t *testing.T) {
	check := func(name string, got uint, size uint64) {
		t.Helper()
		full := uint64(1) << got
		if got < blockShift {
			t.Fatalf("%s: chunkShift %d is below one block", name, got)
		}
		if got > blockShift && full*size > fullChunkBytes {
			t.Fatalf("%s: full chunk of %d x %d B exceeds %d B", name, full, size, fullChunkBytes)
		}
		if 2*full*size <= fullChunkBytes {
			t.Fatalf("%s: chunkShift %d leaves a full chunk under half of %d B", name, got, fullChunkBytes)
		}
	}
	check("payload", chunkShiftFor[counted[payload]](), slotBytes[counted[payload]]())
	check("[256]byte", chunkShiftFor[counted[[256]byte]](), slotBytes[counted[[256]byte]]())
	check("[4096]byte slab", chunkShiftFor[[4096]byte](), slotBytes[[4096]byte]())
	if got := chunkShiftFor[[1 << 16]byte](); got != blockShift {
		t.Fatalf("64 KiB slots: chunkShift %d, want one block (%d)", got, blockShift)
	}
}

// TestChunkRamp checks that chunk k holds min(64<<k, full) slots: the
// pool's slab memory starts at one block and doubles up to the full
// chunk, then stays there.
func TestChunkRamp(t *testing.T) {
	p := NewPool[payload](1)
	full := 1 << p.chunkShift
	for i := 0; i < growthSlots(p); i++ {
		p.Alloc(0)
	}
	lens := chunkLens(p)
	if len(lens) < int(p.chunkShift-blockShift)+3 {
		t.Fatalf("only %d chunks after %d slots: %v", len(lens), growthSlots(p), lens)
	}
	for k, n := range lens {
		want := min(blockSize<<k, full)
		if n != want {
			t.Fatalf("chunk %d holds %d slots, want %d (all chunks: %v)", k, n, want, lens)
		}
	}
}

// TestCarveSkipsShortChunkTail checks that a carve crossing a short
// chunk's end resumes at the next chunk's first index, and that every
// carved handle stays addressable under DebugChecks.
func TestCarveSkipsShortChunkTail(t *testing.T) {
	p := NewPool[payload](1)
	p.DebugChecks = true
	// The first block takes indices 1..63 (chunk 0 holds 64 slots, index
	// 0 is reserved) and then the first index of chunk 1.
	var hs []Handle
	for i := 0; i < 3*blockSize; i++ {
		h := p.Alloc(0)
		p.Get(h).A = uint64(i)
		hs = append(hs, h)
	}
	var chunk1 bool
	for _, h := range hs {
		idx := h.Index()
		k := idx >> p.chunkShift
		if off := idx & p.chunkMask; off >= uint64(len((*p.chunks.Load())[k].slots)) {
			t.Fatalf("handle index %d lies past chunk %d's %d slots", idx, k, off)
		}
		if idx == 1<<p.chunkShift {
			chunk1 = true
		}
		if idx > blockSize-1 && idx < 1<<p.chunkShift {
			t.Fatalf("carved index %d inside chunk 0's unused range", idx)
		}
	}
	if !chunk1 {
		t.Fatalf("no handle at chunk 1's first index %d", 1<<p.chunkShift)
	}
	for i, h := range hs {
		if got := p.Get(h).A; got != uint64(i) {
			t.Fatalf("handle %d: got %d", i, got)
		}
		p.Free(0, h)
	}
	if p.Live() != 0 {
		t.Fatalf("Live = %d", p.Live())
	}
}

// TestStatsSlotsCountsCarved checks that Stats.Slots counts carved
// slots, not the highest index: the skipped tails of short chunks are
// never carved and never counted.
func TestStatsSlotsCountsCarved(t *testing.T) {
	p := NewPool[payload](1)
	for i := 1; i <= growthSlots(p); i++ {
		p.Alloc(0)
		want := uint64((i + blockSize - 1) / blockSize * blockSize)
		if st := p.Stats(); st.Slots != want {
			t.Fatalf("after %d allocs Slots = %d, want %d", i, st.Slots, want)
		}
	}
	st := p.Stats()
	if int64(st.FreeLocal+st.FreeGlobal)+st.Live != int64(st.Slots) {
		t.Fatalf("conservation: %d free + %d live != %d carved", st.FreeLocal+st.FreeGlobal, st.Live, st.Slots)
	}
	if p.nextFresh-1 == st.Slots {
		t.Fatalf("nextFresh-1 == Slots == %d: the ramp skipped no index", st.Slots)
	}
}

// TestCappedPoolSlotMemory checks that the chunk clamp keeps a capped
// pool's slab memory at its cap: 4,096 slots of 296 B (a 24 B header, a
// 256 B value and a 16 B side-table entry) allocate no more than the cap
// plus one block of slots.
func TestCappedPoolSlotMemory(t *testing.T) {
	const capSlots = 4096
	p := NewPool[[256]byte](1)
	p.SetCapacity(capSlots)
	n := 0
	for {
		if _, err := p.TryAlloc(0); err != nil {
			if !errors.Is(err, ErrExhausted) {
				t.Fatal(err)
			}
			break
		}
		n++
	}
	if n != capSlots {
		t.Fatalf("allocated %d slots under a cap of %d", n, capSlots)
	}
	total := 0
	for _, l := range chunkLens(p) {
		total += l
	}
	size := int(slotBytes[counted[[256]byte]]())
	if total*size > (capSlots+blockSize)*size {
		t.Fatalf("capped pool made %d slots (%d B) for a cap of %d; chunks %v", total, total*size, capSlots, chunkLens(p))
	}
	// Raising the cap resumes carving past the clamped chunk's end.
	p.SetCapacity(capSlots + blockSize)
	if _, err := p.TryAlloc(0); err != nil {
		t.Fatalf("TryAlloc after raising the cap: %v", err)
	}
	if st := p.Stats(); st.Slots != capSlots+blockSize {
		t.Fatalf("Slots = %d after raising the cap, want %d", st.Slots, capSlots+blockSize)
	}
}
