package arena

import (
	"testing"
	"unsafe"
)

// The header holds the strong count, an 8-byte pad and the weak count
// (24 bytes), so a 40-byte record and its counts fill exactly one 64-byte
// slot: one cache line whenever the chunk is line-aligned. The
// ArenaChurn gate in check.sh guards the behavioural half; this test pins
// the layout itself so an innocent-looking field change cannot shrink the
// header or push a record over a line.
func TestHeaderLayout(t *testing.T) {
	var h Header
	if got := unsafe.Sizeof(h); got != 24 {
		t.Fatalf("Header size = %d bytes, want 24 (two count words and a pad)", got)
	}
	refOff, weakOff := unsafe.Offsetof(h.RefCount), unsafe.Offsetof(h.WeakCount)
	if refOff != 0 || weakOff != 16 {
		t.Fatalf("RefCount at offset %d, WeakCount at %d: want 0 and 16 around the pad", refOff, weakOff)
	}
	type record struct{ a, b, c, d, e uint64 }
	if got := unsafe.Sizeof(counted[record]{}); got != 64 {
		t.Fatalf("counted 40 B record = %d bytes, want 64", got)
	}
}

// TestSideTableLayout pins the allocator's side table at 16 bytes a slot
// and a headerless slot at exactly its value's size: a 64 B slab takes 64
// bytes in its chunk, adjacent slabs 64 bytes apart.
func TestSideTableLayout(t *testing.T) {
	if got := unsafe.Sizeof(slotMeta{}); got != 16 {
		t.Fatalf("side-table entry = %d bytes, want 16", got)
	}
	p := NewSlabs[[64]byte](PoolOpts{MaxProcs: 1})
	// The first block ends in chunk 1's first index (chunk 0 holds 64
	// slots and index 0 is reserved), so compare the next two handles.
	first, a, b := p.Alloc(0), p.Alloc(0), p.Alloc(0)
	if got := unsafe.Sizeof((*p.chunks.Load())[0].slots[0]); got != 64 {
		t.Fatalf("Slabs[[64]byte] slot = %d bytes, want 64", got)
	}
	pa, pb := uintptr(unsafe.Pointer(p.Get(a))), uintptr(unsafe.Pointer(p.Get(b)))
	if d := int(pb) - int(pa); d != 64 && d != -64 {
		t.Fatalf("adjacent slabs %d bytes apart, want 64", d)
	}
	if got := slotBytes[[64]byte](); got != 80 {
		t.Fatalf("a 64 B slab costs %d bytes with its side-table entry, want 80", got)
	}
	p.Free(0, first)
	p.Free(0, a)
	p.Free(0, b)
}

// mustPanic runs f and fails the test unless it panics.
func mustPanic(t *testing.T, what string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatalf("%s did not panic", what)
		}
	}()
	f()
}

// TestDebugGetOfFreedSlotPanics: with DebugChecks, reading a freed slot
// through Get panics on both pool kinds, and so does reaching a freed
// slot's era word (it aliases the block descriptor), while Hdr still
// reads a freed counted slot's header and the freed payload stays in
// place.
func TestDebugGetOfFreedSlotPanics(t *testing.T) {
	p := NewPool[payload](1)
	p.DebugChecks = true
	h := p.Alloc(0)
	p.Get(h).A = 7
	p.Hdr(h).RefCount.Store(5)
	v := p.Get(h)
	p.Free(0, h)
	mustPanic(t, "Pool Get of a freed slot", func() { p.Get(h) })
	mustPanic(t, "Pool Era of a freed slot", func() { p.Era(h) })
	if got := p.Hdr(h).RefCount.Load(); got != 5 {
		t.Fatalf("Hdr of a freed slot read %d, want the stale 5", got)
	}
	if v.A != 7 {
		t.Fatalf("freed payload was overwritten: %d", v.A)
	}

	s := NewSlabs[[32]byte](PoolOpts{MaxProcs: 1})
	s.DebugChecks = true
	hs := s.Alloc(0)
	s.Get(hs)[0] = 1
	s.Free(0, hs)
	mustPanic(t, "Slabs Get of a freed slot", func() { s.Get(hs) })
}

// TestIsLiveTracksAllocFree checks IsLive across a slot's alloc, free
// and recycle, on both pool kinds, and for never-carved indices.
func TestIsLiveTracksAllocFree(t *testing.T) {
	p := NewPool[payload](1)
	s := NewSlabs[[64]byte](PoolOpts{MaxProcs: 1})
	check := func(name string, alloc func() Handle, free func(Handle), live func(Handle) bool, next func() Handle) {
		t.Helper()
		h := alloc()
		if !live(h) {
			t.Fatalf("%s: allocated slot not live", name)
		}
		if live(next()) {
			t.Fatalf("%s: carved but unallocated slot reads live", name)
		}
		free(h)
		if live(h) {
			t.Fatalf("%s: freed slot still live", name)
		}
		if h2 := alloc(); h2 != h || !live(h2) {
			t.Fatalf("%s: recycled slot %#x (want %#x) live=%v", name, uint64(h2), uint64(h), live(h2))
		}
	}
	check("Pool", func() Handle { return p.Alloc(0) }, func(h Handle) { p.Free(0, h) }, p.IsLive,
		func() Handle { return FromIndex(p.local[0].active.head) })
	check("Slabs", func() Handle { return s.Alloc(0) }, func(h Handle) { s.Free(0, h) }, s.IsLive,
		func() Handle { return FromIndex(s.local[0].active.head) })
	if p.IsLive(Nil) {
		t.Fatal("the reserved index 0 reads live")
	}
}

// TestEraZeroedOnAlloc: the era word shares storage with the block
// descriptor, so every allocation must hand it out zeroed, whether the
// slot's last life stamped an era or the slot headed a block on the
// global stack.
func TestEraZeroedOnAlloc(t *testing.T) {
	p := NewPool[payload](2)
	h := p.Alloc(0)
	p.Era(h).Store(42)
	p.Free(0, h)
	if h2 := p.Alloc(0); h2 != h || p.Era(h2).Load() != 0 {
		t.Fatalf("recycled slot %#x has era %d", uint64(h2), p.Era(h2).Load())
	}
	// Push a whole block through the global stack: its head slot's aux
	// word holds the block descriptor when processor 1 pops it.
	var hs []Handle
	for i := 0; i < 3*blockSize; i++ {
		hs = append(hs, p.Alloc(0))
	}
	for _, x := range hs {
		p.Free(0, x)
	}
	if p.Stats().FreeGlobal == 0 {
		t.Fatal("setup: no block reached the global stack")
	}
	for i := 0; i < blockSize; i++ {
		x := p.Alloc(1)
		if e := p.Era(x).Load(); e != 0 {
			t.Fatalf("slot %#x popped from the global stack has era %#x", uint64(x), e)
		}
	}
}
