package vals

import (
	"bytes"
	"errors"
	"testing"
	"unsafe"

	"cdrc/internal/arena"
)

func mkval(n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(i*131 + n)
	}
	return b
}

func TestRoundTripAllSizes(t *testing.T) {
	p := New(Config{MaxProcs: 2, DebugChecks: true})
	sizes := []int{0, 1, 15, 16, 17, 32, 100, 256, 1000, 4095, 4096,
		4097, 8192, 10000, 100000, MaxLen}
	for _, n := range sizes {
		v := mkval(n)
		ref, err := p.TryPut(0, v)
		if err != nil {
			t.Fatalf("TryPut(%d bytes): %v", n, err)
		}
		if got := Len(ref); got != n {
			t.Fatalf("Len(ref) = %d, want %d", got, n)
		}
		if n == 0 && ref != 0 {
			t.Fatalf("empty value allocated ref %#x", ref)
		}
		if n > 0 && !IsRef(ref) {
			t.Fatalf("ref %#x missing tag", ref)
		}
		got := p.AppendTo(nil, ref)
		if !bytes.Equal(got, v) {
			t.Fatalf("round trip of %d bytes: got %d bytes, mismatch", n, len(got))
		}
		p.Free(1, ref) // cross-processor free must be legal
	}
	if live := p.Live(); live != 0 {
		t.Fatalf("Live = %d after freeing everything", live)
	}
}

func TestClassOf(t *testing.T) {
	cases := map[int]int{0: 0, 1: 0, 16: 0, 17: 1, 32: 1, 33: 2, 64: 2,
		4096: 8, 4097: NumClasses}
	for n, want := range cases {
		if got := ClassOf(n); got != want {
			t.Fatalf("ClassOf(%d) = %d, want %d", n, got, want)
		}
	}
}

func TestRefsAreNeverHandles(t *testing.T) {
	p := New(Config{MaxProcs: 1})
	ref, _ := p.TryPut(0, mkval(100))
	if ref&7 != 0 {
		t.Fatalf("ref %#x has low mark bits set", ref)
	}
	if arena.Handle(ref).Unmarked() != arena.Handle(ref) {
		t.Fatalf("normalizer is not identity on ref %#x", ref)
	}
	if !IsRef(ref) || IsRef(uint64(arena.FromIndex(1<<40-1))) {
		t.Fatalf("tag discrimination failed")
	}
	p.Free(0, ref)
}

func TestCapacityBackpressure(t *testing.T) {
	p := New(Config{MaxProcs: 1, Capacity: 64})
	refs := make([]uint64, 0, 64)
	for i := 0; i < 64; i++ {
		ref, err := p.TryPut(0, mkval(64))
		if err != nil {
			t.Fatalf("put %d under cap: %v", i, err)
		}
		refs = append(refs, ref)
	}
	if _, err := p.TryPut(0, mkval(64)); !errors.Is(err, arena.ErrExhausted) {
		t.Fatalf("expected ErrExhausted, got %v", err)
	}
	// Chain allocation failure must roll back cleanly: the 4KiB class is
	// empty of spare capacity after the cap is consumed there too.
	for i := 0; i < 64; i++ {
		ref, err := p.TryPut(0, mkval(4096))
		if err != nil {
			t.Fatalf("chunk put %d under cap: %v", i, err)
		}
		refs = append(refs, ref)
	}
	before := p.Live()
	if _, err := p.TryPut(0, mkval(20000)); !errors.Is(err, arena.ErrExhausted) {
		t.Fatalf("expected chain ErrExhausted, got %v", err)
	}
	if p.Live() != before {
		t.Fatalf("failed chain leaked: live %d -> %d", before, p.Live())
	}
	for _, ref := range refs {
		p.Free(0, ref)
	}
	if live := p.Live(); live != 0 {
		t.Fatalf("Live = %d after teardown", live)
	}
}

func TestInflightAdopt(t *testing.T) {
	p := New(Config{MaxProcs: 2, DebugChecks: true})
	ref, err := p.TryPut(1, mkval(300))
	if err != nil {
		t.Fatal(err)
	}
	p.SetInflight(1, ref)
	// Simulated crash before publish: pid 1 dies, a survivor adopts.
	p.Adopt(1)
	if live := p.Live(); live != 0 {
		t.Fatalf("adopted inflight slab leaked: Live = %d", live)
	}
	if p.FreeLocal(1) != 0 {
		t.Fatalf("magazines not drained on adopt: %d slots", p.FreeLocal(1))
	}
	// A published ref must NOT be reclaimed by adoption.
	ref2, _ := p.TryPut(0, mkval(300))
	p.SetInflight(0, ref2)
	p.ClearInflight(0) // published
	p.Adopt(0)
	if got := p.AppendTo(nil, ref2); len(got) != 300 {
		t.Fatalf("published ref reclaimed by adopt")
	}
	p.Free(0, ref2)
}

func TestDrainEveryClass(t *testing.T) {
	p := New(Config{MaxProcs: 1})
	var refs []uint64
	for c := 0; c < NumClasses; c++ {
		ref, err := p.TryPut(0, mkval(ClassSize(c)))
		if err != nil {
			t.Fatal(err)
		}
		refs = append(refs, ref)
	}
	for _, ref := range refs {
		p.Free(0, ref)
	}
	if p.FreeLocal(0) == 0 {
		t.Fatalf("expected magazine occupancy before drain")
	}
	p.DrainLocal(0)
	if got := p.FreeLocal(0); got != 0 {
		t.Fatalf("class magazines not drained: %d slots stranded", got)
	}
}

// TestAllocsPerRunSteadyState pins the zero-allocation claim for the
// magazine-hit hot path: once a slot of each touched class is warm, a
// TryPut/AppendTo/Free cycle performs no Go heap allocation.
func TestAllocsPerRunSteadyState(t *testing.T) {
	p := New(Config{MaxProcs: 1})
	val := mkval(700) // class 1024
	dst := make([]byte, 0, 1024)
	// Warm the magazine and the chunk directory.
	ref, _ := p.TryPut(0, val)
	p.Free(0, ref)
	allocs := testing.AllocsPerRun(200, func() {
		r, err := p.TryPut(0, val)
		if err != nil {
			t.Fatal(err)
		}
		dst = p.AppendTo(dst[:0], r)
		p.Free(0, r)
	})
	if allocs != 0 {
		t.Fatalf("steady-state TryPut/AppendTo/Free allocates %.1f/op, want 0", allocs)
	}
	if !bytes.Equal(dst, val) {
		t.Fatalf("copy-out mismatch")
	}
}

// classLive returns every inline class's live slot count.
func classLive(p *Pool) [NumClasses]int64 {
	var out [NumClasses]int64
	for c := range out {
		out[c] = p.ClassStats(c).Live
	}
	return out
}

// TestChainTailRoundTrip covers the sizes where a chain's shape changes:
// the largest inline value, one head chunk plus a 9-byte tail, one head
// chunk plus a full 4KiB tail, two head chunks plus a 9-byte tail, and
// MaxLen. Each round trip must free every slab.
func TestChainTailRoundTrip(t *testing.T) {
	p := New(Config{MaxProcs: 2, DebugChecks: true})
	for _, n := range []int{4096, 4097, 8184, 8185, MaxLen} {
		v := mkval(n)
		ref, err := p.TryPut(0, v)
		if err != nil {
			t.Fatalf("TryPut(%d bytes): %v", n, err)
		}
		if Len(ref) != n {
			t.Fatalf("Len = %d, want %d", Len(ref), n)
		}
		heads := 0
		if n > maxClassSize {
			heads = (n - maxClassSize + chainPayload - 1) / chainPayload
		}
		if got := p.Live(); got != int64(heads+1) {
			t.Fatalf("%d bytes: %d slabs live, want %d head chunks + 1 tail", n, got, heads)
		}
		if got := p.AppendTo([]byte("x"), ref); !bytes.Equal(got[1:], v) || got[0] != 'x' {
			t.Fatalf("round trip of %d bytes: mismatch (%d bytes back)", n, len(got)-1)
		}
		p.Free(1, ref)
		if live := p.Live(); live != 0 {
			t.Fatalf("%d bytes: Live = %d after Free", n, live)
		}
	}
}

// TestChainTailClass checks that for every value needing exactly one
// head chunk (4,097..8,184 bytes) the tail lands in the class
// ClassOf(n-4088) predicts, next to one head chunk in the 4KiB class.
func TestChainTailClass(t *testing.T) {
	p := New(Config{MaxProcs: 1, DebugChecks: true})
	for n := maxClassSize + 1; n <= maxClassSize+chainPayload; n++ {
		v := mkval(n)
		ref, err := p.TryPut(0, v)
		if err != nil {
			t.Fatalf("TryPut(%d bytes): %v", n, err)
		}
		var want [NumClasses]int64
		want[NumClasses-1]++ // the head chunk
		want[ClassOf(n-chainPayload)]++
		if got := classLive(p); got != want {
			t.Fatalf("%d bytes: per-class live %v, want %v", n, got, want)
		}
		if got := p.AppendTo(nil, ref); !bytes.Equal(got, v) {
			t.Fatalf("round trip of %d bytes mismatched", n)
		}
		p.Free(0, ref)
	}
	if live := p.Live(); live != 0 {
		t.Fatalf("Live = %d after freeing everything", live)
	}
}

// TestChainInflightAdopt checks that Free and Adopt of a parked chain
// return its head chunks and its tail.
func TestChainInflightAdopt(t *testing.T) {
	p := New(Config{MaxProcs: 2, DebugChecks: true})
	ref, err := p.TryPut(1, mkval(3*chainPayload+100))
	if err != nil {
		t.Fatal(err)
	}
	if p.Live() != 4 {
		t.Fatalf("Live = %d, want 3 head chunks + 1 tail", p.Live())
	}
	p.SetInflight(1, ref)
	p.Adopt(1)
	if live := p.Live(); live != 0 {
		t.Fatalf("adopted inflight chain leaked: Live = %d", live)
	}
	ref, err = p.TryPut(0, mkval(2*chainPayload+5000))
	if err != nil {
		t.Fatal(err)
	}
	p.Free(1, ref)
	if live := p.Live(); live != 0 {
		t.Fatalf("freed chain leaked: Live = %d", live)
	}
}

// TestChainCappedClassAllOrNothing checks that a chain whose tail class
// or head class is out of capacity fails TryPut with nothing left
// allocated: a full tail class fails first, and a full head class frees
// the tail already built.
func TestChainCappedClassAllOrNothing(t *testing.T) {
	const capSlots = 64
	p := New(Config{MaxProcs: 1, Capacity: capSlots, DebugChecks: true})
	var refs []uint64
	put := func(n int) {
		t.Helper()
		ref, err := p.TryPut(0, mkval(n))
		if err != nil {
			t.Fatalf("TryPut(%d) under the cap: %v", n, err)
		}
		refs = append(refs, ref)
	}
	for range capSlots {
		put(16) // fill the 16B class: the tail class of 8,185 bytes
	}
	before := classLive(p)
	if _, err := p.TryPut(0, mkval(8185)); !errors.Is(err, arena.ErrExhausted) {
		t.Fatalf("chain with a capped tail class: %v, want ErrExhausted", err)
	}
	if got := classLive(p); got != before {
		t.Fatalf("failed chain left slabs behind: %v -> %v", before, got)
	}
	for range capSlots - 1 {
		put(maxClassSize) // leave one 4KiB slot: the chain needs two heads
	}
	before = classLive(p)
	if _, err := p.TryPut(0, mkval(2*chainPayload+100)); !errors.Is(err, arena.ErrExhausted) {
		t.Fatalf("chain with a capped head class: %v, want ErrExhausted", err)
	}
	if got := classLive(p); got != before {
		t.Fatalf("failed chain left slabs behind: %v -> %v", before, got)
	}
	for _, ref := range refs {
		p.Free(0, ref)
	}
	if live := p.Live(); live != 0 {
		t.Fatalf("Live = %d after teardown", live)
	}
}

// TestSlabIsClassSize checks that value slabs are headerless: adjacent
// slots of every class lie exactly one class size apart, with no
// per-slot header between them (the allocator's own words live in its
// side table).
func TestSlabIsClassSize(t *testing.T) {
	p := New(Config{MaxProcs: 1})
	for c := 0; c < NumClasses; c++ {
		cp := p.classes[c]
		// The first block ends in chunk 1's first index; the next two
		// allocations are adjacent indices of chunk 0.
		var hs [3]arena.Handle
		for i := range hs {
			h, err := cp.tryAlloc(0)
			if err != nil {
				t.Fatal(err)
			}
			hs[i] = h
		}
		a, b := hs[1], hs[2]
		if a.Index() != b.Index()+1 {
			t.Fatalf("class %d: handles %d and %d are not adjacent", c, a.Index(), b.Index())
		}
		stride := uintptr(unsafe.Pointer(&cp.bytes(a)[0])) - uintptr(unsafe.Pointer(&cp.bytes(b)[0]))
		if int(stride) != ClassSize(c) {
			t.Fatalf("class %d: slot stride %d B, want exactly the class size %d B", c, stride, ClassSize(c))
		}
		for _, h := range hs {
			cp.free(0, h)
		}
	}
}
