package rcds

import (
	"testing"
	"unsafe"

	"cdrc/internal/core"
	"cdrc/internal/snaplease"
)

// TestRecordSharesLineWithHeader checks the one-line record layout
// (DESIGN.md §12): an arena slot is a 24 B count header followed by the
// 40 B listNode, and chunks start line-aligned, so every record sits 24
// bytes into a 64-byte line and its counts share that line. It walks
// every allocated record of a versioned table — entry nodes and the
// version cells a lease keeps alive — and checks that the walk found
// them all.
func TestRecordSharesLineWithHeader(t *testing.T) {
	if got := unsafe.Sizeof(listNode{}); got != 40 {
		t.Fatalf("listNode = %d bytes, want 40", got)
	}
	lp := snaplease.NewPool(2)
	h := NewVersionedHashTable(64, 2, lp)
	h.EnableByteValues(t.Name())
	h.EnableDebugChecks()
	m := h.AttachMap()
	const keys = 3000
	for k := uint64(0); k < keys; k++ {
		if _, _, err := m.PutB(k, u64b(k), nil); err != nil {
			t.Fatal(err)
		}
	}
	ls, ok := lp.Acquire(0)
	if !ok {
		t.Fatal("lease")
	}
	for k := uint64(0); k < keys; k += 3 {
		if _, _, err := m.PutB(k, u64b(k+1), nil); err != nil {
			t.Fatal(err)
		}
	}

	th := h.base.dom.Attach()
	walked := 0
	var walk func(p core.RcPtr)
	walk = func(p core.RcPtr) {
		for ; !p.IsNil(); p = th.Deref(p).next.LoadRaw() {
			nd := th.Deref(p)
			if off := uintptr(unsafe.Pointer(nd)) % 64; off != 24 {
				t.Fatalf("record %#x at line offset %d, want 24", uint64(p.Handle()), off)
			}
			walked++
			walk(nd.Vers.LoadRaw().Unmarked())
		}
	}
	for i := range h.buckets {
		walk(h.buckets[i].LoadRaw())
	}
	th.Detach()
	if live := h.LiveNodes(); int64(walked) != live {
		t.Fatalf("walked %d records, %d allocated", walked, live)
	}
	if walked <= keys {
		t.Fatalf("walked %d records: no version cells kept alive", walked)
	}
	ls.Release(0)
	m.Detach()
}
