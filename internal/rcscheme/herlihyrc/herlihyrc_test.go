package herlihyrc

import (
	"testing"

	"cdrc/internal/arena"
)

func TestStickyIncRefusesZero(t *testing.T) {
	var hdr arena.Header
	hdr.RefCount.Store(0)
	if stickyInc(&hdr) {
		t.Fatal("stickyInc revived a zero count")
	}
	hdr.RefCount.Store(2)
	if !stickyInc(&hdr) || hdr.RefCount.Load() != 3 {
		t.Fatalf("stickyInc failed on live count (now %d)", hdr.RefCount.Load())
	}
}

func TestCountIsNeverRevived(t *testing.T) {
	s := NewClassic(4)
	s.EnableDebugChecks()
	s.Setup(1)
	th := s.Attach()
	th.Store(0, 7)

	// Overwrite: the old object's count hits zero and sticks there.
	h := arena.Handle(s.cells[0].v.Load())
	th.Store(0, 9)
	if got := s.objs.Hdr(h).RefCount.Load(); got != 0 {
		t.Fatalf("old object count = %d, want 0", got)
	}
	if stickyInc(s.objs.Hdr(h)) {
		t.Fatal("dead object revived")
	}
	th.Detach()
	s.Teardown()
	if live := s.Live(); live != 0 {
		t.Fatalf("Live = %d", live)
	}
}

func TestGuardDefersReclamation(t *testing.T) {
	for _, mk := range []func(int) *Scheme{NewClassic, NewOptimized} {
		s := mk(4)
		s.EnableDebugChecks()
		s.Setup(1)
		writer := s.Attach().(*thread)
		reader := s.Attach().(*thread)

		writer.Store(0, 5)
		h := reader.protect(0, &s.cells[0].v)
		if h.IsNil() {
			t.Fatal("protect returned nil")
		}
		// Overwrite repeatedly: the guarded object dies (count 0) but must
		// not be reclaimed.
		for i := 0; i < 2000; i++ {
			writer.Store(0, uint64(i)+10)
		}
		if !s.objs.IsLive(h) {
			t.Fatal("guarded object reclaimed")
		}
		if got := s.objs.Hdr(h).RefCount.Load(); got != 0 {
			t.Fatalf("guarded object count = %d, want 0 (dead but protected)", got)
		}
		reader.unguard(0)
		writer.scan()
		if s.objs.IsLive(h) {
			t.Fatal("object not reclaimed after unguard+scan")
		}
		writer.Detach()
		reader.Detach()
		s.Teardown()
		if live := s.Live(); live != 0 {
			t.Fatalf("Live = %d", live)
		}
	}
}

func TestUnreclaimedGaugeTracksPending(t *testing.T) {
	s := NewOptimized(2)
	s.Setup(1)
	reader := s.Attach().(*thread)
	writer := s.Attach().(*thread)
	writer.Store(0, 1)
	reader.protect(0, &s.cells[0].v)
	writer.Store(0, 2) // kills the guarded object -> pending
	if got := s.Unreclaimed(); got != 1 {
		t.Fatalf("Unreclaimed = %d, want 1", got)
	}
	reader.unguard(0)
	writer.scan()
	if got := s.Unreclaimed(); got != 0 {
		t.Fatalf("Unreclaimed after scan = %d, want 0", got)
	}
	reader.Detach()
	writer.Detach()
	s.Teardown()
}
