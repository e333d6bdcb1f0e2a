package orcgc

import (
	"testing"

	"cdrc/internal/arena"
)

// Loads must not touch the reference count: that is OrcGC's defining
// read-side property (and why it wins read-heavy workloads in Fig. 6e).
func TestLoadTouchesNoCount(t *testing.T) {
	s := New(2)
	s.EnableDebugChecks()
	s.Setup(1)
	th := s.Attach().(*thread)
	th.Store(0, 9)
	h := arena.Handle(s.cells[0].v.Load())
	before := s.objs.Hdr(h).RefCount.Load()
	for i := 0; i < 100; i++ {
		if got := th.Load(0); got != 9 {
			t.Fatalf("Load = %d", got)
		}
	}
	if after := s.objs.Hdr(h).RefCount.Load(); after != before {
		t.Fatalf("count moved %d -> %d across loads", before, after)
	}
	th.Detach()
	s.Teardown()
}

// A hazard defers reclamation; dropping it releases the object on the
// next retire-driven scan.
func TestHazardDefersReclamation(t *testing.T) {
	s := New(4)
	s.EnableDebugChecks()
	s.Setup(1)
	writer := s.Attach().(*thread)
	reader := s.Attach().(*thread)

	writer.Store(0, 5)
	h := reader.protect(0, &s.cells[0].v)
	writer.Store(0, 6) // dead but hazarded
	if !s.objs.IsLive(h) {
		t.Fatal("hazarded object reclaimed")
	}
	if got := s.Unreclaimed(); got != 1 {
		t.Fatalf("Unreclaimed = %d, want 1", got)
	}
	reader.clear(0)
	writer.Store(0, 7) // the next retire's scan picks up the parked one
	if s.objs.IsLive(h) {
		t.Fatal("object not reclaimed after hazard cleared")
	}
	writer.Detach()
	reader.Detach()
	s.Teardown()
	if live := s.Live(); live != 0 {
		t.Fatalf("Live = %d", live)
	}
}

// Without hazards, retire reclaims immediately: the linear memory bound
// the paper contrasts with DRC's O(P^2).
func TestImmediateReclamationWithoutHazards(t *testing.T) {
	s := New(2)
	s.Setup(1)
	th := s.Attach().(*thread)
	for i := 0; i < 10000; i++ {
		th.Store(0, uint64(i)+1)
		if live := s.Live(); live > 2 {
			t.Fatalf("Live = %d at iteration %d: retire is deferring", live, i)
		}
	}
	th.Detach()
	s.Teardown()
}
