package core

import (
	"math/rand"
	"testing"

	"cdrc/internal/acqret"
	"cdrc/internal/arena"
)

// checkMirror fails unless every snapshot slot announces exactly what
// the mirror holds: a held snapshot's word, or 0 for a free slot.
func checkMirror[T any](t *testing.T, th *Thread[T], step int) {
	t.Helper()
	for s := 1; s <= acqret.MaxSnapshots; s++ {
		if got := arena.Handle(th.d.ar.ReadSlot(th.pid, s)); got != th.snapHeld[s] {
			t.Fatalf("step %d: slot %d announces %#x, mirror holds %#x", step, s, got, th.snapHeld[s])
		}
	}
}

// Random snapshot traffic - acquires past the slot count (takeovers),
// releases in any order, nil and marked-nil cells - keeps the mirror
// equal to the slots, and leaves every count where it started.
func TestSnapshotMirrorTracksSlots(t *testing.T) {
	d := newNodeDomain(2)
	th := d.Attach()
	rng := rand.New(rand.NewSource(1))

	const cellsN = 6
	var cells [cellsN]AtomicRcPtr
	objs := make([]RcPtr, 0, cellsN)
	for i := 0; i < cellsN; i++ {
		switch i {
		case 0: // nil
		case 1: // marked nil
			cells[i].Init(NilRcPtr.WithMark(1))
		default:
			p := th.NewRc(func(n *node) { n.Val = int64(i) })
			objs = append(objs, p)
			if i%2 == 0 {
				p = p.WithMark(0)
			}
			th.Store(&cells[i], p)
		}
	}

	var held []Snapshot
	for step := 0; step < 20000; step++ {
		if len(held) > 0 && (len(held) > acqret.MaxSnapshots+3 || rng.Intn(2) == 0) {
			i := rng.Intn(len(held))
			th.ReleaseSnapshot(&held[i])
			held = append(held[:i], held[i+1:]...)
		} else {
			s := th.GetSnapshot(&cells[rng.Intn(cellsN)])
			if !s.IsNil() {
				held = append(held, s)
			}
		}
		checkMirror(t, th, step)
	}
	for i := range held {
		th.ReleaseSnapshot(&held[i])
	}
	for _, p := range objs {
		if got := th.RefCount(p); got != 2 {
			t.Fatalf("count = %d after all releases, want 2", got)
		}
	}

	// Leave held and released slots behind, then recover.
	for i := 0; i < 3; i++ {
		s := th.GetSnapshot(&cells[2+i])
		if i == 1 {
			th.ReleaseSnapshot(&s)
		}
	}
	th.ReleaseStraySnapshots()
	for s := 0; s < acqret.SlotsPerProc; s++ {
		if th.snapHeld[s] != 0 || th.d.ar.ReadSlot(th.pid, s) != 0 {
			t.Fatalf("slot %d after ReleaseStraySnapshots: mirror %#x, announced %#x",
				s, th.snapHeld[s], th.d.ar.ReadSlot(th.pid, s))
		}
	}

	for i := range cells {
		th.StoreMove(&cells[i], NilRcPtr)
	}
	for _, p := range objs {
		th.Release(p)
	}
	drain(th)
	th.Detach()
	if live := d.Live(); live != 0 {
		t.Fatalf("Live = %d", live)
	}
}

// Released snapshots pin nothing, even while their thread stays
// attached and idle: a reader walks a linked chain hand over hand, and
// once a writer unlinks the chain every node is reclaimed without the
// reader draining. A leftover announcement on any node would keep it and
// every node after it alive.
func TestReleasedSnapshotsPinNothing(t *testing.T) {
	const n = 16
	d := newNodeDomain(3)
	writer := d.Attach()
	reader := d.Attach()
	var head AtomicRcPtr
	next := NilRcPtr
	for i := n - 1; i >= 0; i-- {
		next = writer.NewRc(func(nd *node) { nd.Next.Init(next) })
	}
	head.Init(next)

	hops := 0
	s := reader.GetSnapshot(&head)
	for !s.IsNil() {
		nx := reader.GetSnapshot(&reader.DerefSnapshot(s).Next)
		reader.ReleaseSnapshot(&s)
		s = nx
		hops++
	}
	if hops != n {
		t.Fatalf("walked %d hops, want %d", hops, n)
	}
	checkMirror(t, reader, hops)

	writer.StoreMove(&head, NilRcPtr)
	drain(writer)
	if live := d.Live(); live != 0 {
		t.Fatalf("Live = %d with the reader idle, want 0", live)
	}
	reader.Detach()
	writer.Detach()
}
