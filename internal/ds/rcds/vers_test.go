package rcds

import (
	"bytes"
	"sync/atomic"
	"testing"

	"cdrc/internal/core"
	"cdrc/internal/snaplease"
)

// publishPending prepends an unstamped version cell to key's chain — a
// tombstone when val is nil, else a cell carrying val — exactly as
// putVB and delV publish one, and stops there, as a writer paused
// between its publishing CAS and stampCellIn leaves it.
func publishPending(t *testing.T, h *HashTable, key uint64, val []byte) {
	t.Helper()
	m := h.AttachMap().(*hashThread)
	defer m.Detach()
	th := m.th
	pos := m.search(h.bucket(key), key)
	defer m.releasePos(&pos)
	if !pos.found {
		t.Fatalf("publishPending: key %d absent", key)
	}
	e := m.deref(pos.curSnap, pos.curRc)
	hs := th.GetSnapshot(&e.Vers)
	defer th.ReleaseSnapshot(&hs)
	stamp := versTombFlag | versPending
	var ref uint64
	if val != nil {
		stamp = versPending
		var err error
		if ref, err = m.putRef(val); err != nil {
			t.Fatal(err)
		}
	}
	headOwned := th.RcFromSnapshot(hs)
	cell, err := th.TryNewRc(func(nd *listNode) {
		nd.Key = stamp
		atomic.StoreUint64(&nd.Val, ref)
		atomic.StoreUint64(&nd.Exp, 0)
		nd.next.Init(headOwned)
		nd.Vers.Init(core.NilRcPtr)
	})
	if err != nil {
		t.Fatal(err)
	}
	if !th.CompareAndSwapMove(&e.Vers, hs.Ptr(), cell) {
		t.Fatal("publishPending: head moved")
	}
	if ref != 0 {
		m.clearInflight()
	}
}

// TestPendingHeadStampedByDecider is the regression test for current
// reads that decided on a pending head version without stamping it
// (DESIGN.md §10). A writer paused after publishing its cell leaves the
// cell pending; a GetB or DeleteV that meets it must fix its stamp, so
// a lease acquired afterwards resolves the same version the operation
// observed. Unstamped, the cell is later stamped from the live clock —
// after the lease's ts — and the lease reads the version beneath it.
func TestPendingHeadStampedByDecider(t *testing.T) {
	v1, v2 := bval(1, 1, 200), bval(1, 2, 200)
	cases := []struct {
		name    string
		pending []byte // nil publishes a tombstone
		// decide runs the operation that meets the pending head and
		// returns the value it observed (nil for absent).
		decide func(t *testing.T, m *hashThread) []byte
	}{
		{"GetB/tombstone", nil, getDecide},
		{"GetB/value", v2, getDecide},
		{"DeleteV/tombstone", nil, func(t *testing.T, m *hashThread) []byte {
			if hit, err := m.DeleteV(1); hit || err != nil {
				t.Fatalf("DeleteV over a pending tombstone: hit=%v err=%v, want already absent", hit, err)
			}
			return nil
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			lp := snaplease.NewPool(2)
			h := NewVersionedHashTable(8, 2, lp)
			h.EnableByteValues(t.Name())
			h.EnableDebugChecks()
			m := h.AttachMap().(*hashThread)
			if _, _, err := m.PutB(1, v1, nil); err != nil {
				t.Fatal(err)
			}
			publishPending(t, h, 1, tc.pending)
			observed := tc.decide(t, m)
			if !bytes.Equal(observed, tc.pending) {
				t.Fatalf("%s observed %d bytes, want the pending head's %d", tc.name, len(observed), len(tc.pending))
			}

			ls, ok := lp.Acquire(m.th.ProcID())
			if !ok {
				t.Fatal("lease")
			}
			got, found := m.GetAtB(ls.TS(), 1, nil)
			if !found {
				got = nil
			}
			if !bytes.Equal(got, observed) || found != (observed != nil) {
				t.Errorf("lease after %s: found=%v with %d bytes; the operation observed %d bytes (nil = absent)",
					tc.name, found, len(got), len(observed))
			}
			ls.Release(0)
			m.Detach()
			checkByteQuiescence(t, h)
		})
	}
}

func getDecide(t *testing.T, m *hashThread) []byte {
	got, found := m.GetB(1, nil)
	if !found {
		return nil
	}
	return got
}
