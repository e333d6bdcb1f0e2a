package rcds

import (
	"bytes"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"cdrc/internal/chaos"
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
		if ref, err = m.putRef(val, true); err != nil {
			t.Fatal(err)
		}
	}
	cell, err := th.TryNewRc(func(nd *listNode) {
		nd.Key = stamp
		atomic.StoreUint64(&nd.Val, ref)
		atomic.StoreUint64(&nd.Exp, 0)
		nd.next.Init(hs.Ptr())
		nd.Vers.Init(core.NilRcPtr)
	})
	if err != nil {
		t.Fatal(err)
	}
	if !m.prepend(e, hs.Ptr(), cell) {
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

// TestLostPrependCASLinksNoCount is the regression test for the lost
// prepend CAS. A versioned write's new cell links the current head
// without a count of its own (prepend moves the entry's unit into the
// link when the CAS wins), so a lost CAS leaves an uncounted link in a
// cell the writer then releases: unless the link is cleared first, the
// cell's finalizer gives up a unit of the old head that nobody owned,
// driving its count negative or freeing it under the entry. One handle
// stalls at rcds.vers.before-prepend-cas while another writes the same
// key, so the stalled CAS loses and retries. At quiescence every resident
// key must hold exactly its entry and one version cell, and every value
// slab must belong to a resident key.
func TestLostPrependCASLinksNoCount(t *testing.T) {
	const keys, rounds = 3, 2
	for _, op := range []string{"PutB", "DeleteV"} {
		t.Run(op, func(t *testing.T) {
			h := NewVersionedHashTable(8, 3, snaplease.NewPool(3))
			h.EnableByteValues(t.Name())
			h.EnableDebugChecks()
			stalled := h.AttachMap().(*hashThread)
			writer := h.AttachMap().(*hashThread)
			for r := uint64(0); r < rounds; r++ {
				for k := uint64(1); k <= keys; k++ {
					if _, _, err := writer.PutB(k, bval(k, 3*r, 64), nil); err != nil {
						t.Fatal(err)
					}
					// Only hit 0 fires: the stalled handle's first
					// prepend. The writer's and the retry's pass.
					chaos.Enable(chaos.Config{Seed: 1, Faults: map[string]chaos.Fault{
						"rcds.vers.before-prepend-cas": {Every: 1 << 62, Sleep: 100 * time.Millisecond},
					}})
					done := make(chan error, 1)
					go func() {
						defer func() {
							if v := recover(); v != nil {
								done <- fmt.Errorf("stalled %s panicked: %v", op, v)
							}
						}()
						var err error
						if op == "PutB" {
							_, _, err = stalled.PutB(k, bval(k, 3*r+1, 64), nil)
						} else {
							_, err = stalled.DeleteV(k)
						}
						done <- err
					}()
					for chaosPrependCAS.Hits() == 0 {
						runtime.Gosched()
					}
					if _, _, err := writer.PutB(k, bval(k, 3*r+2, 64), nil); err != nil {
						t.Fatal(err)
					}
					if err := <-done; err != nil {
						t.Fatal(err)
					}
					hits := chaosPrependCAS.Hits()
					chaos.Disable()
					if hits != 3 {
						t.Fatalf("key %d round %d: %d prepend attempts, want 3 (stall, writer, lost CAS retried)", k, r, hits)
					}
				}
			}
			// The retried operation ran last, so a delete leaves the key
			// absent; write it back so every key is resident.
			for k := uint64(1); k <= keys; k++ {
				_, found := writer.GetB(k, nil)
				if found != (op == "PutB") {
					t.Fatalf("key %d found=%v after the retried %s", k, found, op)
				}
				if _, _, err := writer.PutB(k, bval(k, 3*rounds, 64), nil); err != nil {
					t.Fatal(err)
				}
			}
			for i := 0; i < 4; i++ {
				stalled.Flush()
				writer.Flush()
			}
			if n := h.LiveNodes(); n != 2*keys {
				t.Fatalf("LiveNodes = %d at quiescence, want exactly 2 per resident key (%d keys)", n, keys)
			}
			if n := h.ByteValues().Live(); n != keys {
				t.Fatalf("ValueSlabsLive = %d at quiescence, want exactly one per resident key (%d)", n, keys)
			}
			stalled.Detach()
			writer.Detach()
			checkByteQuiescence(t, h)
		})
	}
}
