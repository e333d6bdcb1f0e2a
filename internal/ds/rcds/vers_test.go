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
// PutB and DeleteV publish one, and stops there, as a writer paused
// between its publishing CAS and its settle walk leaves it.
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

// TestSettleFallbackAfterStall covers the settle walk's fallback. A
// writer whose prepend won stalls at rcds.vers.before-settle while
// another handle writes the same key; the second writer's cell is then
// the head, its settle trims the stalled writer's still-pending cell
// below it, and the stalled writer's settle must find its cell no longer
// the head, stamp down the chain and trim from the new head. Round 0
// holds a lease taken before the stall, which must still resolve to the
// version it saw. With no lease held, every resident key must end at
// exactly its entry and one version cell, and every value slab must
// belong to a resident key.
func TestSettleFallbackAfterStall(t *testing.T) {
	const keys, rounds = 3, 2
	for _, op := range []string{"PutB", "DeleteV"} {
		t.Run(op, func(t *testing.T) {
			lp := snaplease.NewPool(3)
			h := NewVersionedHashTable(8, 3, lp)
			h.EnableByteValues(t.Name())
			h.EnableDebugChecks()
			stalled := h.AttachMap().(*hashThread)
			writer := h.AttachMap().(*hashThread)
			for r := uint64(0); r < rounds; r++ {
				for k := uint64(1); k <= keys; k++ {
					before := bval(k, 3*r, 64)
					if _, _, err := writer.PutB(k, before, nil); err != nil {
						t.Fatal(err)
					}
					var ls snaplease.Lease
					if r == 0 {
						var ok bool
						if ls, ok = lp.Acquire(writer.th.ProcID()); !ok {
							t.Fatal("lease")
						}
					}
					// Only hit 0 fires: the stalled handle's settle.
					chaos.Enable(chaos.Config{Seed: 1, Faults: map[string]chaos.Fault{
						"rcds.vers.before-settle": {Every: 1 << 62, Sleep: 100 * time.Millisecond},
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
					for chaosBeforeSettle.Hits() == 0 {
						runtime.Gosched()
					}
					after := bval(k, 3*r+2, 64)
					if _, existed, err := writer.PutB(k, after, nil); err != nil {
						t.Fatal(err)
					} else if existed != (op == "PutB") {
						t.Fatalf("key %d round %d: PutB over the stalled %s reports existed=%v", k, r, op, existed)
					}
					if err := <-done; err != nil {
						t.Fatal(err)
					}
					hits := chaosBeforeSettle.Hits()
					chaos.Disable()
					if hits != 2 {
						t.Fatalf("key %d round %d: %d settles, want 2 (stalled, writer)", k, r, hits)
					}
					if got, found := writer.GetB(k, nil); !found || !bytes.Equal(got, after) {
						t.Fatalf("key %d round %d: GetB found=%v with %d bytes, want the last write's %d", k, r, found, len(got), len(after))
					}
					if ls.Valid() {
						if got, found := writer.GetAtB(ls.TS(), k, nil); !found || !bytes.Equal(got, before) {
							t.Fatalf("key %d: lease taken before the stall reads found=%v with %d bytes, want its own version's %d",
								k, found, len(got), len(before))
						}
						ls.Release(writer.th.ProcID())
					}
				}
			}
			// Round 0's lease kept history; one more write per key, with
			// no lease held, trims each chain to its head.
			for k := uint64(1); k <= keys; k++ {
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

// hookSource is a VersionSource over a lease pool that runs onMin, once,
// inside the next MinActive call, after the pool has answered.
type hookSource struct {
	*snaplease.Pool
	onMin func()
}

func (s *hookSource) MinActive() uint64 {
	ma := s.Pool.MinActive()
	if f := s.onMin; f != nil {
		s.onMin = nil
		f()
	}
	return ma
}

// TestTrimHorizonCappedByClock is the regression test for the trim
// bound. A trim that reads MinActive while no lease is held gets
// MaxUint64; if a lease is granted right after, while the chain's head
// is another writer's pending cell, the trim stamps that cell past the
// lease's ts, so the cell must not bound the trim — the version beneath
// it is the one the lease resolves to. Capping the horizon by the clock
// read before MinActive keeps that version; bounded by MinActive alone,
// the trim cut it and the lease read the key as absent.
func TestTrimHorizonCappedByClock(t *testing.T) {
	vs := &hookSource{Pool: snaplease.NewPool(2)}
	h := NewVersionedHashTable(8, 3, vs)
	h.EnableByteValues(t.Name())
	h.EnableDebugChecks()
	m := h.AttachMap().(*hashThread)
	v1, v2 := bval(1, 1, 64), bval(1, 2, 64)
	if _, _, err := m.PutB(1, v1, nil); err != nil {
		t.Fatal(err)
	}
	publishPending(t, h, 1, v2)
	var ls snaplease.Lease
	vs.onMin = func() {
		var ok bool
		if ls, ok = vs.Acquire(0); !ok {
			t.Fatal("lease")
		}
	}
	pos := m.search(h.bucket(1), 1)
	if !pos.found {
		t.Fatal("key 1 absent")
	}
	m.maintainVers(m.th.GetSnapshot(&m.deref(pos.curSnap, pos.curRc).Vers))
	m.releasePos(&pos)
	if !ls.Valid() {
		t.Fatal("the trim never read MinActive")
	}
	if got, found := m.GetAtB(ls.TS(), 1, nil); !found || !bytes.Equal(got, v1) {
		t.Errorf("lease granted mid-trim reads found=%v with %d bytes, want the version written before it (%d bytes)",
			found, len(got), len(v1))
	}
	if got, found := m.GetB(1, nil); !found || !bytes.Equal(got, v2) {
		t.Errorf("GetB found=%v with %d bytes, want the pending write's %d", found, len(got), len(v2))
	}
	ls.Release(0)
	m.Detach()
	checkByteQuiescence(t, h)
}
