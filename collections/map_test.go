package collections

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"cdrc/internal/lincheck"
)

// u64b encodes a uint64 as its 8-byte little-endian value — the bridge
// between the byte-valued public API and tests (and the lincheck model)
// that reason about integer values.
func u64b(v uint64) []byte {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	return b[:]
}

// bu64 decodes the first 8 bytes (0 for shorter slices, so an absent
// value maps to the model's zero).
func bu64(b []byte) uint64 {
	if len(b) < 8 {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

func TestMapBasics(t *testing.T) {
	m := NewMap(64, 4)
	m.EnableDebugChecks()
	h := m.Attach()
	defer h.Close()

	if _, ok := h.Get(1, nil); ok {
		t.Fatal("Get on empty map reported a hit")
	}
	if _, existed, err := h.Put(1, u64b(10), nil); err != nil || existed {
		t.Fatalf("Put(new) = existed=%v err=%v", existed, err)
	}
	if v, ok := h.Get(1, nil); !ok || bu64(v) != 10 {
		t.Fatalf("Get = %d,%v, want 10,true", bu64(v), ok)
	}
	if old, existed, err := h.Put(1, u64b(11), nil); err != nil || !existed || bu64(old) != 10 {
		t.Fatalf("Put(replace) = %d,%v,%v, want 10,true,nil", bu64(old), existed, err)
	}
	if v, _ := h.Get(1, nil); bu64(v) != 11 {
		t.Fatalf("Get after replace = %d, want 11", bu64(v))
	}
	// Values of arbitrary length round-trip, and Get appends to dst.
	long := bytes.Repeat([]byte("cdrc-slab!"), 70) // 700 B: class 1024
	if _, _, err := h.Put(900, long, nil); err != nil {
		t.Fatalf("Put(long): %v", err)
	}
	got, ok := h.Get(900, []byte("pfx:"))
	if !ok || !bytes.Equal(got, append([]byte("pfx:"), long...)) {
		t.Fatalf("long value round-trip failed (ok=%v len=%d)", ok, len(got))
	}
	if hit, _ := h.Delete(900); !hit {
		t.Fatal("Delete(long) missed")
	}
	for k := uint64(2); k < 40; k++ {
		if _, _, err := h.Put(k, u64b(k*100), nil); err != nil {
			t.Fatalf("Put(%d): %v", k, err)
		}
	}
	gotm := map[uint64]uint64{}
	n := h.Scan(-1, func(k uint64, v []byte) bool { gotm[k] = bu64(v); return true })
	if n != 39 || len(gotm) != 39 {
		t.Fatalf("Scan visited %d (%d distinct), want 39", n, len(gotm))
	}
	if gotm[1] != 11 || gotm[5] != 500 {
		t.Fatalf("Scan values wrong: got[1]=%d got[5]=%d", gotm[1], gotm[5])
	}
	if n := h.Scan(5, func(k uint64, v []byte) bool { return true }); n != 5 {
		t.Fatalf("bounded Scan visited %d, want 5", n)
	}
	if hit, _ := h.Delete(1); !hit {
		t.Fatal("Delete of a present key missed")
	}
	if hit, _ := h.Delete(1); hit {
		t.Fatal("Delete of an absent key hit")
	}
	if _, ok := h.Get(1, nil); ok {
		t.Fatal("Get after Delete reported a hit")
	}
	h.Clear()
	if n := h.Scan(-1, func(k uint64, v []byte) bool { return true }); n != 0 {
		t.Fatalf("Scan after Clear visited %d, want 0", n)
	}
	h.Close()
	if live := m.LiveNodes(); live != 0 {
		t.Fatalf("LiveNodes = %d after Clear+Close, want 0", live)
	}
	if vl := m.ValueSlabsLive(); vl != 0 {
		t.Fatalf("ValueSlabsLive = %d after Clear+Close, want 0", vl)
	}
}

// TestMapLinearizable records real concurrent Get/Put/Delete histories
// and checks them against the sequential map model. The interesting
// interleavings are a Put's version cell racing a Delete's tombstone
// on one key's chain, and either racing the purge that unlinks a
// tombstoned entry; the checker verifies them on recorded schedules.
// Values travel as 8-byte slabs and are decoded back for the model.
func TestMapLinearizable(t *testing.T) {
	const rounds = 300
	const workers = 3
	const opsPerWorker = 5

	for r := 0; r < rounds; r++ {
		m := NewMap(16, workers+1)
		var clock atomic.Int64
		hist := make([][]lincheck.Op, workers)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(id int, seed int64) {
				defer wg.Done()
				h := m.Attach()
				defer h.Close()
				rng := rand.New(rand.NewSource(seed))
				for i := 0; i < opsPerWorker; i++ {
					k := uint64(rng.Intn(lincheck.MapModelKeys))
					v := uint64(rng.Intn(8))
					op := lincheck.Op{Start: clock.Add(1)}
					switch rng.Intn(3) {
					case 0:
						op.Kind = lincheck.OpPut
						op.Arg = k<<8 | v
						old, existed, err := h.Put(k, u64b(v), nil)
						if err != nil {
							t.Errorf("Put: %v", err)
							return
						}
						op.Ret, op.RetOK = bu64(old), existed
					case 1:
						op.Kind = lincheck.OpGet
						op.Arg = k << 8
						b, ok := h.Get(k, nil)
						op.Ret, op.RetOK = bu64(b), ok
					default:
						op.Kind = lincheck.OpDelete
						op.Arg = k << 8
						op.RetOK, _ = h.Delete(k)
					}
					op.End = clock.Add(1)
					hist[id] = append(hist[id], op)
				}
			}(w, int64(r*workers+w+29))
		}
		wg.Wait()
		if t.Failed() {
			t.FailNow()
		}
		var all []lincheck.Op
		for _, h := range hist {
			all = append(all, h...)
		}
		if !lincheck.Check[string](lincheck.MapModel{}, all) {
			t.Fatalf("round %d: map history not linearizable: %+v", r, all)
		}
	}
}

// TestMapConservation hammers a shared key space with variable-length
// values (spanning several size classes) and checks value integrity and
// full reclamation — nodes AND value slabs — at quiescence.
func TestMapConservation(t *testing.T) {
	const workers = 4
	const keys = 128
	const opsPerWorker = 20000

	m := NewMap(keys, workers+1)
	m.EnableDebugChecks()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			h := m.Attach()
			defer h.Close()
			rng := rand.New(rand.NewSource(seed))
			vbuf := make([]byte, 256)
			var dst []byte
			for i := 0; i < opsPerWorker; i++ {
				k := uint64(rng.Intn(keys))
				switch rng.Intn(4) {
				case 0, 1:
					// Values carry their key so readers can detect torn or
					// misdirected values; lengths 8..256 walk the size
					// classes 16 through 256.
					n := 8 + rng.Intn(249)
					binary.LittleEndian.PutUint64(vbuf, k<<32|uint64(i))
					var err error
					if dst, _, err = h.Put(k, vbuf[:n], dst[:0]); err != nil {
						t.Errorf("Put: %v", err)
						return
					}
				case 2:
					var ok bool
					if dst, ok = h.Get(k, dst[:0]); ok && bu64(dst)>>32 != k {
						t.Errorf("Get(%d) returned value tagged for key %d", k, bu64(dst)>>32)
						return
					}
				default:
					if _, err := h.Delete(k); err != nil {
						t.Errorf("Delete: %v", err)
						return
					}
				}
			}
		}(int64(w + 1))
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	h := m.Attach()
	h.Clear()
	h.Close()
	// Deferred decrements may need extra flush rounds to cascade.
	for i := 0; i < 8 && m.LiveNodes() != 0; i++ {
		h := m.Attach()
		h.Clear()
		h.Close()
	}
	if live := m.LiveNodes(); live != 0 {
		t.Fatalf("LiveNodes = %d at quiescence, want 0", live)
	}
	if vl := m.ValueSlabsLive(); vl != 0 {
		t.Fatalf("ValueSlabsLive = %d at quiescence, want 0", vl)
	}
}

// TestHandleCloseIdempotent is the regression test for the satellite
// task: double-Close on every handle type must be a no-op, not a double
// Detach (which would free the pid twice and corrupt arena free lists).
func TestHandleCloseIdempotent(t *testing.T) {
	hs := NewHashSet(16, 2)
	sh := hs.Attach()
	sh.Insert(1)
	sh.Close()
	sh.Close() // must not panic or double-free the pid

	ss := NewSortedSet(2)
	sh2 := ss.Attach()
	sh2.Insert(1)
	sh2.Close()
	sh2.Close()

	q := NewQueue(2)
	qh := q.Attach()
	qh.Enqueue(1)
	qh.Close()
	qh.Close()

	st := NewStack(2)
	th := st.Attach()
	th.Push(1)
	th.Close()
	th.Close()

	m := NewMap(16, 2)
	mh := m.Attach()
	mh.Put(1, u64b(2), nil)
	mh.Close()
	mh.Close()
	mh.Abandon() // after Close: also a no-op

	// The pid must actually have been returned exactly once: with
	// maxProcs=2, two more attaches must succeed.
	a, b := m.Attach(), m.Attach()
	a.Close()
	b.Close()
}
