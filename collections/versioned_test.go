package collections

import (
	"encoding/binary"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"cdrc/internal/lincheck"
	"cdrc/internal/snaplease"
)

// drainMap runs Clear/Close rounds until the map reaches quiescence.
func drainMap(t *testing.T, m *Map) {
	t.Helper()
	h := m.Attach()
	h.Clear()
	h.Close()
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

// TestVersionedMapBasics exercises the versioned map single-threaded:
// the plain API behaves like a map, and GetAt reads through leases see
// exactly the values bound when the lease was granted.
func TestVersionedMapBasics(t *testing.T) {
	p := snaplease.NewPool(4)
	m := NewVersionedMap(16, 2, p)
	m.EnableDebugChecks()
	if !m.Versioned() {
		t.Fatal("Versioned() = false on a versioned map")
	}
	h := m.Attach()

	if _, existed, err := h.Put(1, u64b(10), nil); existed || err != nil {
		t.Fatalf("fresh Put: existed=%v err=%v", existed, err)
	}
	l1, ok := p.Acquire(0) // sees 1→10, 2 absent
	if !ok {
		t.Fatal("Acquire failed")
	}
	if old, existed, err := h.Put(1, u64b(11), nil); !existed || bu64(old) != 10 || err != nil {
		t.Fatalf("replace Put: old=%d existed=%v err=%v", bu64(old), existed, err)
	}
	if _, _, err := h.Put(2, u64b(20), nil); err != nil {
		t.Fatal(err)
	}
	l2, ok := p.Acquire(0) // sees 1→11, 2→20
	if !ok {
		t.Fatal("Acquire failed")
	}
	if v, ok := h.Get(1, nil); !ok || bu64(v) != 11 {
		t.Fatalf("Get(1) = %d,%v want 11,true", bu64(v), ok)
	}
	if v, ok := h.GetAt(l1.TS(), 1, nil); !ok || bu64(v) != 10 {
		t.Fatalf("GetAt(l1, 1) = %d,%v want 10,true", bu64(v), ok)
	}
	if _, ok := h.GetAt(l1.TS(), 2, nil); ok {
		t.Fatal("GetAt(l1, 2) found a key born after the lease")
	}
	if v, ok := h.GetAt(l2.TS(), 2, nil); !ok || bu64(v) != 20 {
		t.Fatalf("GetAt(l2, 2) = %d,%v want 20,true", bu64(v), ok)
	}

	// Delete appends a tombstone: current reads miss, l2 still hits.
	if hit, err := h.Delete(2); !hit || err != nil {
		t.Fatalf("Delete(2) = %v,%v", hit, err)
	}
	if _, ok := h.Get(2, nil); ok {
		t.Fatal("Get(2) after Delete reported a hit")
	}
	if v, ok := h.GetAt(l2.TS(), 2, nil); !ok || bu64(v) != 20 {
		t.Fatalf("GetAt(l2, 2) after Delete = %d,%v want 20,true", bu64(v), ok)
	}
	if hit, err := h.Delete(2); hit || err != nil {
		t.Fatalf("second Delete(2) = %v,%v", hit, err)
	}

	// Resurrect: the new binding is newer than both leases.
	if _, existed, err := h.Put(2, u64b(21), nil); existed || err != nil {
		t.Fatalf("resurrect Put: existed=%v err=%v", existed, err)
	}
	if v, ok := h.Get(2, nil); !ok || bu64(v) != 21 {
		t.Fatalf("Get(2) after resurrect = %d,%v want 21,true", bu64(v), ok)
	}
	if v, ok := h.GetAt(l2.TS(), 2, nil); !ok || bu64(v) != 20 {
		t.Fatalf("GetAt(l2, 2) after resurrect = %d,%v want 20,true", bu64(v), ok)
	}

	// ScanAt at l2 is the pre-delete world; plain Scan is the present.
	rows := map[uint64]uint64{}
	h.ScanAt(l2.TS(), -1, func(k uint64, v []byte) bool { rows[k] = bu64(v); return true })
	if len(rows) != 2 || rows[1] != 11 || rows[2] != 20 {
		t.Fatalf("ScanAt(l2) = %v, want {1:11 2:20}", rows)
	}
	rows = map[uint64]uint64{}
	if n := h.Scan(-1, func(k uint64, v []byte) bool { rows[k] = bu64(v); return true }); n != 2 {
		t.Fatalf("Scan visited %d, want 2", n)
	}
	if rows[1] != 11 || rows[2] != 21 {
		t.Fatalf("Scan = %v, want {1:11 2:21}", rows)
	}

	l1.Release(0)
	l2.Release(0)
	h.Close()
	drainMap(t, m)
}

// TestVersionedTrimBounds checks retention does its job in both
// directions: a held lease keeps superseded versions reachable, and
// releasing it lets subsequent writes trim the chain back down (the
// depth-capped maintenance pass converges across writes).
func TestVersionedTrimBounds(t *testing.T) {
	p := snaplease.NewPool(2)
	m := NewVersionedMap(16, 2, p)
	m.EnableDebugChecks()
	h := m.Attach()

	h.Put(7, u64b(1), nil)
	l, ok := p.Acquire(0)
	if !ok {
		t.Fatal("Acquire failed")
	}
	for i := uint64(2); i <= 64; i++ {
		if _, _, err := h.Put(7, u64b(i), nil); err != nil {
			t.Fatal(err)
		}
	}
	if v, ok := h.GetAt(l.TS(), 7, nil); !ok || bu64(v) != 1 {
		t.Fatalf("GetAt under lease = %d,%v want 1,true", bu64(v), ok)
	}
	held := m.LiveNodes()
	if held < 10 {
		t.Fatalf("LiveNodes = %d under a held lease; retention trimmed too much", held)
	}
	l.Release(0)
	// Maintenance is best-effort and depth-capped: drive it with writes.
	for i := 0; i < 32; i++ {
		if _, _, err := h.Put(7, u64b(100+uint64(i)), nil); err != nil {
			t.Fatal(err)
		}
	}
	h.Close()
	// Entry + head cell (plus a not-yet-cascaded tail) is the steady
	// state; anything near the 64 retained versions means no trim.
	hh := m.Attach()
	hh.Put(7, u64b(999), nil) // one more maintenance pass at the head
	hh.Close()
	if live := m.LiveNodes(); live > 16 {
		t.Fatalf("LiveNodes = %d after release+writes, want trimmed (≤16)", live)
	}
	drainMap(t, m)
}

// TestVersionedSnapshotAtomicity is the heart of the tentpole: a writer
// updates two keys in strict sequence (k1 to v, then k2 to v), so at
// every version timestamp val(k1) ∈ {val(k2), val(k2)+1}. Readers
// resolving both keys at one lease must never see k2 ahead of k1 — that
// would be a half-visible write.
func TestVersionedSnapshotAtomicity(t *testing.T) {
	const rounds = 2000
	p := snaplease.NewPool(8)
	m := NewVersionedMap(64, 8, p)
	m.EnableDebugChecks()

	var stop atomic.Bool
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		h := m.Attach()
		defer h.Close()
		var vbuf [8]byte
		for v := uint64(1); !stop.Load(); v++ {
			binary.LittleEndian.PutUint64(vbuf[:], v)
			if _, _, err := h.Put(1, vbuf[:], nil); err != nil {
				t.Errorf("Put(1): %v", err)
				return
			}
			if _, _, err := h.Put(2, vbuf[:], nil); err != nil {
				t.Errorf("Put(2): %v", err)
				return
			}
		}
	}()
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			h := m.Attach()
			defer h.Close()
			var dst []byte
			for i := 0; i < rounds; i++ {
				l, ok := p.Acquire(id)
				if !ok {
					continue
				}
				// Read k2 first so any torn visibility shows up as v2 > v1.
				dst, _ = h.GetAt(l.TS(), 2, dst[:0])
				v2 := bu64(dst)
				dst, _ = h.GetAt(l.TS(), 1, dst[:0])
				v1 := bu64(dst)
				if v1 != v2 && v1 != v2+1 {
					t.Errorf("snapshot torn at ts %d: k1=%d k2=%d", l.TS(), v1, v2)
					l.Release(id)
					return
				}
				// ScanAt must agree with per-key resolution at the same ts.
				var s1, s2 uint64
				h.ScanAt(l.TS(), -1, func(k uint64, v []byte) bool {
					if k == 1 {
						s1 = bu64(v)
					} else if k == 2 {
						s2 = bu64(v)
					}
					return true
				})
				if s1 != s2 && s1 != s2+1 {
					t.Errorf("ScanAt torn at ts %d: k1=%d k2=%d", l.TS(), s1, s2)
					l.Release(id)
					return
				}
				l.Release(id)
			}
		}(r + 1)
	}
	// Let the readers finish, then stop the writer.
	doneReaders := make(chan struct{})
	go func() { wg.Wait(); close(doneReaders) }()
	for i := 0; i < rounds; i++ {
		if t.Failed() {
			break
		}
	}
	stop.Store(true)
	<-doneReaders
	if p.Active() != 0 {
		t.Fatalf("Active leases = %d at quiescence, want 0", p.Active())
	}
	drainMap(t, m)
}

// TestVersionedMapConcurrent hammers the full versioned API from many
// goroutines with value tagging (integrity) and variable lengths across
// size classes, and checks quiescent reclamation — the versioned
// analogue of TestMapConservation.
func TestVersionedMapConcurrent(t *testing.T) {
	const workers = 4
	const keys = 64
	const opsPerWorker = 10000

	p := snaplease.NewPool(workers)
	m := NewVersionedMap(keys, workers+1, p)
	m.EnableDebugChecks()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(id int, seed int64) {
			defer wg.Done()
			h := m.Attach()
			defer h.Close()
			rng := rand.New(rand.NewSource(seed))
			vbuf := make([]byte, 200)
			var dst []byte
			for i := 0; i < opsPerWorker; i++ {
				k := uint64(rng.Intn(keys))
				switch rng.Intn(8) {
				case 0, 1, 2:
					n := 8 + rng.Intn(193)
					binary.LittleEndian.PutUint64(vbuf, k<<32|uint64(i))
					var err error
					if dst, _, err = h.Put(k, vbuf[:n], dst[:0]); err != nil {
						t.Errorf("Put: %v", err)
						return
					}
				case 3, 4:
					var ok bool
					if dst, ok = h.Get(k, dst[:0]); ok && bu64(dst)>>32 != k {
						t.Errorf("Get(%d) returned value tagged for key %d", k, bu64(dst)>>32)
						return
					}
				case 5:
					if _, err := h.Delete(k); err != nil {
						t.Errorf("Delete: %v", err)
						return
					}
				default:
					l, ok := p.Acquire(id)
					if !ok {
						continue
					}
					bad := false
					h.ScanAt(l.TS(), 16, func(sk uint64, sv []byte) bool {
						if bu64(sv)>>32 != sk {
							t.Errorf("ScanAt row %d tagged for key %d", sk, bu64(sv)>>32)
							bad = true
							return false
						}
						return true
					})
					if dst, ok = h.GetAt(l.TS(), k, dst[:0]); ok && bu64(dst)>>32 != k {
						t.Errorf("GetAt(%d) returned value tagged for key %d", k, bu64(dst)>>32)
						bad = true
					}
					l.Release(id)
					if bad {
						return
					}
				}
			}
		}(w, int64(w+1))
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	if p.Active() != 0 {
		t.Fatalf("Active leases = %d at quiescence, want 0", p.Active())
	}
	drainMap(t, m)
}

// TestVersionedMapSharedHandlesReclaimBounded is the embedded-read shape
// of the repository benchmark at test scale: two handles share one
// versioned map over a lease pool and take turns running windows of 16
// ops, 90/10 GET/PUT of 64 B values on a small hot key set, with no
// Flush. Half the overwrites drop a version the other handle allocated;
// if a retire goes unpaid by its ejects, ejected-but-unreturned work
// piles up and every dead version pins its node and value slab. Both gauges must stay within a fixed
// bound for the whole run, and teardown must reclaim everything.
func TestVersionedMapSharedHandlesReclaimBounded(t *testing.T) {
	const (
		keys   = 64
		ops    = 200_000
		window = 16
		// 4x the two pids' acquire-retire scan thresholds (2K+64 each,
		// K = 2 pids x 8 announcement slots).
		bound = 768
	)
	p := snaplease.NewPool(snaplease.DefaultLeases)
	m := NewVersionedMap(keys, 4, p)
	hs := [2]*MapHandle{m.Attach(), m.Attach()}
	rng := rand.New(rand.NewSource(1))
	vbuf := make([]byte, 64)
	var dst []byte
	for k := uint64(0); k < keys; k++ {
		binary.LittleEndian.PutUint64(vbuf, k)
		if _, _, err := hs[0].Put(k, vbuf, nil); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < ops; i++ {
		h := hs[i/window%2]
		k := uint64(rng.Intn(keys))
		if rng.Intn(10) == 0 {
			binary.LittleEndian.PutUint64(vbuf, k)
			var err error
			if dst, _, err = h.Put(k, vbuf, dst[:0]); err != nil {
				t.Fatalf("Put: %v", err)
			}
		} else {
			var ok bool
			if dst, ok = h.Get(k, dst[:0]); !ok || bu64(dst) != k {
				t.Fatalf("Get(%d) = %d,%v", k, bu64(dst), ok)
			}
		}
		if i%1000 == 0 {
			if u := m.Unreclaimed(); u > bound {
				t.Fatalf("op %d: Unreclaimed = %d, bound %d", i, u, bound)
			}
			if extra := m.ValueSlabsLive() - keys; extra > bound {
				t.Fatalf("op %d: %d value slabs live beyond the %d resident keys, bound %d", i, extra, keys, bound)
			}
		}
	}
	hs[0].Close()
	hs[1].Close()
	if p.Active() != 0 {
		t.Fatalf("Active leases = %d at quiescence, want 0", p.Active())
	}
	drainMap(t, m)
}

// TestVersionedMapLinearizable records concurrent Get/Put/Delete/MGET
// histories on a versioned map and replays them through the lincheck
// MapModel: an MGET (every key read at one lease timestamp) must be an
// atomic multi-key read — no write half-visible across the returned
// keys. This is the lincheck extension the issue's test satellite asks
// for, run at the layer that owns the snapshot semantics.
func TestVersionedMapLinearizable(t *testing.T) {
	const rounds = 150
	const workers = 3
	const opsPerWorker = 5

	for r := 0; r < rounds; r++ {
		p := snaplease.NewPool(workers)
		m := NewVersionedMap(16, workers+1, p)
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
					v := uint64(rng.Intn(200) + 1)
					op := lincheck.Op{Start: clock.Add(1)}
					switch rng.Intn(4) {
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
					case 2:
						op.Kind = lincheck.OpDelete
						op.Arg = k << 8
						hit, err := h.Delete(k)
						if err != nil {
							t.Errorf("Delete: %v", err)
							return
						}
						op.RetOK = hit
					default:
						op.Kind = lincheck.OpMGet
						l, ok := p.Acquire(id)
						if !ok {
							t.Errorf("lease pool exhausted with %d workers", workers)
							return
						}
						var packed uint64
						for key := 0; key < lincheck.MapModelKeys; key++ {
							if b, ok := h.GetAt(l.TS(), uint64(key), nil); ok {
								packed |= (bu64(b) & 0xff) << (8 * key)
							}
						}
						l.Release(id)
						op.Ret, op.RetOK = packed, true
					}
					op.End = clock.Add(1)
					hist[id] = append(hist[id], op)
				}
			}(w, int64(r*workers+w+31))
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
			t.Fatalf("round %d: versioned map history with MGET not linearizable: %+v", r, all)
		}
	}
}
