package rcds

import (
	"bytes"
	"encoding/binary"
	"sync"
	"sync/atomic"
	"testing"

	"cdrc/internal/chaos"
	"cdrc/internal/snaplease"
	"cdrc/internal/vals"
)

// bval builds a deterministic value for (key, gen) whose length varies
// with both, crossing size classes and the chain threshold.
func bval(key, gen uint64, scale int) []byte {
	n := int((key*7+gen*131)%uint64(scale)) + 8
	b := make([]byte, n)
	binary.LittleEndian.PutUint64(b, key^gen)
	for i := 8; i < n; i++ {
		b[i] = byte(key + gen + uint64(i))
	}
	return b
}

// newByteTable builds a cache table: a value plane, no VersionSource.
func newByteTable(t *testing.T, buckets, procs int) *HashTable {
	t.Helper()
	h := NewHashTable(buckets, procs, true)
	h.EnableByteValues(t.Name())
	h.EnableDebugChecks()
	return h
}

// newMapTable builds a map table: versioned, with a value plane.
func newMapTable(t *testing.T, buckets, procs int) *HashTable {
	t.Helper()
	h := NewVersionedHashTable(buckets, procs, snaplease.NewPool(2))
	h.EnableByteValues(t.Name())
	h.EnableDebugChecks()
	return h
}

// checkByteQuiescence drains and verifies both planes reach zero, on map
// and cache tables alike.
func checkByteQuiescence(t *testing.T, h *HashTable) {
	t.Helper()
	m := h.attachValued()
	m.Clear()
	m.Drain()
	m.Detach()
	for i := 0; i < 4 && (h.LiveNodes() != 0 || h.ByteValues().Live() != 0); i++ {
		d := h.attachValued()
		d.Flush()
		d.Drain()
		d.Detach()
	}
	if n := h.LiveNodes(); n != 0 {
		t.Fatalf("node leak: LiveNodes = %d after Clear", n)
	}
	if n := h.ByteValues().Live(); n != 0 {
		t.Fatalf("slab leak: vals Live = %d after Clear", n)
	}
}

func TestByteMapSequential(t *testing.T) {
	// Map tables are versioned, and versioned tables always run in
	// snapshot mode; the subtest keeps the mode in its name.
	t.Run("snapshots=true", func(t *testing.T) {
		h := newMapTable(t, 64, 2)
		m := h.AttachMap()

		if _, found := m.GetB(1, nil); found {
			t.Fatal("phantom key")
		}
		v1 := bval(1, 1, 9000)
		if _, existed, err := m.PutB(1, v1, nil); existed || err != nil {
			t.Fatalf("fresh PutB: existed=%v err=%v", existed, err)
		}
		got, found := m.GetB(1, nil)
		if !found || !bytes.Equal(got, v1) {
			t.Fatalf("GetB after put: found=%v len=%d want %d", found, len(got), len(v1))
		}
		// Replace returns the displaced bytes; sizes cross classes.
		v2 := bval(1, 2, 100)
		old, existed, err := m.PutB(1, v2, nil)
		if err != nil || !existed || !bytes.Equal(old, v1) {
			t.Fatalf("replace: existed=%v err=%v oldlen=%d", existed, err, len(old))
		}
		// Empty value is legal and distinct from absent.
		if _, _, err := m.PutB(2, nil, nil); err != nil {
			t.Fatal(err)
		}
		got, found = m.GetB(2, nil)
		if !found || len(got) != 0 {
			t.Fatalf("empty value: found=%v len=%d", found, len(got))
		}
		// dst append semantics.
		pre := []byte("prefix:")
		got, _ = m.GetB(1, pre)
		if !bytes.HasPrefix(got, pre) || !bytes.Equal(got[len(pre):], v2) {
			t.Fatal("GetB must append to dst")
		}
		for _, k := range []uint64{1, 2} {
			if hit, err := m.DeleteV(k); !hit || err != nil {
				t.Fatalf("DeleteV(%d): hit=%v err=%v", k, hit, err)
			}
		}
		if _, found := m.GetB(1, nil); found {
			t.Fatal("deleted key still found")
		}
		m.Detach()
		checkByteQuiescence(t, h)
	})
}

func TestByteMapScan(t *testing.T) {
	h := newMapTable(t, 32, 1)
	m := h.AttachMap()
	want := map[uint64][]byte{}
	for k := uint64(1); k <= 40; k++ {
		v := bval(k, 3, 6000)
		want[k] = v
		if _, _, err := m.PutB(k, v, nil); err != nil {
			t.Fatal(err)
		}
	}
	seen := map[uint64][]byte{}
	n := m.ScanB(-1, func(key uint64, val []byte) bool {
		seen[key] = append([]byte(nil), val...) // scratch: must copy
		return true
	})
	if n != len(want) || len(seen) != len(want) {
		t.Fatalf("ScanB visited %d/%d", n, len(want))
	}
	for k, v := range want {
		if !bytes.Equal(seen[k], v) {
			t.Fatalf("key %d bytes mismatch", k)
		}
	}
	m.Detach()
	checkByteQuiescence(t, h)
}

// TestByteMapConcurrentChurn hammers replaces, inserts, deletes and
// reads across size classes (including chains) with debug checks on: any
// slab recycled under a mid-copy reader panics.
func TestByteMapConcurrentChurn(t *testing.T) {
	const procs = 4
	// One pid per worker plus one for the scanning goroutine below.
	h := newMapTable(t, 64, procs+1)
	const keys = 64
	var stop atomic.Bool
	var wg sync.WaitGroup
	for w := 0; w < procs; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			m := h.AttachMap()
			defer m.Detach()
			var dst []byte
			gen := uint64(w + 1)
			for i := 0; !stop.Load(); i++ {
				k := uint64(i%keys) + 1
				switch i % 5 {
				case 0, 1:
					var err error
					dst, _, err = m.PutB(k, bval(k, gen, 9000), dst[:0])
					if err != nil {
						t.Error(err)
						return
					}
					gen++
				case 2, 3:
					var found bool
					dst, found = m.GetB(k, dst[:0])
					if found && len(dst) >= 8 {
						// First 8 bytes encode key^gen; verify the key half
						// is consistent with a complete, untorn copy.
						g := binary.LittleEndian.Uint64(dst) ^ k
						if chk := bval(k, g, 9000); !bytes.Equal(dst, chk) {
							t.Errorf("torn value for key %d", k)
							return
						}
					}
				default:
					if _, err := m.DeleteV(k); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}(w)
	}
	for i := 0; i < 40; i++ {
		m := h.AttachMap()
		m.ScanB(-1, func(key uint64, val []byte) bool { return len(val) >= 0 })
		m.Detach()
	}
	stop.Store(true)
	wg.Wait()
	checkByteQuiescence(t, h)
}

// TestByteMapCrashInflight crashes a writer exactly at the parked-slab
// point (vals.put.inflight) and verifies adoption reclaims the slab:
// no leak, no double free, and the pid is reusable.
func TestByteMapCrashInflight(t *testing.T) {
	chaos.Enable(chaos.Config{
		Seed:        7,
		CrashBudget: 3,
		Faults: map[string]chaos.Fault{
			"vals.put.inflight": {Every: 4, Crash: true},
		},
	})
	defer chaos.Disable()

	h := newMapTable(t, 32, 2)
	crashes := 0
	for i := 0; i < 32; i++ {
		func() {
			m := h.AttachMap()
			defer func() {
				if r := recover(); r != nil {
					if _, ok := r.(chaos.CrashSignal); !ok {
						panic(r)
					}
					crashes++
					m.Abandon() // survivors adopt: parked slab freed, magazines drained
				}
			}()
			k := uint64(i%8 + 1)
			if _, _, err := m.PutB(k, bval(k, uint64(i), 9000), nil); err != nil {
				t.Fatal(err)
			}
			if _, found := m.GetB(k, nil); !found {
				t.Fatalf("published value lost (iter %d)", i)
			}
			m.Detach()
		}()
	}
	if crashes == 0 {
		t.Fatal("crash point never fired")
	}
	chaos.Disable()
	checkByteQuiescence(t, h)
}

func TestByteVersioned(t *testing.T) {
	lp := snaplease.NewPool(2)
	h := NewVersionedHashTable(32, 2, lp)
	h.EnableByteValues(t.Name())
	h.EnableDebugChecks()
	m := h.AttachMap().(*hashThread)

	v1, v2 := bval(5, 1, 5000), bval(5, 2, 200)
	if _, existed, err := m.PutB(5, v1, nil); existed || err != nil {
		t.Fatalf("fresh: %v %v", existed, err)
	}
	ls, ok := lp.Acquire(0)
	if !ok {
		t.Fatal("lease")
	}
	ts1 := ls.TS()
	old, existed, err := m.PutB(5, v2, nil)
	if err != nil || !existed || !bytes.Equal(old, v1) {
		t.Fatalf("replace: %v %v oldlen=%d", existed, err, len(old))
	}
	// Current read sees v2; the lease timestamp still resolves v1.
	if got, ok := m.GetB(5, nil); !ok || !bytes.Equal(got, v2) {
		t.Fatal("current read")
	}
	if got, ok := m.GetAtB(ts1, 5, nil); !ok || !bytes.Equal(got, v1) {
		t.Fatalf("GetAtB(ts1) resolved %d bytes, want v1", len(got))
	}
	rows := 0
	m.ScanAtB(ts1, -1, func(key uint64, val []byte) bool {
		rows++
		if key == 5 && !bytes.Equal(val, v1) {
			t.Error("ScanAtB row mismatch")
		}
		return true
	})
	if rows != 1 {
		t.Fatalf("ScanAtB rows = %d", rows)
	}
	if ok, err := m.DeleteV(5); !ok || err != nil {
		t.Fatalf("DeleteV: %v %v", ok, err)
	}
	// The lease still sees v1 past the tombstone.
	if got, ok := m.GetAtB(ts1, 5, nil); !ok || !bytes.Equal(got, v1) {
		t.Fatal("history lost after delete")
	}
	ls.Release(0)
	// Trim: a write after the lease releases cuts superseded history and
	// the finalizer cascade frees the trimmed cells' slabs.
	if _, _, err := m.PutB(9, bval(9, 1, 100), nil); err != nil {
		t.Fatal(err)
	}
	m.Detach()
	checkByteQuiescence(t, h)
}

func TestByteCache(t *testing.T) {
	h := newByteTable(t, 32, 2)
	c := h.AttachCache()
	now := uint64(1000)
	v1, v2 := bval(3, 1, 3000), bval(3, 2, 60)

	_, existed, ref, _, err := c.PutExB(3, v1, now+100, now, nil)
	if err != nil || existed {
		t.Fatalf("fresh PutExB: %v %v", existed, err)
	}
	if ref.Word == 0 {
		t.Fatal("fresh link must yield an index ref")
	}
	got, hit, _ := c.GetExB(3, 0, now, nil)
	if !hit || !bytes.Equal(got, v1) {
		t.Fatal("GetExB")
	}
	old, existed, _, _, err := c.PutExB(3, v2, now+200, now, nil)
	if err != nil || !existed || !bytes.Equal(old, v1) {
		t.Fatalf("live replace: %v %v oldlen=%d", existed, err, len(old))
	}
	n := c.ScanLiveB(now, -1, func(key uint64, val []byte) bool {
		return key == 3 && bytes.Equal(val, v2)
	})
	if n != 1 {
		t.Fatalf("ScanLiveB = %d", n)
	}
	// Expire it; the lazy-expiry read reaps and the slab comes back.
	if _, hit, _ := c.GetExB(3, 0, now+300, nil); hit {
		t.Fatal("expired entry still hit")
	}
	if c.EvictStep(ref, now+300) != EvictGone {
		t.Fatal("index ref should observe the reaped entry as gone")
	}
	c.Reap(3)
	c.Detach()
	checkByteQuiescence(t, h)
}

// TestByteObsIdentity checks the retire pipeline bookkeeping: every ref
// a cache's in-place replace displaces through RetireValue is freed
// exactly once by an eject, so vals alloc − free == Live at quiescence
// (zero here).
func TestByteObsIdentity(t *testing.T) {
	h := newByteTable(t, 16, 1)
	c := h.AttachCache()
	for gen := uint64(0); gen < 50; gen++ {
		_, _, ref, _, err := c.PutExB(7, bval(7, gen, 9000), 0, 1, nil)
		if err != nil {
			t.Fatal(err)
		}
		if ref.Word != 0 {
			c.DropRef(ref)
		}
	}
	c.Detach()
	checkByteQuiescence(t, h)
}

// TestByteMapAllocsSteadyState pins the data-plane zero-allocation
// claim end to end: warm GetB/PutB/ScanB cycles on a map table perform
// no Go heap allocation (version cells, value slabs, and scan scratch
// all recycle, and the scan's row closure stays on the stack).
func TestByteMapAllocsSteadyState(t *testing.T) {
	h := NewVersionedHashTable(16, 1, snaplease.NewPool(1))
	h.EnableByteValues(t.Name())
	m := h.AttachMap()
	defer m.Detach()
	val := bval(11, 1, 700)
	var dst []byte
	if _, _, err := m.PutB(11, val, nil); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(300, func() {
		var err error
		dst, _, err = m.PutB(11, val, dst[:0])
		if err != nil {
			t.Fatal(err)
		}
		dst, _ = m.GetB(11, dst[:0])
		m.ScanB(-1, func(uint64, []byte) bool { return true })
	})
	if allocs != 0 {
		t.Fatalf("steady-state PutB/GetB/ScanB allocates %.1f/op, want 0", allocs)
	}
	_ = vals.NumClasses // anchor: the claim covers every inline class
}

// markOnly sets the Harris mark on key's node without unlinking it, as
// a deleter paused between its mark and its unlink leaves it (EvictStep
// does the same on purpose). Any later search of the bucket finishes the
// unlink, so only scans may follow.
func markOnly(t *testing.T, h *HashTable, key uint64) {
	t.Helper()
	m := h.attachValued()
	defer m.Detach()
	pos := m.search(h.bucket(key), key)
	defer m.releasePos(&pos)
	if !pos.found {
		t.Fatalf("markOnly: key %d absent", key)
	}
	nd := m.deref(pos.curSnap, pos.curRc)
	if !m.th.CompareAndSetMark(&nd.next, nd.next.LoadRaw(), deletedMark) {
		t.Fatalf("markOnly: key %d mark lost", key)
	}
}

// TestScanWalk drives the one bucket walk through each scan that shares
// it — ScanB on a map table, ScanLiveB on a cache table,
// ScanAtB at a lease timestamp — and checks the same contract on each:
// limit 0, 1, a few and all; an early stop when fn returns false; and
// the rows the scan must skip (marked nodes everywhere, expired entries
// for ScanLiveB, tombstones and later writes for the versioned scans).
func TestScanWalk(t *testing.T) {
	const keys = 12
	const now = uint64(1000)
	type scanFn func(limit int, fn func(key uint64, val []byte) bool) int
	cases := []struct {
		name  string
		table func(t *testing.T) *HashTable
		// setup returns the scan under test, the rows it must visit, and
		// a teardown to run before the quiescence check.
		setup func(t *testing.T, h *HashTable) (scanFn, map[uint64][]byte, func())
	}{
		{
			name:  "cache/ScanLiveB",
			table: func(t *testing.T) *HashTable { return newByteTable(t, 8, 2) },
			setup: func(t *testing.T, h *HashTable) (scanFn, map[uint64][]byte, func()) {
				c := h.AttachCache()
				want := map[uint64][]byte{}
				var refs []CacheRef
				for k := uint64(1); k <= keys; k++ {
					v := bval(k, 2, 300)
					exp := uint64(0)
					switch k {
					case 3, 7:
						exp = now - 1 // expired at now
					case 9:
						exp = now + 100 // live at now
					}
					_, _, ref, _, err := c.PutExB(k, v, exp, now-10, nil)
					if err != nil {
						t.Fatal(err)
					}
					refs = append(refs, ref)
					if k != 3 && k != 7 {
						want[k] = v
					}
				}
				markOnly(t, h, 5)
				delete(want, 5)
				scan := func(limit int, fn func(key uint64, val []byte) bool) int {
					return c.ScanLiveB(now, limit, fn)
				}
				return scan, want, func() {
					for _, ref := range refs {
						c.DropRef(ref)
					}
					c.Detach()
				}
			},
		},
		{
			name:  "versioned/ScanB",
			table: func(t *testing.T) *HashTable { return newMapTable(t, 8, 2) },
			setup: func(t *testing.T, h *HashTable) (scanFn, map[uint64][]byte, func()) {
				m, _, _, cur, release := versionedScanFixture(t, h)
				return m.ScanB, cur, release
			},
		},
		{
			name:  "versioned/ScanAtB",
			table: func(t *testing.T) *HashTable { return newMapTable(t, 8, 2) },
			setup: func(t *testing.T, h *HashTable) (scanFn, map[uint64][]byte, func()) {
				m, ts, atTS, _, release := versionedScanFixture(t, h)
				scan := func(limit int, fn func(key uint64, val []byte) bool) int {
					return m.ScanAtB(ts, limit, fn)
				}
				return scan, atTS, release
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			h := tc.table(t)
			scan, want, teardown := tc.setup(t, h)

			seen := map[uint64][]byte{}
			collect := func(key uint64, val []byte) bool {
				if _, dup := seen[key]; dup {
					t.Errorf("key %d visited twice", key)
				}
				seen[key] = append([]byte(nil), val...)
				return true
			}
			for _, limit := range []int{-1, len(want), len(want) + 5} {
				clear(seen)
				if n := scan(limit, collect); n != len(want) || len(seen) != len(want) {
					t.Fatalf("limit %d: visited %d rows (%d distinct), want %d", limit, n, len(seen), len(want))
				}
				for k, v := range want {
					if !bytes.Equal(seen[k], v) {
						t.Fatalf("limit %d: key %d visible=%v with wrong or missing bytes", limit, k, seen[k] != nil)
					}
				}
			}
			for _, limit := range []int{0, 1, 3} {
				clear(seen)
				if n := scan(limit, collect); n != limit || len(seen) != limit {
					t.Fatalf("limit %d: visited %d rows (%d distinct)", limit, n, len(seen))
				}
				for k, v := range seen {
					if !bytes.Equal(want[k], v) {
						t.Fatalf("limit %d: row %d must be skipped or has wrong bytes", limit, k)
					}
				}
			}
			calls := 0
			n := scan(-1, func(uint64, []byte) bool {
				calls++
				return calls < 3
			})
			if calls != 3 || n != 2 {
				t.Fatalf("early stop: fn called %d times, scan returned %d; want 3 and 2", calls, n)
			}

			teardown()
			checkByteQuiescence(t, h)
		})
	}
}

// versionedScanFixture writes keys 1..12, then under a retention lease
// deletes key 8, takes the scan lease ts, and after it replaces key 2,
// deletes key 4, adds key 13 and marks key 6. It returns ts, the rows
// visible as of ts and currently, and a release for both leases and the
// thread.
func versionedScanFixture(t *testing.T, h *HashTable) (m *hashThread, ts uint64, atTS, cur map[uint64][]byte, release func()) {
	t.Helper()
	lp := h.vsrc.(*snaplease.Pool)
	m = h.AttachMap().(*hashThread)
	for k := uint64(1); k <= 12; k++ {
		if _, _, err := m.PutB(k, bval(k, 1, 300), nil); err != nil {
			t.Fatal(err)
		}
	}
	// The retention lease keeps key 8's tombstone from being purged, so
	// both scans meet it as a row to skip.
	keep, ok := lp.Acquire(m.th.ProcID())
	if !ok {
		t.Fatal("lease")
	}
	if hit, err := m.DeleteV(8); !hit || err != nil {
		t.Fatalf("DeleteV(8): %v %v", hit, err)
	}
	at, ok := lp.Acquire(m.th.ProcID())
	if !ok {
		t.Fatal("lease")
	}
	ts = at.TS()
	if _, _, err := m.PutB(2, bval(2, 2, 300), nil); err != nil {
		t.Fatal(err)
	}
	if hit, err := m.DeleteV(4); !hit || err != nil {
		t.Fatalf("DeleteV(4): %v %v", hit, err)
	}
	if _, _, err := m.PutB(13, bval(13, 1, 300), nil); err != nil {
		t.Fatal(err)
	}
	markOnly(t, h, 6)
	atTS, cur = map[uint64][]byte{}, map[uint64][]byte{}
	for k := uint64(1); k <= 12; k++ {
		if k != 6 && k != 8 {
			atTS[k] = bval(k, 1, 300)
		}
		if k != 4 && k != 6 && k != 8 {
			cur[k] = bval(k, 1, 300)
		}
	}
	cur[2] = bval(2, 2, 300)
	cur[13] = bval(13, 1, 300)
	return m, ts, atTS, cur, func() {
		at.Release(0)
		keep.Release(0)
		m.Detach()
	}
}

// TestAttachRequiresValuePlane pins the attach guards: map and cache
// threads exist only on a table with a value plane, and map threads only
// on a versioned one, so a table that lacks either is refused at attach
// rather than on every operation. The set API stays available on such a
// table.
func TestAttachRequiresValuePlane(t *testing.T) {
	plain := func() *HashTable { return NewHashTable(16, 2, true) }
	versioned := func() *HashTable { return NewVersionedHashTable(16, 2, snaplease.NewPool(2)) }
	valued := func() *HashTable {
		h := plain()
		h.EnableByteValues("")
		return h
	}
	attachMap := func(h *HashTable) { h.AttachMap() }
	attachCache := func(h *HashTable) { h.AttachCache() }
	cases := []struct {
		name   string
		table  func() *HashTable
		attach func(h *HashTable)
	}{
		{"plain/AttachMap", plain, attachMap},
		{"plain/AttachCache", plain, attachCache},
		{"versioned/AttachMap", versioned, attachMap},
		{"versioned/AttachCache", versioned, attachCache},
		{"unversioned/AttachMap", valued, attachMap},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			h := tc.table()
			func() {
				defer func() {
					if recover() == nil {
						t.Fatalf("%s did not panic", tc.name)
					}
				}()
				tc.attach(h)
			}()
			// The refused attach took no processor id: both ids are
			// still free for the set API.
			a, b := h.Attach(), h.Attach()
			a.Insert(1)
			if !b.Contains(1) {
				t.Fatal("set API broken after a refused attach")
			}
			a.Delete(1)
			a.Detach()
			b.Detach()
		})
	}
}
