package server

import (
	"bufio"
	"bytes"
	"encoding/json"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"cdrc/internal/chaos"
	"cdrc/internal/obs"
)

// TestScanRowCap pins the fan-out row cap: a SCAN's limit bounds the
// TOTAL reply, not each shard's share. The regression this guards
// (each of 4 shards returning `limit` rows, so a SCAN 10 over 120 keys
// answered 40 rows) only shows with limit < rows-per-shard.
func TestScanRowCap(t *testing.T) {
	s := newTestServer(t, Config{Shards: 4, Workers: 4, ExpectedKeys: 256})
	cl := dialTest(t, s)
	defer cl.Close()

	const keys = 120
	for k := uint64(0); k < keys; k++ {
		if _, _, err := cl.Put(k, tb(k)); err != nil {
			t.Fatalf("Put(%d): %v", k, err)
		}
	}
	// 120 keys over 4 shards: every shard holds far more than 10 rows.
	ents, err := cl.Scan(10)
	if err != nil {
		t.Fatalf("Scan(10): %v", err)
	}
	if len(ents) != 10 {
		t.Fatalf("Scan(10) returned %d rows, want exactly 10", len(ents))
	}
	if ents, err = cl.Scan(1000); err != nil || len(ents) != keys {
		t.Fatalf("Scan(1000) = %d rows, err %v, want %d", len(ents), err, keys)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if live := s.Live(); live != 0 {
		t.Fatalf("Live() = %d after Close, want 0", live)
	}
}

// TestSnapScanRowCap is the same cap pin for the snapshot scan.
func TestSnapScanRowCap(t *testing.T) {
	s := newTestServer(t, Config{Shards: 4, Workers: 4, ExpectedKeys: 256})
	cl := dialTest(t, s)
	defer cl.Close()

	const keys = 120
	for k := uint64(0); k < keys; k++ {
		if _, _, err := cl.Put(k, tb(k)); err != nil {
			t.Fatalf("Put(%d): %v", k, err)
		}
	}
	ents, err := cl.SnapScan(10)
	if err != nil {
		t.Fatalf("SnapScan(10): %v", err)
	}
	if len(ents) != 10 {
		t.Fatalf("SnapScan(10) returned %d rows, want exactly 10", len(ents))
	}
	if ents, err = cl.SnapScan(1000); err != nil || len(ents) != keys {
		t.Fatalf("SnapScan(1000) = %d rows, err %v, want %d", len(ents), err, keys)
	}
	if got := s.ActiveLeases(); got != 0 {
		t.Fatalf("ActiveLeases() = %d after replies, want 0", got)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if live := s.Live(); live != 0 {
		t.Fatalf("Live() = %d after Close, want 0", live)
	}
}

// TestScanAfterScanSlotReuse drives SCAN and SNAPSCAN repeatedly over
// one connection so each request recycles the previous one's slot.
// The regression this guards: a recycled slot whose scanState still
// held the previous scan's segments (replica/unhosted shards skip
// rendering, and assemble once trusted whatever the segment buffers
// contained), so a scan after deleting everything replayed stale rows.
func TestScanAfterScanSlotReuse(t *testing.T) {
	s := newTestServer(t, Config{Shards: 2, Workers: 2, ExpectedKeys: 128})
	cl := dialTest(t, s)
	defer cl.Close()

	const keys = 50
	for k := uint64(0); k < keys; k++ {
		if _, _, err := cl.Put(k, tb(k+1)); err != nil {
			t.Fatalf("Put(%d): %v", k, err)
		}
	}
	for _, scan := range []struct {
		name string
		fn   func(int) ([]Entry, error)
	}{{"Scan", cl.Scan}, {"SnapScan", cl.SnapScan}} {
		ents, err := scan.fn(1000)
		if err != nil {
			t.Fatalf("%s(full): %v", scan.name, err)
		}
		if len(ents) != keys {
			t.Fatalf("%s(full) = %d rows, want %d", scan.name, len(ents), keys)
		}
	}
	for k := uint64(0); k < keys; k++ {
		if hit, err := cl.Del(k); err != nil || !hit {
			t.Fatalf("Del(%d) = %v, %v", k, hit, err)
		}
	}
	// The same connection's slots now recycle with warm scan buffers; an
	// empty keyspace must produce empty replies.
	for _, scan := range []struct {
		name string
		fn   func(int) ([]Entry, error)
	}{{"Scan", cl.Scan}, {"SnapScan", cl.SnapScan}} {
		ents, err := scan.fn(1000)
		if err != nil {
			t.Fatalf("%s(empty): %v", scan.name, err)
		}
		if len(ents) != 0 {
			t.Fatalf("%s after deleting all keys returned %d stale rows: %v", scan.name, len(ents), ents)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if live := s.Live(); live != 0 {
		t.Fatalf("Live() = %d after Close, want 0", live)
	}
}

// TestMGetBasic checks MGET hit/miss rendering, request-order replies,
// and arity policing (0 keys and >8 keys are -ERR, and the connection
// survives both).
func TestMGetBasic(t *testing.T) {
	s := newTestServer(t, Config{Shards: 4, Workers: 4, ExpectedKeys: 256})
	cl := dialTest(t, s)
	defer cl.Close()

	for k := uint64(0); k < 10; k++ {
		if _, _, err := cl.Put(k, tb(100+k)); err != nil {
			t.Fatalf("Put(%d): %v", k, err)
		}
	}
	res, err := cl.MGet(3, 77, 0, 9, 3)
	if err != nil {
		t.Fatalf("MGet: %v", err)
	}
	want := []struct {
		val   uint64
		found bool
	}{
		{103, true},
		{0, false},
		{100, true},
		{109, true},
		{103, true},
	}
	for i, w := range want {
		if res[i].Found != w.found || (w.found && bu(res[i].Bytes) != w.val) {
			t.Fatalf("MGet result[%d] = %+v, want (%d,%v)", i, res[i], w.val, w.found)
		}
	}
	if _, err := cl.roundTrip("MGET"); err == nil {
		t.Fatal("MGET with no keys did not error")
	}
	if _, err := cl.roundTrip("MGET 1 2 3 4 5 6 7 8 9"); err == nil {
		t.Fatal("MGET with 9 keys did not error")
	}
	if err := cl.Ping(); err != nil {
		t.Fatalf("Ping after -ERR: %v", err)
	}
	if got := s.ActiveLeases(); got != 0 {
		t.Fatalf("ActiveLeases() = %d after replies, want 0", got)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if live := s.Live(); live != 0 {
		t.Fatalf("Live() = %d after Close, want 0", live)
	}
}

// TestMGetSnapScanConsistentUnderWrites is the point-in-time acceptance
// bar. A writer bumps ka then kb (different shards) to the same version
// in that order, so at every instant val(ka) ∈ {val(kb), val(kb)+1}.
// A torn multi-key read can observe kb's new version with ka's old one;
// a snapshot read never can.
func TestMGetSnapScanConsistentUnderWrites(t *testing.T) {
	const shards = 4
	s := newTestServer(t, Config{Shards: shards, Workers: 4, ExpectedKeys: 256})
	defer func() {
		if err := s.Close(); err != nil {
			t.Fatalf("Close: %v", err)
		}
		if live := s.Live(); live != 0 {
			t.Fatalf("Live() = %d after Close, want 0", live)
		}
	}()

	ka := uint64(1)
	kb := uint64(2)
	for KeyShard(kb, shards) == KeyShard(ka, shards) {
		kb++
	}
	w := dialTest(t, s)
	defer w.Close()
	if _, _, err := w.Put(ka, tb(0)); err != nil {
		t.Fatalf("Put(ka): %v", err)
	}
	if _, _, err := w.Put(kb, tb(0)); err != nil {
		t.Fatalf("Put(kb): %v", err)
	}

	stop := make(chan struct{})
	var writerErr atomic.Value
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		bo := Backoff{Seed: 9}
		put := func(k, v uint64) error {
			return RetryBusy(bo, func() error { _, _, err := w.Put(k, tb(v)); return err })
		}
		for v := uint64(1); ; v++ {
			select {
			case <-stop:
				return
			default:
			}
			if err := put(ka, v); err != nil {
				writerErr.Store(err)
				return
			}
			if err := put(kb, v); err != nil {
				writerErr.Store(err)
				return
			}
		}
	}()

	check := func(kind string, va, vb uint64) {
		if vb > va || va-vb > 1 {
			t.Errorf("%s tore the snapshot: val(ka)=%d val(kb)=%d (want vb <= va <= vb+1)", kind, va, vb)
		}
	}
	var rg sync.WaitGroup
	for r := 0; r < 2; r++ {
		rg.Add(1)
		go func(seed uint64) {
			defer rg.Done()
			cl := dialTest(t, s)
			defer cl.Close()
			bo := Backoff{Seed: seed}
			for i := 0; i < 200; i++ {
				var res []Result
				if err := RetryBusy(bo, func() error {
					var e error
					res, e = cl.MGet(ka, kb)
					return e
				}); err != nil {
					t.Errorf("MGet: %v", err)
					return
				}
				if !res[0].Found || !res[1].Found {
					t.Errorf("MGet lost a pre-seeded key: %+v", res)
					return
				}
				check("MGET", bu(res[0].Bytes), bu(res[1].Bytes))

				var ents []Entry
				if err := RetryBusy(bo, func() error {
					var e error
					ents, e = cl.SnapScan(1000)
					return e
				}); err != nil {
					t.Errorf("SnapScan: %v", err)
					return
				}
				va, vb := uint64(0), uint64(0)
				var fa, fb bool
				for _, e := range ents {
					switch e.Key {
					case ka:
						va, fa = bu(e.Val), true
					case kb:
						vb, fb = bu(e.Val), true
					}
				}
				if !fa || !fb {
					t.Errorf("SnapScan lost a pre-seeded key: %v", ents)
					return
				}
				check("SNAPSCAN", va, vb)
			}
		}(uint64(r) + 1)
	}
	rg.Wait()
	close(stop)
	wg.Wait()
	if err := writerErr.Load(); err != nil {
		t.Fatalf("writer: %v", err)
	}
	if got := s.ActiveLeases(); got != 0 {
		t.Fatalf("ActiveLeases() = %d at quiescence, want 0", got)
	}
}

// TestSnapLeaseExhaustion pins the lease-pool shed path: with a single
// lease and stalled workers, concurrent snapshot reads must split into
// served + -BUSY with nothing lost, the shed must be accounted to
// busy.lease, and the pool must drain back to zero.
func TestSnapLeaseExhaustion(t *testing.T) {
	obs.Enable()
	defer obs.Disable()
	chaos.Enable(chaos.Config{
		Seed: 5,
		Faults: map[string]chaos.Fault{
			"server.worker.op": {Every: 1, Sleep: 2 * time.Millisecond},
		},
	})
	defer chaos.Disable()
	s := newTestServer(t, Config{Shards: 2, Workers: 2, ExpectedKeys: 128, SnapLeases: 1})

	seed := dialTest(t, s)
	for k := uint64(0); k < 16; k++ {
		if _, _, err := seed.Put(k, tb(k)); err != nil && err != ErrBusy {
			t.Fatalf("Put(%d): %v", k, err)
		}
	}
	seed.Close()

	var ok, busy atomic.Int64
	var wg sync.WaitGroup
	const conns, per = 4, 20
	for i := 0; i < conns; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cl, err := Dial(s.Addr())
			if err != nil {
				t.Errorf("Dial: %v", err)
				return
			}
			defer cl.Close()
			for j := 0; j < per; j++ {
				switch _, err := cl.SnapScan(100); err {
				case nil:
					ok.Add(1)
				case ErrBusy:
					busy.Add(1)
				default:
					t.Errorf("SnapScan: %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if got := ok.Load() + busy.Load(); got != conns*per {
		t.Fatalf("ok(%d) + busy(%d) = %d, want %d", ok.Load(), busy.Load(), got, conns*per)
	}
	if busy.Load() == 0 {
		t.Fatal("single-lease pool under stalled workers shed nothing; lease backpressure untested")
	}
	if ok.Load() == 0 {
		t.Fatal("no SNAPSCAN was served")
	}
	if got := s.ActiveLeases(); got != 0 {
		t.Fatalf("ActiveLeases() = %d at quiescence, want 0", got)
	}

	// The shed must be visible as busy.lease in the stats report.
	cl := dialTest(t, s)
	stats, err := cl.Stats()
	if err != nil {
		t.Fatalf("Stats: %v", err)
	}
	cl.Close()
	var rep struct {
		Counters map[string]int64 `json:"counters"`
	}
	if err := json.Unmarshal(stats, &rep); err != nil {
		t.Fatalf("Stats JSON: %v", err)
	}
	if rep.Counters["server.busy.lease"] == 0 {
		t.Fatalf("server.busy.lease = 0 with %d client -BUSYs", busy.Load())
	}
	chaos.Disable()
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if live := s.Live(); live != 0 {
		t.Fatalf("Live() = %d after Close, want 0", live)
	}
}

// TestCrashDuringSnapScanReleasesLease crashes a worker mid-SNAPSCAN at
// the core.snapshot.acquired boundary (the dying thread holds only
// announcements, never a counted reference) and requires the abandoned
// request's lease back: the crash BUSYs the in-flight request, the
// adoption path reclaims the worker's state, and the lease pool drains
// to zero before the pid's successor serves the retry.
func TestCrashDuringSnapScanReleasesLease(t *testing.T) {
	s := newTestServer(t, Config{Shards: 2, Workers: 2, ExpectedKeys: 128})
	cl := dialTest(t, s)
	defer cl.Close()
	for k := uint64(0); k < 32; k++ {
		if _, _, err := cl.Put(k, tb(k+1)); err != nil {
			t.Fatalf("Put(%d): %v", k, err)
		}
	}

	chaos.Enable(chaos.Config{
		Seed:        3,
		CrashBudget: 1,
		Faults: map[string]chaos.Fault{
			"core.snapshot.acquired": {Prob: 1, Crash: true},
		},
	})
	// The first snapshot acquisition inside a worker's ScanAt dies; the
	// crashed share fails the slot, so the client sees -BUSY (or a full
	// reply if the budget burned on another share's earlier op).
	if _, err := cl.SnapScan(1000); err != nil && err != ErrBusy {
		t.Fatalf("SnapScan under crash: %v", err)
	}
	if chaos.Crashes() == 0 {
		chaos.Disable()
		t.Fatal("no simulated crash fired; test exercised nothing")
	}
	if got := s.ActiveLeases(); got != 0 {
		chaos.Disable()
		t.Fatalf("ActiveLeases() = %d after crashed SNAPSCAN, want 0 (lease leaked)", got)
	}
	// Budget exhausted: the respawned worker must serve the retry.
	ents, err := cl.SnapScan(1000)
	if err != nil {
		t.Fatalf("SnapScan retry after crash: %v", err)
	}
	if len(ents) != 32 {
		t.Fatalf("SnapScan retry = %d rows, want 32", len(ents))
	}
	if got := s.ActiveLeases(); got != 0 {
		chaos.Disable()
		t.Fatalf("ActiveLeases() = %d after retry, want 0", got)
	}
	chaos.Disable() // teardown must run clean
	if err := s.Close(); err != nil {
		t.Fatalf("Close after crash: %v", err)
	}
	if live := s.Live(); live != 0 {
		t.Fatalf("Live() = %d after Close, want 0", live)
	}
}

// TestClusterScanCap checks the fanned-out cluster sweep: the row cap
// is global across nodes and no key is reported twice.
func TestClusterScanCap(t *testing.T) {
	srvs := startTestCluster(t, 3, clusterTestConfig())
	peers := peersOf(srvs)
	shards := srvs[0].NumShards()
	cc := NewClusterClient(peers, shards, Backoff{Seed: 2})
	defer cc.Close()

	const keys = 200
	for k := uint64(0); k < keys; k++ {
		if _, _, err := cc.Put(k, tb(k*7)); err != nil {
			t.Fatalf("cluster Put(%d): %v", k, err)
		}
	}
	for _, scan := range []struct {
		name string
		fn   func(int) ([]Entry, error)
	}{{"Scan", cc.Scan}, {"SnapScan", cc.SnapScan}} {
		ents, err := scan.fn(10)
		if err != nil {
			t.Fatalf("cluster %s(10): %v", scan.name, err)
		}
		if len(ents) != 10 {
			t.Fatalf("cluster %s(10) = %d rows, want exactly 10", scan.name, len(ents))
		}
		full, err := scan.fn(1000)
		if err != nil {
			t.Fatalf("cluster %s(1000): %v", scan.name, err)
		}
		seen := make(map[uint64]uint64, len(full))
		for _, e := range full {
			if old, dup := seen[e.Key]; dup {
				t.Fatalf("cluster %s reported key %d twice (%d, %d)", scan.name, e.Key, old, bu(e.Val))
			}
			seen[e.Key] = bu(e.Val)
		}
		if len(full) != keys {
			t.Fatalf("cluster %s(1000) = %d rows, want %d", scan.name, len(full), keys)
		}
	}
	for i, s := range srvs {
		if err := s.Close(); err != nil {
			t.Fatalf("Close node %d: %v", i, err)
		}
		if live := s.Live(); live != 0 {
			t.Fatalf("node %d Live() = %d after Close, want 0", i, live)
		}
	}
}

// TestScanLimitIsPrefixOfFullScan pins the per-share row budget: each
// shard's share scans only the rows the cap still allows, so a capped
// scan must return exactly the first min(limit, keys) rows of the full
// scan, in the same order with the same values. The limits straddle
// every shard boundary of the full scan, where a budget that ran out one
// row early or late would show.
func TestScanLimitIsPrefixOfFullScan(t *testing.T) {
	const shards, keys = 4, 120
	// Values of varied length, tagged with their key.
	val := func(k uint64) []byte {
		return append(tb(k), bytes.Repeat([]byte{byte(k)}, int(k*37%300))...)
	}
	m := newTestServer(t, Config{Shards: shards, Workers: shards, ExpectedKeys: 256})
	mcl := dialTest(t, m)
	defer mcl.Close()
	c, ccl := newCacheServer(t, Config{Shards: shards, Workers: shards, ExpectedKeys: 256})
	defer ccl.Close()
	for k := uint64(0); k < keys; k++ {
		if _, _, err := mcl.Put(k, val(k)); err != nil {
			t.Fatalf("Put(%d): %v", k, err)
		}
		if _, _, err := ccl.SetEx(k, val(k), 0); err != nil {
			t.Fatalf("SetEx(%d): %v", k, err)
		}
	}
	for _, scan := range []struct {
		name string
		fn   func(int) ([]Entry, error)
	}{{"Scan", mcl.Scan}, {"SnapScan", mcl.SnapScan}, {"cache Scan", ccl.Scan}} {
		full, err := scan.fn(1000)
		if err != nil {
			t.Fatalf("%s(1000): %v", scan.name, err)
		}
		if len(full) != keys {
			t.Fatalf("%s(1000) = %d rows, want %d", scan.name, len(full), keys)
		}
		limits := []int{1, 7, 119, 120, 1000}
		for i := 1; i < len(full); i++ {
			if KeyShard(full[i].Key, shards) != KeyShard(full[i-1].Key, shards) {
				limits = append(limits, i-1, i, i+1)
			}
		}
		for _, limit := range limits {
			got, err := scan.fn(limit)
			if err != nil {
				t.Fatalf("%s(%d): %v", scan.name, limit, err)
			}
			want := full[:min(limit, keys)]
			if len(got) != len(want) {
				t.Fatalf("%s(%d) = %d rows, want %d", scan.name, limit, len(got), len(want))
			}
			for i := range want {
				if got[i].Key != want[i].Key || !bytes.Equal(got[i].Val, want[i].Val) {
					t.Fatalf("%s(%d) row %d = key %d (%d B), want key %d (%d B)",
						scan.name, limit, i, got[i].Key, len(got[i].Val), want[i].Key, len(want[i].Val))
				}
			}
		}
	}
	if err := m.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := c.Close(); err != nil {
		t.Fatalf("cache Close: %v", err)
	}
}

// TestClientRejectsBadScanCount feeds the client scan replies whose row
// count no request could produce: a negative count, and one above the
// requested limit. Both must come back as errors, not as a panic in
// sizing the result slice.
func TestClientRejectsBadScanCount(t *testing.T) {
	for _, tc := range []struct {
		name  string
		reply string
		limit int
	}{
		{"negative", "*-1\n", 10},
		{"negative without limit", "*-1\n", 0},
		{"above limit", "*11\n", 10},
		{"huge without limit", "*9223372036854775807\n", 0},
	} {
		for _, verb := range []string{"SCAN", "SNAPSCAN"} {
			srv, conn := net.Pipe()
			go func() {
				defer srv.Close()
				if _, err := bufio.NewReader(srv).ReadString('\n'); err == nil {
					srv.Write([]byte(tc.reply))
				}
			}()
			cl := NewClient(conn)
			var err error
			if verb == "SCAN" {
				_, err = cl.Scan(tc.limit)
			} else {
				_, err = cl.SnapScan(tc.limit)
			}
			cl.Close()
			if err == nil {
				t.Fatalf("%s %s reply %q: no error", tc.name, verb, tc.reply)
			}
		}
	}
}
