package server

import (
	"bufio"
	"bytes"
	"math/rand"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"cdrc/internal/chaos"
	"cdrc/internal/obs"
)

// valFor tags a value with its key so a misordered or misrouted reply is
// detectable by inspection (same idea as cmd/cdrc-load's valTag).
func valFor(key uint64) uint64 { return key*2654435761 + 12345 }

// TestPipelinedOrdering is the pipelined-ordering property test: N
// connections each fire K requests in windows of `depth` without waiting,
// while a deterministic chaos schedule crashes workers. Per connection it
// asserts reply conservation (every request gets exactly one reply, in
// order) and value integrity: each GET targets a key unique to its
// position in the request stream, so any reordering or cross-wiring of
// replies surfaces as a wrong value. Crashes map to -BUSY; after Close
// the store must be fully reclaimed.
func TestPipelinedOrdering(t *testing.T) {
	chaos.Enable(chaos.Config{
		Seed:        99,
		CrashBudget: 4,
		Faults: map[string]chaos.Fault{
			"server.worker.op": {Every: 151, Crash: true},
		},
	})
	defer chaos.Disable()

	const (
		nConns = 4
		nKeys  = 256 // per connection
		rounds = 3
		depth  = 16
	)
	s := newTestServer(t, Config{Shards: 4, Workers: 4, ExpectedKeys: 1 << 12, MaxPipeline: depth})

	var wg sync.WaitGroup
	var hardFails atomic.Int64
	for c := 0; c < nConns; c++ {
		wg.Add(1)
		go func(conn int) {
			defer wg.Done()
			cl, err := Dial(s.Addr())
			if err != nil {
				hardFails.Add(1)
				return
			}
			defer cl.Close()
			base := uint64(conn * nKeys)
			var b Batch
			results := make([]Result, 0, depth)

			// Seed this connection's key partition (retrying BUSYs), so
			// the GET phase has a known expected value per key.
			bo := Backoff{Attempts: 64, Seed: uint64(conn)}
			for k := base; k < base+nKeys; k++ {
				err := RetryBusy(bo, func() error { _, _, err := cl.Put(k, tb(valFor(k))); return err })
				if err != nil {
					t.Errorf("conn %d: seed Put(%d): %v", conn, k, err)
					hardFails.Add(1)
					return
				}
			}

			// Pipelined phase: windows of GET/PUT/DEL-free requests whose
			// expected reply is fully determined by position.
			rng := rand.New(rand.NewSource(int64(conn)*7 + 3))
			for r := 0; r < rounds; r++ {
				for off := 0; off < nKeys; off += depth {
					b.Reset()
					keys := make([]uint64, 0, depth)
					for j := 0; j < depth && off+j < nKeys; j++ {
						k := base + uint64(rng.Intn(nKeys))
						keys = append(keys, k)
						b.Get(k)
					}
					results = results[:0]
					results, err = cl.DoBatch(&b, results)
					if err != nil {
						t.Errorf("conn %d: DoBatch: %v", conn, err)
						hardFails.Add(1)
						return
					}
					if len(results) != len(keys) {
						t.Errorf("conn %d: %d requests got %d replies", conn, len(keys), len(results))
						hardFails.Add(1)
						return
					}
					for i, res := range results {
						if res.Busy {
							continue // crash or shed; no effect
						}
						if !res.Found || bu(res.Bytes) != valFor(keys[i]) {
							t.Errorf("conn %d: reply %d for GET %d = (%d,%v), want %d: replies misordered",
								conn, i, keys[i], bu(res.Bytes), res.Found, valFor(keys[i]))
							hardFails.Add(1)
							return
						}
					}
				}
			}
		}(c)
	}
	wg.Wait()
	if hardFails.Load() != 0 {
		t.Fatalf("%d connections failed hard", hardFails.Load())
	}
	if chaos.Crashes() == 0 {
		t.Fatal("no simulated crash fired; the schedule exercised nothing")
	}
	chaos.Disable() // teardown must run clean
	if err := s.Close(); err != nil {
		t.Fatalf("Close after %d crashes: %v", chaos.Crashes(), err)
	}
	if live := s.Live(); live != 0 {
		t.Fatalf("Live() = %d after Close, want 0", live)
	}
}

// TestServerGetZeroAlloc pins the acceptance bar on the request hot
// path: a pipelined GET on an existing key must allocate nothing on the
// server once the per-connection ring is warm. The client side of this
// test is also allocation-free (Batch reuse, ReadSlice replies), so the
// whole loopback round trip is measured: any per-request allocation on
// either side fails the budget.
func TestServerGetZeroAlloc(t *testing.T) {
	s, err := New(Config{Shards: 2, Workers: 2, ExpectedKeys: 1 << 10})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer s.Close()
	cl, err := Dial(s.Addr())
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer cl.Close()

	const nKeys = 64
	for k := uint64(0); k < nKeys; k++ {
		if _, _, err := cl.Put(k, tb(valFor(k))); err != nil {
			t.Fatalf("seed Put(%d): %v", k, err)
		}
	}

	const depth = 16
	var b Batch
	results := make([]Result, 0, depth)
	round := func() {
		b.Reset()
		for j := 0; j < depth; j++ {
			b.Get(uint64(j % nKeys))
		}
		var err error
		results, err = cl.DoBatch(&b, results[:0])
		if err != nil {
			t.Fatalf("DoBatch: %v", err)
		}
		for i, res := range results {
			if res.Busy || !res.Found || bu(res.Bytes) != valFor(uint64(i%nKeys)) {
				t.Fatalf("reply %d = %+v, want hit %d", i, res, valFor(uint64(i%nKeys)))
			}
		}
	}
	// Warm every buffer on both sides: slot scratch, bufio, batch, results.
	for i := 0; i < 50; i++ {
		round()
	}
	const roundsPerRun = 64
	allocs := testing.AllocsPerRun(10, func() {
		for i := 0; i < roundsPerRun; i++ {
			round()
		}
	})
	perRequest := allocs / (roundsPerRun * depth)
	t.Logf("allocs: %.2f per run, %.4f per request", allocs, perRequest)
	if perRequest > 0.05 {
		t.Fatalf("pipelined GET hot path allocates %.4f per request, want 0", perRequest)
	}
}

// TestServerValueRepliesZeroAlloc extends the zero-allocation bar to
// replies that carry kilobytes: windows of PUTs that replace 3 KiB values
// (each answered +OLD with the displaced value) and a SNAPSCAN 64 over
// 3 KiB rows. The client side reads the scan rows with ReadSlice and
// Discard, so it allocates nothing either; any per-request allocation
// on the server's value or scan reply path fails the budget.
func TestServerValueRepliesZeroAlloc(t *testing.T) {
	s, err := New(Config{Shards: 4, Workers: 4, ExpectedKeys: 1 << 10})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer s.Close()
	cl, err := Dial(s.Addr())
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer cl.Close()

	const nKeys, valLen, depth, scanRows = 256, 3 << 10, 16, 64
	vals := [2][]byte{bytes.Repeat([]byte{'a'}, valLen), bytes.Repeat([]byte{'b'}, valLen)}
	for k := uint64(0); k < nKeys; k++ {
		if _, _, err := cl.Put(k, vals[0]); err != nil {
			t.Fatalf("seed Put(%d): %v", k, err)
		}
	}
	var b Batch
	results := make([]Result, 0, depth)
	next := uint64(0)
	puts := func() {
		b.Reset()
		for j := 0; j < depth; j++ {
			k := next % nKeys
			b.Put(k, vals[(next/nKeys+1)%2])
			next++
		}
		var err error
		if results, err = cl.DoBatch(&b, results[:0]); err != nil {
			t.Fatalf("DoBatch: %v", err)
		}
		for i, res := range results {
			if res.Busy || !res.Found || len(res.Bytes) != valLen {
				t.Fatalf("PUT reply %d: busy %v found %v, %d B, want +OLD of %d B",
					i, res.Busy, res.Found, len(res.Bytes), valLen)
			}
		}
	}
	snapScan := func() {
		cl.bw.WriteString("SNAPSCAN 64\n")
		if err := cl.bw.Flush(); err != nil {
			t.Fatalf("SNAPSCAN send: %v", err)
		}
		line, err := cl.br.ReadSlice('\n')
		if err != nil || string(line) != "*64\n" {
			t.Fatalf("SNAPSCAN header %q, %v, want *%d", line, err, scanRows)
		}
		for i := 0; i < scanRows; i++ {
			row, err := cl.br.ReadSlice('\n')
			if err != nil {
				t.Fatalf("SNAPSCAN row %d: %v", i, err)
			}
			n, ok := parseUintBytes(row[bytes.LastIndexByte(row, ' ')+1 : len(row)-1])
			if !ok || n != valLen {
				t.Fatalf("SNAPSCAN row %d header %q, want a %d B value", i, row, valLen)
			}
			if _, err := cl.br.Discard(int(n) + 1); err != nil {
				t.Fatalf("SNAPSCAN row %d body: %v", i, err)
			}
		}
	}
	round := func() {
		puts()
		snapScan()
	}
	// Warm the slot scratch, both bufio buffers, the arena's value slabs
	// and the version chains' steady state.
	for i := 0; i < 100; i++ {
		round()
	}
	const roundsPerRun = 32
	allocs := testing.AllocsPerRun(10, func() {
		for i := 0; i < roundsPerRun; i++ {
			round()
		}
	})
	perRequest := allocs / (roundsPerRun * (depth + 1))
	t.Logf("allocs: %.2f per run, %.4f per request", allocs, perRequest)
	if perRequest > 0.05 {
		t.Fatalf("PUT +OLD and SNAPSCAN replies allocate %.4f per request, want 0", perRequest)
	}
}

// TestOversizedLine sends a request line longer than the server's read
// buffer. The old bufio.Scanner-based loop silently dropped the
// connection; the server must instead reply "-ERR line too long",
// resynchronize at the newline, and keep serving.
func TestOversizedLine(t *testing.T) {
	s := newTestServer(t, Config{Shards: 1, Workers: 1, ExpectedKeys: 64})
	defer s.Close()
	c, err := net.Dial("tcp", s.Addr())
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer c.Close()

	// One oversized garbage line, then a well-formed pipelined pair.
	huge := bytes.Repeat([]byte("x"), maxLine+512)
	huge = append(huge, '\n')
	if _, err := c.Write(huge); err != nil {
		t.Fatalf("write oversized line: %v", err)
	}
	if _, err := c.Write([]byte("PUT 5 2\nhi\nGET 5\n")); err != nil {
		t.Fatalf("write follow-up: %v", err)
	}
	br := bufio.NewReader(c)
	want := []string{"-ERR line too long", "+NEW", "+VAL 2", "hi"}
	for i, w := range want {
		line, err := br.ReadString('\n')
		if err != nil {
			t.Fatalf("reply %d: connection died (%v); server did not resynchronize", i, err)
		}
		if got := strings.TrimRight(line, "\r\n"); got != w {
			t.Fatalf("reply %d = %q, want %q", i, got, w)
		}
	}
}

// TestConnAccounting pins the server.conns/server.disconn pairing: after
// every client is gone and the server is closed, accepts == disconnects
// (live connections back to 0).
func TestConnAccounting(t *testing.T) {
	if !obs.BuildEnabled {
		t.Skip("obs compiled out (-tags obsoff)")
	}
	obs.Enable()
	defer obs.Disable()
	s := newTestServer(t, Config{Shards: 1, Workers: 1, ExpectedKeys: 64})
	const n = 5
	for i := 0; i < n; i++ {
		cl := dialTest(t, s)
		if err := cl.Ping(); err != nil {
			t.Fatalf("Ping: %v", err)
		}
		cl.Close()
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	r := obs.Snapshot()
	conns, disconns := r.Counter("server.conns"), r.Counter("server.disconn")
	if conns == 0 {
		t.Fatal("server.conns never incremented")
	}
	if conns != disconns {
		t.Fatalf("server.conns=%d != server.disconn=%d after teardown: connection leak", conns, disconns)
	}
}

// TestScanTruncation covers the fan-out SCAN's assembly: entries spread
// over every shard, a limit below the total must return exactly limit
// rows, each well-formed.
func TestScanTruncation(t *testing.T) {
	s := newTestServer(t, Config{Shards: 4, Workers: 4, ExpectedKeys: 256})
	defer s.Close()
	cl := dialTest(t, s)
	defer cl.Close()
	for k := uint64(0); k < 100; k++ {
		if _, _, err := cl.Put(k, tb(valFor(k))); err != nil {
			t.Fatalf("Put(%d): %v", k, err)
		}
	}
	ents, err := cl.Scan(7)
	if err != nil {
		t.Fatalf("Scan(7): %v", err)
	}
	if len(ents) != 7 {
		t.Fatalf("Scan(7) returned %d entries", len(ents))
	}
	for _, e := range ents {
		if bu(e.Val) != valFor(e.Key) {
			t.Fatalf("Scan row %d -> %d torn (want %d)", e.Key, bu(e.Val), valFor(e.Key))
		}
	}
	// A limit above the population returns everything exactly once.
	all, err := cl.Scan(1000)
	if err != nil {
		t.Fatalf("Scan(1000): %v", err)
	}
	if len(all) != 100 {
		t.Fatalf("Scan(1000) returned %d entries, want 100", len(all))
	}
	seen := make(map[uint64]bool)
	for _, e := range all {
		if seen[e.Key] {
			t.Fatalf("Scan returned key %d twice", e.Key)
		}
		seen[e.Key] = true
	}
}

// TestPipelineDepthBeatsLockstep is a smoke-scale sanity check of the
// whole point of the pipeline: depth-16 batches must complete a fixed op
// count in less wall time than depth-1 lock-step on loopback. The full
// gate with margins lives in scripts/check.sh; here we only require
// "not slower" to stay flake-free under -race.
func TestPipelineDepthBeatsLockstep(t *testing.T) {
	if testing.Short() {
		t.Skip("timing test")
	}
	s := newTestServer(t, Config{Shards: 4, Workers: 4, ExpectedKeys: 1 << 12})
	defer s.Close()
	cl := dialTest(t, s)
	defer cl.Close()
	for k := uint64(0); k < 1024; k++ {
		if _, _, err := cl.Put(k, tb(k)); err != nil {
			t.Fatalf("seed: %v", err)
		}
	}
	const ops = 4096
	run := func(depth int) (nsPerOp float64) {
		var b Batch
		results := make([]Result, 0, depth)
		start := time.Now()
		for i := 0; i < ops; i += depth {
			b.Reset()
			for j := 0; j < depth; j++ {
				b.Get(uint64((i + j) % 1024))
			}
			var err error
			results, err = cl.DoBatch(&b, results[:0])
			if err != nil {
				t.Fatalf("DoBatch(depth=%d): %v", depth, err)
			}
		}
		return float64(time.Since(start)) / ops
	}
	run(1) // warm both paths
	d1 := run(1)
	d16 := run(16)
	t.Logf("depth=1 %.0f ns/op, depth=16 %.0f ns/op (%.1fx)", d1, d16, d1/d16)
	if d16 > d1*1.2 {
		t.Fatalf("depth-16 pipelining slower than lock-step: %.0f vs %.0f ns/op", d16, d1)
	}
}
