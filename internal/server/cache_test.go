package server

import (
	"errors"
	"strings"
	"testing"
	"time"
)

func newCacheServer(t *testing.T, cfg Config) (*Server, *Client) {
	t.Helper()
	cfg.CacheMode = true
	cfg.DebugChecks = true
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cl, err := Dial(s.Addr())
	if err != nil {
		s.Close()
		t.Fatal(err)
	}
	return s, cl
}

func TestServerCacheVerbs(t *testing.T) {
	s, cl := newCacheServer(t, Config{Shards: 2, Workers: 2, ExpectedKeys: 1 << 10})
	defer s.Close()
	defer cl.Close()

	if _, existed, err := cl.SetEx(1, tb(100), 0); err != nil || existed {
		t.Fatalf("SETEX fresh: existed=%v err=%v", existed, err)
	}
	if v, ok, err := cl.GetEx(1, 0); err != nil || !ok || bu(v) != 100 {
		t.Fatalf("GETEX: %d %v %v", bu(v), ok, err)
	}
	if old, existed, err := cl.SetEx(1, tb(200), time.Minute); err != nil || !existed || bu(old) != 100 {
		t.Fatalf("SETEX replace: %d %v %v", bu(old), existed, err)
	}
	if ok, err := cl.Expire(1, 0); err != nil || !ok {
		t.Fatalf("EXPIRE live key: %v %v", ok, err)
	}
	if _, ok, err := cl.Get(1); err != nil || ok {
		t.Fatalf("GET after immediate EXPIRE: ok=%v err=%v", ok, err)
	}
	if ok, err := cl.Expire(2, time.Second); err != nil || ok {
		t.Fatalf("EXPIRE absent key: %v %v", ok, err)
	}
	// Plain PUT/DEL still work and mean SETEX-forever / cache delete.
	if _, _, err := cl.Put(3, tb(30)); err != nil {
		t.Fatalf("PUT in cache mode: %v", err)
	}
	if hit, err := cl.Del(3); err != nil || !hit {
		t.Fatalf("DEL in cache mode: %v %v", hit, err)
	}
	// TTL enforcement end to end.
	if _, _, err := cl.SetEx(4, tb(40), 20*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	time.Sleep(50 * time.Millisecond)
	if _, ok, _ := cl.Get(4); ok {
		t.Fatal("expired key still readable over the wire")
	}
	// Versioned verbs are off in cache mode.
	if _, err := cl.MGet(1, 2); err == nil || errors.Is(err, ErrBusy) {
		t.Fatalf("MGET in cache mode: %v, want -ERR", err)
	}
	if _, err := cl.SnapScan(10); err == nil || errors.Is(err, ErrBusy) {
		t.Fatalf("SNAPSCAN in cache mode: %v, want -ERR", err)
	}
	js, err := cl.CacheStats()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(js), "\"inserts\"") {
		t.Fatalf("CACHESTATS payload %q lacks counters", js)
	}
	if err := s.CheckCacheIdentity(); err != nil {
		t.Fatal(err)
	}
}

func TestServerCacheVerbsRequireCacheMode(t *testing.T) {
	s, err := New(Config{Shards: 2, Workers: 2, DebugChecks: true})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	cl, err := Dial(s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if _, _, err := cl.SetEx(1, tb(1), 0); err == nil || errors.Is(err, ErrBusy) {
		t.Fatalf("SETEX outside cache mode: %v, want -ERR", err)
	}
	if _, err := cl.CacheStats(); err == nil {
		t.Fatal("CACHESTATS outside cache mode succeeded")
	}
}

func TestServerCacheModeRejectsCluster(t *testing.T) {
	_, err := New(Config{CacheMode: true, Peers: []string{"a", "b"}})
	if err == nil {
		t.Fatal("cache mode with peers was accepted")
	}
}

// TestServerCachePutNeverBusyUnderCap is the wire-level backpressure
// acceptance: with the arena capped well below the key space, pipelined
// PUT/SETEX load must be absorbed by eviction — zero -BUSY replies from
// arena exhaustion and zero errors.
func TestServerCachePutNeverBusyUnderCap(t *testing.T) {
	s, cl := newCacheServer(t, Config{
		Shards: 2, Workers: 2, ExpectedKeys: 1 << 12, ArenaCapacity: 256,
	})
	defer s.Close()
	defer cl.Close()

	var b Batch
	var results []Result
	const keys = 4096
	for base := uint64(0); base < keys; base += 64 {
		b.Reset()
		for k := base; k < base+64; k++ {
			b.SetEx(k, tb(k), 0)
		}
		results = results[:0]
		var err error
		results, err = cl.DoBatch(&b, results)
		if err != nil {
			t.Fatal(err)
		}
		for i, r := range results {
			if r.Busy {
				t.Fatalf("SETEX %d replied -BUSY under arena pressure", base+uint64(i))
			}
		}
	}
	st := s.CacheStats()
	if st.Evicts == 0 {
		t.Fatal("no evictions despite a capped arena")
	}
	if got := s.CacheResident(); got > 2*256 {
		t.Fatalf("resident %d exceeds the 2-shard arena cap %d", got, 2*256)
	}
	if err := s.CheckCacheIdentity(); err != nil {
		t.Fatal(err)
	}
}

// TestCacheModeScanAllShards pins the cache-mode SCAN fan-out: each
// shard's share appends its rows to the reply, so a SCAN with room for
// every row returns the rows of every shard. The regression it
// guards had every worker write the slot's stale shard index, which the
// race detector reports and which left at most one shard's rows.
func TestCacheModeScanAllShards(t *testing.T) {
	const shards, keys = 4, 120
	s, cl := newCacheServer(t, Config{Shards: shards, Workers: shards, ExpectedKeys: 1 << 10})
	defer s.Close()
	defer cl.Close()

	for k := uint64(0); k < keys; k++ {
		if _, _, err := cl.SetEx(k, tb(k), 0); err != nil {
			t.Fatalf("SETEX %d: %v", k, err)
		}
	}
	for round := 0; round < 3; round++ {
		ents, err := cl.Scan(1000)
		if err != nil {
			t.Fatalf("SCAN: %v", err)
		}
		seen := map[uint64]bool{}
		var perShard [shards]int
		for _, e := range ents {
			if seen[e.Key] {
				t.Fatalf("SCAN returned key %d twice", e.Key)
			}
			seen[e.Key] = true
			if bu(e.Val) != e.Key {
				t.Fatalf("SCAN row %d carries value %d", e.Key, bu(e.Val))
			}
			perShard[KeyShard(e.Key, shards)]++
		}
		if len(ents) != keys {
			t.Fatalf("SCAN returned %d rows, want %d (per shard %v)", len(ents), keys, perShard)
		}
		for sh, n := range perShard {
			if n == 0 {
				t.Fatalf("SCAN returned no rows from shard %d (per shard %v)", sh, perShard)
			}
		}
	}
	if err := s.CheckCacheIdentity(); err != nil {
		t.Fatal(err)
	}
}
