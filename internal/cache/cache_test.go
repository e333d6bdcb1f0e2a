package cache

import (
	"encoding/binary"
	"runtime"
	"sync"
	"testing"
	"time"
)

// u64b encodes a uint64 as an 8-byte little-endian value body.
func u64b(v uint64) []byte {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	return b[:]
}

// bu64 decodes the first 8 bytes (0 for shorter slices).
func bu64(b []byte) uint64 {
	if len(b) < 8 {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

func closeOrFail(t *testing.T, c *Cache) {
	t.Helper()
	if err := c.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
}

func identityOrFail(t *testing.T, c *Cache) {
	t.Helper()
	if err := c.CheckIdentity(); err != nil {
		t.Fatal(err)
	}
}

func TestCacheSetGetDel(t *testing.T) {
	c := New(Config{ExpectedKeys: 64, DebugChecks: true})
	h := c.Attach()
	if _, existed, err := h.SetEx(1, u64b(100), 0, nil); err != nil || existed {
		t.Fatalf("fresh set: existed=%v err=%v", existed, err)
	}
	if v, ok := h.Get(1, nil); !ok || bu64(v) != 100 {
		t.Fatalf("get: %d %v", bu64(v), ok)
	}
	if old, existed, _ := h.SetEx(1, u64b(200), 0, nil); !existed || bu64(old) != 100 {
		t.Fatalf("replace: old=%d existed=%v", bu64(old), existed)
	}
	if !h.Del(1) {
		t.Fatal("del miss")
	}
	if _, ok := h.Get(1, nil); ok {
		t.Fatal("get after del")
	}
	if h.Del(1) {
		t.Fatal("double del")
	}
	h.Close()
	identityOrFail(t, c)
	closeOrFail(t, c)
}

func TestCacheTTLExpiry(t *testing.T) {
	c := New(Config{ExpectedKeys: 64, DebugChecks: true})
	h := c.Attach()
	h.SetEx(7, u64b(70), 5*time.Millisecond, nil)
	if v, ok := h.Get(7, nil); !ok || bu64(v) != 70 {
		t.Fatalf("pre-expiry get: %d %v", bu64(v), ok)
	}
	time.Sleep(10 * time.Millisecond)
	if _, ok := h.Get(7, nil); ok {
		t.Fatal("expired key still readable")
	}
	s := c.Stats()
	if s.Expires != 1 {
		t.Fatalf("expires = %d, want 1 (lazy reap)", s.Expires)
	}
	// An expired slot must be rebindable.
	if _, existed, err := h.SetEx(7, u64b(71), 0, nil); err != nil || existed {
		t.Fatalf("rebind after expiry: existed=%v err=%v", existed, err)
	}
	if v, ok := h.Get(7, nil); !ok || bu64(v) != 71 {
		t.Fatalf("rebound get: %d %v", bu64(v), ok)
	}
	h.Close()
	identityOrFail(t, c)
	closeOrFail(t, c)
}

func TestCacheExpireVerb(t *testing.T) {
	c := New(Config{ExpectedKeys: 64, DebugChecks: true})
	h := c.Attach()
	h.SetEx(1, u64b(10), 0, nil)
	if !h.Expire(1, 0) { // immediate
		t.Fatal("expire of live key reported absent")
	}
	if _, ok := h.Get(1, nil); ok {
		t.Fatal("immediately-expired key still readable")
	}
	if h.Expire(2, time.Second) {
		t.Fatal("expire of absent key reported present")
	}
	h.SetEx(3, u64b(30), time.Hour, nil)
	if !h.Expire(3, time.Millisecond) {
		t.Fatal("ttl shorten failed")
	}
	time.Sleep(5 * time.Millisecond)
	if _, ok := h.Get(3, nil); ok {
		t.Fatal("shortened ttl did not expire")
	}
	h.Close()
	identityOrFail(t, c)
	closeOrFail(t, c)
}

func TestCacheGetExTouchExtendsTTL(t *testing.T) {
	c := New(Config{ExpectedKeys: 64, DebugChecks: true})
	h := c.Attach()
	h.SetEx(5, u64b(50), 20*time.Millisecond, nil)
	for i := 0; i < 6; i++ {
		time.Sleep(10 * time.Millisecond)
		if v, ok := h.GetEx(5, 50*time.Millisecond, nil); !ok || bu64(v) != 50 {
			t.Fatalf("touch round %d lost the key (%d %v)", i, bu64(v), ok)
		}
	}
	h.Close()
	identityOrFail(t, c)
	closeOrFail(t, c)
}

// TestCacheEvictionUnderCap is the backpressure tentpole: with the arena
// capped, SetEx must keep absorbing inserts by evicting, never surfacing
// an arena error.
func TestCacheEvictionUnderCap(t *testing.T) {
	c := New(Config{ExpectedKeys: 256, Capacity: 128, DebugChecks: true})
	h := c.Attach()
	for k := uint64(0); k < 2000; k++ {
		if _, _, err := h.SetEx(k, u64b(k*10), 0, nil); err != nil {
			t.Fatalf("set %d: %v (evict-then-retry must absorb backpressure)", k, err)
		}
	}
	s := c.Stats()
	if s.Evicts == 0 {
		t.Fatal("no evictions despite a capped arena")
	}
	if got := c.Resident(); got > 128 {
		t.Fatalf("resident %d exceeds arena cap 128", got)
	}
	// Recent (hot) keys should still be present.
	if _, ok := h.Get(1999, nil); !ok {
		t.Fatal("most recent key was evicted")
	}
	h.Close()
	identityOrFail(t, c)
	closeOrFail(t, c)
}

// TestCacheClockSecondChance: a key that is read on every round must
// survive churn that evicts cold keys.
func TestCacheClockSecondChance(t *testing.T) {
	c := New(Config{ExpectedKeys: 256, Capacity: 64, DebugChecks: true})
	h := c.Attach()
	h.SetEx(1, u64b(11), 0, nil)
	for k := uint64(100); k < 1100; k++ {
		if _, ok := h.Get(1, nil); !ok {
			t.Fatalf("hot key evicted at churn key %d", k)
		}
		if _, _, err := h.SetEx(k, u64b(k), 0, nil); err != nil {
			t.Fatalf("set %d: %v", k, err)
		}
	}
	h.Close()
	identityOrFail(t, c)
	closeOrFail(t, c)
}

func TestCacheSweeperReapsExpired(t *testing.T) {
	c := New(Config{ExpectedKeys: 256, SweepInterval: time.Millisecond, DebugChecks: true})
	c.StartSweeper()
	h := c.Attach()
	for k := uint64(0); k < 100; k++ {
		h.SetEx(k, u64b(k), 5*time.Millisecond, nil)
	}
	deadline := time.Now().Add(2 * time.Second)
	for c.Stats().Expires < 100 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if s := c.Stats(); s.Expires != 100 {
		t.Fatalf("sweeper reaped %d of 100 expired entries", s.Expires)
	}
	h.Close()
	identityOrFail(t, c)
	closeOrFail(t, c)
}

// TestCacheConcurrentChurn hammers one shard from several goroutines with
// a capped arena and verifies conservation + zero leaks at quiescence.
func TestCacheConcurrentChurn(t *testing.T) {
	c := New(Config{ExpectedKeys: 512, Capacity: 256, MaxProcs: 16,
		SweepInterval: time.Millisecond, DebugChecks: true})
	c.StartSweeper()
	const workers = 8
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			h := c.Attach()
			defer h.Close()
			r := uint64(w)*2654435761 + 1
			var dst []byte
			for i := 0; i < 4000; i++ {
				r = r*6364136223846793005 + 1442695040888963407
				k := (r >> 33) % 1024
				switch r % 10 {
				case 0:
					h.Del(k)
				case 1:
					h.Expire(k, time.Duration(r%3)*time.Millisecond)
				case 2, 3, 4:
					if _, _, err := h.SetEx(k, u64b(k), time.Duration(r%5)*time.Millisecond, nil); err != nil {
						t.Errorf("set %d: %v", k, err)
						return
					}
				default:
					dst, _ = h.GetEx(k, time.Millisecond, dst[:0])
				}
			}
		}(w)
	}
	wg.Wait()
	identityOrFail(t, c)
	closeOrFail(t, c)
}

// TestCacheCheckIdentityWhileSweeping checks the identity while the
// shard's sweeper is reaping. The callers are quiescent but the sweeper
// is not: an expiry landing between CheckIdentity's scan and its counter
// reads must not be counted both as resident and as expired.
func TestCacheCheckIdentityWhileSweeping(t *testing.T) {
	c := New(Config{ExpectedKeys: 4096, SweepInterval: time.Millisecond, DebugChecks: true})
	c.StartSweeper()
	h := c.Attach()
	for k := uint64(0); k < 4000; k++ {
		if _, _, err := h.SetEx(k, u64b(k), time.Duration(k%40)*time.Millisecond/2, nil); err != nil {
			t.Fatalf("set %d: %v", k, err)
		}
	}
	h.Close()
	deadline := time.Now().Add(5 * time.Second)
	for e := c.Stats().Expires; e < 3900; e = c.Stats().Expires {
		identityOrFail(t, c)
		// Let the sweeper reap more before the next check.
		for c.Stats().Expires == e {
			if time.Now().After(deadline) {
				t.Fatalf("sweeper stalled at %d expiries", e)
			}
			runtime.Gosched()
		}
	}
	identityOrFail(t, c)
	closeOrFail(t, c)
}
