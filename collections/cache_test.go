package collections

import (
	"bytes"
	"runtime"
	"sync"
	"testing"
	"time"
)

func TestCacheWrapperBasics(t *testing.T) {
	c := NewCache(CacheConfig{ExpectedKeys: 64, DebugChecks: true})
	h := c.Attach()
	if _, existed, err := h.SetEx(1, u64b(10), 0, nil); err != nil || existed {
		t.Fatalf("fresh SetEx: existed=%v err=%v", existed, err)
	}
	if v, ok := h.Get(1, nil); !ok || bu64(v) != 10 {
		t.Fatalf("Get: %d %v", bu64(v), ok)
	}
	// Variable-length values live in slabs; a replace hands back the old
	// bytes appended to dst.
	long := bytes.Repeat([]byte{0xA5}, 600)
	if _, _, err := h.SetEx(3, long, 0, nil); err != nil {
		t.Fatal(err)
	}
	old, existed, err := h.SetEx(3, []byte("short"), 0, nil)
	if err != nil || !existed || !bytes.Equal(old, long) {
		t.Fatalf("replace SetEx: existed=%v err=%v oldlen=%d", existed, err, len(old))
	}
	if v, ok := h.Get(3, nil); !ok || string(v) != "short" {
		t.Fatalf("Get(3): %q %v", v, ok)
	}
	h.SetEx(2, u64b(20), 2*time.Millisecond, nil)
	time.Sleep(5 * time.Millisecond)
	if _, ok := h.Get(2, nil); ok {
		t.Fatal("expired key still readable")
	}
	if !h.Del(1) {
		t.Fatal("Del miss")
	}
	if !h.Del(3) {
		t.Fatal("Del(3) miss")
	}
	h.Close()
	if err := c.CheckIdentity(); err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestCacheWrapperEvictsUnderCap(t *testing.T) {
	c := NewCache(CacheConfig{ExpectedKeys: 256, Capacity: 64, DebugChecks: true})
	h := c.Attach()
	for k := uint64(0); k < 500; k++ {
		if _, _, err := h.SetEx(k, u64b(k), 0, nil); err != nil {
			t.Fatalf("SetEx %d: %v", k, err)
		}
	}
	if c.Stats().Evicts == 0 {
		t.Fatal("no evictions despite a capped arena")
	}
	if got := c.Resident(); got > 64 {
		t.Fatalf("resident %d exceeds cap 64", got)
	}
	h.Close()
	if err := c.CheckIdentity(); err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestCacheWrapperValueCapEvicts caps the value slabs (not the node
// arena) and checks backpressure from the value plane also converts into
// evictions rather than errors.
func TestCacheWrapperValueCapEvicts(t *testing.T) {
	c := NewCache(CacheConfig{ExpectedKeys: 256, ValueCapacity: 32, DebugChecks: true})
	h := c.Attach()
	val := bytes.Repeat([]byte{7}, 120) // class 128, ≤32 resident slabs
	for k := uint64(0); k < 300; k++ {
		if _, _, err := h.SetEx(k, val, 0, nil); err != nil {
			t.Fatalf("SetEx %d: %v", k, err)
		}
	}
	if c.Stats().Evicts == 0 {
		t.Fatal("no evictions despite capped value slabs")
	}
	h.Close()
	if err := c.CheckIdentity(); err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
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
	c := NewCache(CacheConfig{ExpectedKeys: 64, DebugChecks: true})
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
	c := NewCache(CacheConfig{ExpectedKeys: 64, DebugChecks: true})
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
	c := NewCache(CacheConfig{ExpectedKeys: 64, DebugChecks: true})
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
	c := NewCache(CacheConfig{ExpectedKeys: 64, DebugChecks: true})
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
	c := NewCache(CacheConfig{ExpectedKeys: 256, Capacity: 128, DebugChecks: true})
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
	c := NewCache(CacheConfig{ExpectedKeys: 256, Capacity: 64, DebugChecks: true})
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
	c := NewCache(CacheConfig{ExpectedKeys: 256, SweepInterval: time.Millisecond, DebugChecks: true})
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
	c := NewCache(CacheConfig{ExpectedKeys: 512, Capacity: 256, MaxProcs: 16,
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
	c := NewCache(CacheConfig{ExpectedKeys: 4096, SweepInterval: time.Millisecond, DebugChecks: true})
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

// TestCacheWarmPathsZeroAlloc pins the cache's steady-state paths at
// zero Go-heap allocations on a warm capped shard: a GetEx hit, a SetEx
// that replaces a resident value, and a fresh SetEx at capacity, which
// evicts before it links. The fresh inserts must really evict.
func TestCacheWarmPathsZeroAlloc(t *testing.T) {
	const capSlots = 512
	c := NewCache(CacheConfig{ExpectedKeys: 1 << 12, Capacity: capSlots})
	h := c.Attach()
	val := bytes.Repeat([]byte{0x5A}, 64)
	key := uint64(0)
	for ; key < 4*capSlots; key++ { // fill past the cap to warm every scratch slice
		if _, _, err := h.SetEx(key, val, 0, nil); err != nil {
			t.Fatalf("fill %d: %v", key, err)
		}
	}
	hot := key - 1
	dst := make([]byte, 0, 2*len(val))
	get := testing.AllocsPerRun(2000, func() {
		var ok bool
		if dst, ok = h.GetEx(hot, 0, dst[:0]); !ok {
			t.Fatal("GetEx missed the most recent key")
		}
	})
	replace := testing.AllocsPerRun(2000, func() {
		var existed bool
		var err error
		if dst, existed, err = h.SetEx(hot, val, 0, dst[:0]); err != nil || !existed {
			t.Fatalf("replacing SetEx: existed=%v err=%v", existed, err)
		}
	})
	evictsBefore := c.Stats().Evicts
	fresh := testing.AllocsPerRun(2000, func() {
		if _, existed, err := h.SetEx(key, val, 0, nil); err != nil || existed {
			t.Fatalf("fresh SetEx %d: existed=%v err=%v", key, existed, err)
		}
		key++
	})
	evicts := c.Stats().Evicts - evictsBefore
	t.Logf("allocs/op: GetEx %.3f, replacing SetEx %.3f, fresh SetEx at capacity %.3f (%d evictions)",
		get, replace, fresh, evicts)
	if evicts == 0 {
		t.Fatal("no evictions: the fresh inserts did not run at capacity")
	}
	if get != 0 || replace != 0 || fresh != 0 {
		t.Fatalf("warm cache paths allocate: GetEx %.3f, replacing SetEx %.3f, fresh SetEx %.3f per op, want 0",
			get, replace, fresh)
	}
	h.Close()
	identityOrFail(t, c)
	closeOrFail(t, c)
}
