package collections

import (
	"runtime"
	"sync"
	"testing"
	"time"

	"cdrc/internal/chaos"
)

// crashChurn runs one worker's churn loop, surviving simulated crashes the
// way a server worker does: recover the CrashSignal, Abandon the handle
// (which re-indexes its in-flight eviction records), and reattach. It
// stops once done reports true for the number of operations completed.
// Returns the number of deaths this worker absorbed.
func crashChurn(t *testing.T, c *Cache, seed uint64, done func(ops int) bool) int {
	t.Helper()
	h := c.Attach()
	defer func() {
		if h != nil {
			h.Close()
		}
	}()
	deaths := 0
	r := seed*2654435761 + 1
	var dst []byte
	for i := 0; !done(i); {
		survived := func() (ok bool) {
			defer func() {
				rec := recover()
				if rec == nil {
					return
				}
				if _, isCrash := rec.(chaos.CrashSignal); !isCrash {
					panic(rec)
				}
				h.Abandon()
				h = nil
				ok = false
			}()
			r = r*6364136223846793005 + 1442695040888963407
			k := (r >> 33) % 512
			switch r % 8 {
			case 0:
				h.Del(k)
			case 1:
				h.Expire(k, time.Duration(r%3)*time.Millisecond)
			case 2, 3, 4:
				if _, _, err := h.SetEx(k, u64b(k), time.Duration(r%4)*time.Millisecond, nil); err != nil {
					t.Errorf("set %d: %v", k, err)
				}
			default:
				dst, _ = h.GetEx(k, time.Millisecond, dst[:0])
			}
			return true
		}()
		if survived {
			i++
			continue
		}
		deaths++
		h = c.Attach()
	}
	return deaths
}

// TestCacheCrashAtWeakRefPoints is the weak-reference crash coverage: a
// simulated thread death while an index record is popped-but-unconsumed
// (cache.evict.step), just after a fresh record was minted and pushed
// (cache.index.push), or at a sweeper tick (cache.sweep.op) must never
// lose or double a record's weak unit. DebugChecks turns a doubled
// slot-free decision into a use-after-free panic; the conservation
// identity catches a lost one (the entry would stay resident with no
// record able to unlink it — or be unlinked twice and over-count); Close
// proves Live() == 0 either way.
//
// Each worker churns at least 4,000 operations, then keeps churning,
// yielding between operations, until every faulted point has been hit
// minHits times or a deadline passes. A fixed operation count alone left
// coverage to the scheduler: six workers that never block can keep the
// 1 ms sweeper off two CPUs for their whole run, and cache.sweep.op then
// saw 0 or 1 hits — too few for a crash to fire under seed 7, whose
// first firing hit there is hit 1 (1 run in 20 failed the coverage check
// below).
func TestCacheCrashAtWeakRefPoints(t *testing.T) {
	const minOps, minHits = 4000, 8
	cases := []struct {
		name   string
		faults map[string]chaos.Fault
	}{
		{"index-push", map[string]chaos.Fault{
			"cache.index.push": {Prob: 0.01, Crash: true},
		}},
		{"evict-step", map[string]chaos.Fault{
			"cache.evict.step": {Prob: 0.01, Crash: true},
		}},
		{"sweep-op", map[string]chaos.Fault{
			"cache.sweep.op": {Prob: 0.5, Crash: true},
		}},
		{"mixed", map[string]chaos.Fault{
			"cache.index.push": {Prob: 0.005, Crash: true},
			"cache.evict.step": {Prob: 0.005, Crash: true},
			"cache.sweep.op":   {Prob: 0.2, Crash: true},
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			chaos.Enable(chaos.Config{Seed: 7, CrashBudget: 8, Faults: tc.faults})
			c := NewCache(CacheConfig{ExpectedKeys: 512, Capacity: 128, MaxProcs: 32,
				SweepInterval: time.Millisecond, DebugChecks: true})
			c.StartSweeper()
			var points []*chaos.Point
			for name := range tc.faults {
				points = append(points, chaos.New(name))
			}
			deadline := time.Now().Add(10 * time.Second)
			done := func(ops int) bool {
				if ops < minOps {
					return false
				}
				for _, p := range points {
					if p.Hits() < minHits {
						runtime.Gosched() // let the sweeper tick
						return time.Now().After(deadline)
					}
				}
				return true
			}
			const workers = 6
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					crashChurn(t, c, uint64(w+1), done)
				}(w)
			}
			wg.Wait()
			if chaos.Crashes() == 0 {
				t.Error("no simulated crashes fired; the point is not covered")
			}
			chaos.Disable() // teardown must run clean
			identityOrFail(t, c)
			if got := c.Resident(); got > 128 {
				t.Errorf("resident %d exceeds arena cap 128 after crashes", got)
			}
			closeOrFail(t, c)
		})
	}
}

// TestCacheAbandonReindexesInflight pins the adoption contract directly:
// a handle that dies holding popped-unconsumed records must hand them
// back to the index, so a survivor can still evict those entries.
func TestCacheAbandonReindexesInflight(t *testing.T) {
	c := NewCache(CacheConfig{ExpectedKeys: 64, DebugChecks: true})
	h := c.Attach()
	for k := uint64(0); k < 8; k++ {
		if _, _, err := h.SetEx(k, u64b(k), 0, nil); err != nil {
			t.Fatal(err)
		}
	}
	// Pop half the records by hand and park them, simulating a death
	// mid-eviction (between the pop and the EvictStep).
	before := c.idx.len()
	for i := 0; i < 4; i++ {
		ref, ok := c.idx.pop()
		if !ok {
			t.Fatal("index dry")
		}
		h.park(ref)
	}
	if got := c.idx.len(); got != before-4 {
		t.Fatalf("index length %d after 4 pops, want %d", got, before-4)
	}
	h.Abandon()
	if got := c.idx.len(); got != before {
		t.Fatalf("index length %d after Abandon, want %d (in-flight re-indexed)", got, before)
	}
	// A fresh handle can still evict everything: the weak units survived.
	h2 := c.Attach()
	now := nowNanos()
	for i := 0; i < 64 && c.Resident() > 0; i++ {
		h2.step(now)
	}
	if got := c.Resident(); got != 0 {
		t.Fatalf("%d entries stuck resident after adoption", got)
	}
	h2.Close()
	identityOrFail(t, c)
	closeOrFail(t, c)
}
