package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"cdrc/collections"
	"cdrc/internal/chaos"
	"cdrc/internal/obs"
	"cdrc/internal/server"
)

var (
	obsCacheGetNs = obs.NewHistogram("load.cache.getex.ns")
	obsCacheSetNs = obs.NewHistogram("load.cache.setex.ns")
	obsCacheExpNs = obs.NewHistogram("load.cache.expire.ns")
)

// cacheParams parameterizes the -cache scenario.
type cacheParams struct {
	addr      string // empty = in-process server
	duration  time.Duration
	conns     int
	keys      int
	zipfS     float64
	zipfV     float64
	writes    float64 // unconditional SETEX fraction (rest is cache-aside GETEX)
	ttl       time.Duration
	minHit    float64 // hit-ratio gate (0 disables)
	jsonOut   string
	shards    int
	workers   int
	arenaCap  uint64
	queue     int
	chaosOn   bool
	chaosSeed uint64
	crashWk   int
	valSize   valSizer
}

// cacheTally extends the base tally with cache-aside outcomes.
type cacheTally struct {
	tally
	hits   int64
	misses int64
}

// runCache drives the Zipf hot-key cache-aside scenario (-cache): every
// op either writes through (SETEX with a TTL) or reads a hot key (GETEX
// touch) and fills it on a miss, so a capped arena sees sustained insert
// pressure and must keep absorbing it by eviction. Gates, beyond the
// base conservation/integrity/reclamation ones: zero -BUSY from arena
// exhaustion (cache mode reroutes ErrExhausted into synchronous
// eviction), the per-shard conservation identity at quiescence, and
// optionally a floor on the client-observed hit ratio.
func runCache(fail func(string, ...any), p cacheParams) {
	inproc := p.addr == ""
	var srv *server.Server
	target := p.addr
	if inproc {
		if p.chaosOn {
			chaos.Enable(chaos.Config{
				Seed:        p.chaosSeed,
				CrashBudget: p.crashWk,
				Faults: map[string]chaos.Fault{
					// Cache-safe crash points ONLY (collections.Cache's
					// crash model): the worker op boundary and the three cache
					// points where the handle holds zero counted refs and
					// every popped index record is parked for adoption.
					// core.snapshot.* crashes are NOT safe here — a dying
					// reader's locals would leak entries past the identity.
					"server.worker.op": {Prob: 0.0005, Crash: true},
					"cache.index.push": {Prob: 0.0005, Crash: true},
					"cache.evict.step": {Prob: 0.0005, Crash: true},
					"cache.sweep.op":   {Prob: 0.002, Crash: true},
					"arena.alloc":      {Prob: 0.002, Fail: true},
					"arena.free":       {Prob: 0.001, Yields: 1},
					"acqret.retire":    {Prob: 0.001, Yields: 1},
				},
			})
		}
		var err error
		srv, err = server.New(server.Config{
			Shards:        p.shards,
			Workers:       p.workers,
			MaxProcs:      p.workers + p.crashWk + 8,
			ExpectedKeys:  p.keys,
			ArenaCapacity: p.arenaCap,
			QueueDepth:    p.queue,
			CacheMode:     true,
			DebugChecks:   true,
		})
		if err != nil {
			fail("start cache server: %v", err)
		}
		target = srv.Addr()
	}

	fmt.Printf("cdrc-load: cache %v against %s (conns=%d keys=%d zipf=%.2f writes=%.0f%% ttl=%v arena-cap=%d chaos=%v)\n",
		p.duration, target, p.conns, p.keys, p.zipfS, p.writes*100, p.ttl, p.arenaCap, p.chaosOn)

	deadline := time.Now().Add(p.duration)
	var wg sync.WaitGroup
	var stop atomic.Bool
	tallies := make([]cacheTally, p.conns)
	for i := 0; i < p.conns; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			tl := &tallies[id]
			cl, err := server.Dial(target)
			if err != nil {
				tl.errs++
				return
			}
			defer cl.Close()
			rng := rand.New(rand.NewSource(int64(id)*7919 + 1))
			zipf := rand.NewZipf(rng, p.zipfS, p.zipfV, uint64(p.keys-1))
			var vbuf []byte
			classify := func(err error) bool {
				switch err {
				case nil:
					tl.oks++
					return true
				case server.ErrBusy:
					tl.busys++
					return true
				default:
					tl.errs++
					return false
				}
			}
			for op := 0; !stop.Load() && time.Now().Before(deadline); op++ {
				k := zipf.Uint64()
				pr := rng.Float64()
				t0 := time.Now()
				switch {
				case pr < p.writes:
					// Write-through churn: sustained insert pressure.
					vbuf = fillVal(vbuf, k, op, p.valSize.draw(rng.Intn))
					_, _, err := cl.SetEx(k, vbuf, p.ttl)
					tl.sends++
					obsCacheSetNs.Observe(uint64(time.Since(t0)))
					if !classify(err) {
						return
					}
				case pr < p.writes+0.02:
					// Occasional explicit deadline shuffle.
					_, err := cl.Expire(k, p.ttl/2)
					tl.sends++
					obsCacheExpNs.Observe(uint64(time.Since(t0)))
					if !classify(err) {
						return
					}
				default:
					// Cache-aside read: GETEX touch, fill on miss.
					v, ok, err := cl.GetEx(k, p.ttl)
					tl.sends++
					obsCacheGetNs.Observe(uint64(time.Since(t0)))
					if !classify(err) {
						return
					}
					if err != nil {
						continue
					}
					if ok {
						tl.hits++
						if !valOK(v, k) {
							tl.integrity++
							return
						}
						continue
					}
					tl.misses++
					t0 = time.Now()
					vbuf = fillVal(vbuf, k, op, p.valSize.draw(rng.Intn))
					_, _, err = cl.SetEx(k, vbuf, p.ttl)
					tl.sends++
					obsCacheSetNs.Observe(uint64(time.Since(t0)))
					if !classify(err) {
						return
					}
				}
			}
		}(i)
	}
	wg.Wait()
	stop.Store(true)

	var total cacheTally
	for i := range tallies {
		total.add(&tallies[i].tally)
		total.hits += tallies[i].hits
		total.misses += tallies[i].misses
	}

	crashes := chaos.Crashes()
	if p.chaosOn {
		chaos.Disable()
	}

	// Quiescent identity check BEFORE Close (Close empties the cache).
	var identityErr error
	var st collections.CacheStats
	if inproc {
		identityErr = srv.CheckCacheIdentity()
		st = srv.CacheStats()
	}
	var closeErr error
	if inproc {
		closeErr = srv.Close()
	}

	r := obs.Snapshot()
	secs := p.duration.Seconds()
	opsPerSec := float64(total.sends) / secs
	hitRatio := 0.0
	if total.hits+total.misses > 0 {
		hitRatio = float64(total.hits) / float64(total.hits+total.misses)
	}
	evictsPerSec := float64(st.Evicts) / secs
	fmt.Printf("cdrc-load: %d ops (%.0f/s): ok=%d busy=%d err=%d integrity-violations=%d crashes=%d\n",
		total.sends, opsPerSec, total.oks, total.busys, total.errs, total.integrity, crashes)
	fmt.Printf("cdrc-load: cache hit-ratio=%.3f (hits=%d misses=%d) evicts=%d (%.0f/s) expires=%d unindexed=%d\n",
		hitRatio, total.hits, total.misses, st.Evicts, evictsPerSec, st.Expires, st.Unindexed)

	type quantiles struct {
		P50   float64 `json:"p50"`
		P99   float64 `json:"p99"`
		P999  float64 `json:"p999"`
		Count uint64  `json:"count"`
	}
	latencies := make(map[string]quantiles)
	for _, h := range []struct{ label, name string }{
		{"getex", "load.cache.getex.ns"},
		{"setex", "load.cache.setex.ns"},
		{"expire", "load.cache.expire.ns"},
	} {
		if r.Histograms[h.name].Count == 0 {
			continue
		}
		q := quantiles{
			P50:   r.Quantile(h.name, 0.50),
			P99:   r.Quantile(h.name, 0.99),
			P999:  r.Quantile(h.name, 0.999),
			Count: r.Histograms[h.name].Count,
		}
		latencies[h.label] = q
		fmt.Printf("cdrc-load: %-6s p50=%8.0fns p99=%8.0fns p999=%8.0fns (n=%d)\n",
			h.label, q.P50, q.P99, q.P999, q.Count)
	}
	if p.jsonOut != "" {
		summary := struct {
			Conns        int                  `json:"conns"`
			DurationSec  float64              `json:"durationSec"`
			ArenaCap     uint64               `json:"arenaCap"`
			Ops          int64                `json:"ops"`
			OpsPerSec    float64              `json:"opsPerSec"`
			OK           int64                `json:"ok"`
			Busy         int64                `json:"busy"`
			Crashes      int64                `json:"crashes"`
			HitRatio     float64              `json:"hitRatio"`
			Evicts       uint64               `json:"evicts"`
			EvictsPerSec float64              `json:"evictsPerSec"`
			Expires      uint64               `json:"expires"`
			Unindexed    uint64               `json:"unindexed"`
			LatencyNs    map[string]quantiles `json:"latencyNs"`
		}{p.conns, secs, p.arenaCap, total.sends, opsPerSec, total.oks, total.busys,
			crashes, hitRatio, st.Evicts, evictsPerSec, st.Expires, st.Unindexed, latencies}
		j, err := json.MarshalIndent(&summary, "", "  ")
		if err == nil {
			err = os.WriteFile(p.jsonOut, append(j, '\n'), 0o644)
		}
		if err != nil {
			fail("write %s: %v", p.jsonOut, err)
		}
	}

	// --- gates ---------------------------------------------------------
	if total.errs != 0 {
		fail("%d hard errors (connection or protocol failures)", total.errs)
	}
	if total.integrity != 0 {
		fail("%d value integrity violations", total.integrity)
	}
	if total.sends != total.oks+total.busys {
		fail("reply conservation broken: sends=%d != ok=%d + busy=%d", total.sends, total.oks, total.busys)
	}
	if total.sends == 0 {
		fail("no operations completed; soak proved nothing")
	}
	if p.minHit > 0 && hitRatio < p.minHit {
		fail("hit ratio %.3f below the %.3f floor", hitRatio, p.minHit)
	}
	if inproc {
		// The tentpole backpressure gate: an exhausted arena must be
		// absorbed by eviction, never surfaced as -BUSY.
		if n := r.Counter("server.busy.arena"); n != 0 {
			fail("%d -BUSY replies from arena exhaustion in cache mode (eviction must absorb them)", n)
		}
		replies := r.Counter("server.reply") + r.Counter("server.busy.queue") + r.Counter("server.busy.lease")
		if total.sends != replies {
			fail("server conservation broken: sends=%d != server.reply+busy.queue+busy.lease=%d", total.sends, replies)
		}
		if identityErr != nil {
			fail("cache conservation identity: %v", identityErr)
		}
		if closeErr != nil {
			fail("teardown: %v", closeErr)
		}
		if live := srv.Live(); live != 0 {
			fail("leak: %d nodes live after Close", live)
		}
	}
	fmt.Println("cdrc-load: PASS (cache conservation, identity, integrity, reclamation)")
}
