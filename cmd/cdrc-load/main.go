// cdrc-load is the load generator and correctness gate for the
// internal/server key→value service. It drives a read/write/delete mix
// with Zipf-distributed keys over the wire protocol, measures per-op
// latency through obs histograms (p50/p99 via Report.Quantile), and -
// because every request line receives exactly one classified reply -
// checks conservation at the end:
//
//	client sends == OK replies + BUSY sheds        (per client)
//	client sends == server.reply + server.busy.{queue,lease}   (in-process mode)
//	client BUSYs == server.busy.{queue,arena,crash,lease}      (in-process mode)
//
// plus value integrity (GET must return a value tagged for its key) and,
// in in-process mode, full reclamation at Close (Live() == 0). Any
// violation exits non-zero, which is how scripts/check.sh uses it as a
// loopback soak - once plain and once with -chaos -crash-workers, where
// simulated shard-handle crashes exercise the abandonment/adoption path under
// live traffic.
//
// With -addr it targets an already-running cdrc-serve instead (the
// server-side identities are then skipped; the process-local obs
// counters cannot see a remote server).
//
// With -cluster N it runs an N-node in-process loopback cluster
// (DESIGN.md §9) instead of a single server, drives it through
// ClusterClients that retry every write until acked, and — with -chaos
// -kill-nodes — lets the chaos injector fail-stop whole nodes mid-load.
// The gates become the replicated invariants: zero lost acked writes
// (every key's last acked state is readable after failover), the
// replication conservation identity repl.enq == repl.ack + repl.lost,
// and Live() == 0 on every node, killed ones included.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"cdrc/internal/chaos"
	"cdrc/internal/obs"
	"cdrc/internal/server"
)

var (
	obsGetNs      = obs.NewHistogram("load.get.ns")
	obsPutNs      = obs.NewHistogram("load.put.ns")
	obsDelNs      = obs.NewHistogram("load.del.ns")
	obsScanNs     = obs.NewHistogram("load.scan.ns")
	obsSnapScanNs = obs.NewHistogram("load.snapscan.ns")
	obsMGetNs     = obs.NewHistogram("load.mget.ns")
	obsBatchNs    = obs.NewHistogram("load.batch.ns")
)

// tally accumulates one connection's classified outcomes.
type tally struct {
	sends     int64
	oks       int64
	busys     int64
	errs      int64
	integrity int64
}

func (t *tally) add(o *tally) {
	t.sends += o.sends
	t.oks += o.oks
	t.busys += o.busys
	t.errs += o.errs
	t.integrity += o.integrity
}

// valTag derives the stable upper bits every PUT to a key carries, so a
// GET can detect torn, stale-freed, or misdirected values regardless of
// which client wrote last (splitmix64 of the key, low 16 bits cleared
// for a per-write sequence).
func valTag(key uint64) uint64 {
	x := key ^ 0xC0DEC0DEC0DEC0DE
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return x &^ 0xFFFF
}

func main() {
	var (
		addr     = flag.String("addr", "", "target server address (empty = run an in-process server)")
		duration = flag.Duration("duration", 5*time.Second, "load duration")
		conns    = flag.Int("conns", 4, "client connections")
		keys     = flag.Int("keys", 4096, "key space size")
		zipfS    = flag.Float64("zipf-s", 1.1, "Zipf s parameter (>1)")
		zipfV    = flag.Float64("zipf-v", 1.0, "Zipf v parameter (>=1)")
		reads    = flag.Float64("reads", 0.70, "GET fraction")
		puts     = flag.Float64("puts", 0.20, "PUT fraction (remainder is DEL)")
		scanEvry = flag.Int("scan-every", 200, "issue SCAN 16 every Nth op per connection (0 = never)")
		scanHvy  = flag.Bool("scan-heavy", false, "snapshot-read mix: the scan-every boundary issues SNAPSCAN 512 plus a 4-key MGET instead of SCAN 16")
		pipeline = flag.Int("pipeline", 1, "requests in flight per connection (1 = lock-step round trips)")
		valSize  = flag.String("val-size", "8", "value size in bytes: fixed (\"64\") or uniform range (\"64:1024\"); floor 8")
		jsonOut  = flag.String("json-out", "", "write a machine-readable run summary (throughput + latency quantiles) to this file")

		shards   = flag.Int("shards", 4, "in-process server: shards")
		workers  = flag.Int("workers", 4, "in-process server: shard handle pool size (attached threads, i.e. pids, split across shards)")
		arenaCap = flag.Uint64("arena-cap", 0, "in-process server: per-shard arena slot cap")
		queue    = flag.Int("queue", 0, "in-process server: per-shard admission bound in requests (0 = default)")

		chaosOn   = flag.Bool("chaos", false, "in-process server: enable deterministic fault injection")
		chaosSeed = flag.Uint64("chaos-seed", 1, "chaos seed")
		crashWk   = flag.Int("crash-workers", 0, "chaos crash budget (simulated shard-handle crashes)")

		cluster   = flag.Int("cluster", 0, "run an N-node in-process replicated cluster (0 = single server)")
		killNodes = flag.Int("kill-nodes", 0, "chaos kill budget (whole fail-stop nodes; needs -chaos and -cluster)")

		cacheOn  = flag.Bool("cache", false, "cache scenario: Zipf cache-aside GETEX/SETEX with TTLs against a cache-mode server")
		cacheTTL = flag.Duration("ttl", 100*time.Millisecond, "cache scenario: per-key TTL")
		cacheWr  = flag.Float64("cache-writes", 0.25, "cache scenario: unconditional SETEX write fraction (the rest is GETEX, filling on miss)")
		minHit   = flag.Float64("min-hit-ratio", 0, "cache scenario: fail when the client-observed hit ratio lands below this (0 = report only)")
	)
	flag.Parse()

	obs.Enable()
	fail := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, "cdrc-load: FAIL: "+format+"\n", args...)
		os.Exit(1)
	}
	vs, err := parseValSize(*valSize)
	if err != nil {
		fail("%v", err)
	}

	if *cacheOn {
		if *cluster > 1 {
			fail("-cache is incompatible with -cluster (cache mode is single-node)")
		}
		runCache(fail, cacheParams{
			addr:      *addr,
			valSize:   vs,
			duration:  *duration,
			conns:     *conns,
			keys:      *keys,
			zipfS:     *zipfS,
			zipfV:     *zipfV,
			writes:    *cacheWr,
			ttl:       *cacheTTL,
			minHit:    *minHit,
			jsonOut:   *jsonOut,
			shards:    *shards,
			workers:   *workers,
			arenaCap:  *arenaCap,
			queue:     *queue,
			chaosOn:   *chaosOn,
			chaosSeed: *chaosSeed,
			crashWk:   *crashWk,
		})
		return
	}

	if *cluster > 1 {
		runCluster(fail, clusterParams{
			nodes:     *cluster,
			duration:  *duration,
			conns:     *conns,
			keys:      *keys,
			reads:     *reads,
			puts:      *puts,
			shards:    *shards,
			workers:   *workers,
			chaosOn:   *chaosOn,
			chaosSeed: *chaosSeed,
			crashWk:   *crashWk,
			killNodes: *killNodes,
		})
		return
	}

	target := *addr
	inproc := target == ""
	var srv *server.Server
	if inproc {
		if *chaosOn {
			chaos.Enable(chaos.Config{
				Seed:        *chaosSeed,
				CrashBudget: *crashWk,
				Faults: map[string]chaos.Fault{
					// Crash-safe points only: the handle op boundary (zero
					// refs held) and snapshot acquisition (map ops hold no
					// counted references across GetSnapshot).
					"server.worker.op":       {Prob: 0.0005, Crash: true},
					"core.snapshot.acquired": {Prob: 0.0002, Crash: true},
					"arena.alloc":            {Prob: 0.002, Fail: true},
					"arena.free":             {Prob: 0.001, Yields: 1},
					"acqret.retire":          {Prob: 0.001, Yields: 1},
					"core.load.between-acquire-and-increment": {Prob: 0.001, Yields: 2},
				},
			})
		}
		var err error
		srv, err = server.New(server.Config{
			Shards:        *shards,
			Workers:       *workers,
			MaxProcs:      *workers + *crashWk + 8,
			ExpectedKeys:  *keys,
			ArenaCapacity: *arenaCap,
			QueueDepth:    *queue,
			DebugChecks:   true,
		})
		if err != nil {
			fail("start server: %v", err)
		}
		target = srv.Addr()
	}

	fmt.Printf("cdrc-load: %v against %s (conns=%d keys=%d zipf=%.2f mix=%.0f/%.0f/%.0f pipeline=%d val-size=%s chaos=%v)\n",
		*duration, target, *conns, *keys, *zipfS,
		*reads*100, *puts*100, (1-*reads-*puts)*100, *pipeline, *valSize, *chaosOn)

	deadline := time.Now().Add(*duration)
	var wg sync.WaitGroup
	var stop atomic.Bool
	tallies := make([]tally, *conns)
	for i := 0; i < *conns; i++ {
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
			zipf := rand.NewZipf(rng, *zipfS, *zipfV, uint64(*keys-1))
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
			if *pipeline > 1 {
				// Pipelined mode: windows of `pipeline` requests sent in
				// one write, replies read in order. Latency is recorded
				// per batch round trip (load.batch.ns); conservation and
				// integrity are still checked per request.
				depth := *pipeline
				var b server.Batch
				var vbuf []byte
				results := make([]server.Result, 0, depth)
				keys := make([]uint64, 0, depth)
				kinds := make([]byte, 0, depth)
				for op := 0; !stop.Load() && time.Now().Before(deadline); {
					b.Reset()
					keys, kinds = keys[:0], kinds[:0]
					for j := 0; j < depth; j++ {
						k := zipf.Uint64()
						p := rng.Float64()
						switch {
						case p < *reads:
							b.Get(k)
							kinds = append(kinds, 'G')
						case p < *reads+*puts:
							vbuf = fillVal(vbuf, k, op+j, vs.draw(rng.Intn))
							b.Put(k, vbuf)
							kinds = append(kinds, 'P')
						default:
							b.Del(k)
							kinds = append(kinds, 'D')
						}
						keys = append(keys, k)
					}
					t0 := time.Now()
					var err error
					results, err = cl.DoBatch(&b, results[:0])
					obsBatchNs.Observe(uint64(time.Since(t0)))
					tl.sends += int64(len(results))
					if err != nil {
						tl.errs++
						return
					}
					for i, res := range results {
						if res.Busy {
							tl.busys++
							continue
						}
						tl.oks++
						if kinds[i] == 'G' && res.Found && !valOK(res.Bytes, keys[i]) {
							tl.integrity++
							return
						}
					}
					op += len(results)
					if *scanEvry > 0 && op%*scanEvry < depth {
						t0 := time.Now()
						if *scanHvy {
							_, err := cl.SnapScan(512)
							tl.sends++
							obsSnapScanNs.Observe(uint64(time.Since(t0)))
							if !classify(err) {
								return
							}
						} else {
							_, err := cl.Scan(16)
							tl.sends++
							obsScanNs.Observe(uint64(time.Since(t0)))
							if !classify(err) {
								return
							}
						}
					}
				}
				return
			}
			var vbuf []byte
			for op := 0; !stop.Load() && time.Now().Before(deadline); op++ {
				k := zipf.Uint64()
				p := rng.Float64()
				t0 := time.Now()
				switch {
				case *scanEvry > 0 && op%*scanEvry == *scanEvry-1 && *scanHvy:
					// Snapshot-read boundary: a wide SNAPSCAN that holds a
					// lease across every shard, then a 4-key MGET whose
					// values must each carry their own key's tag (a torn
					// snapshot that pairs key A with key B's slot shows up
					// as an integrity violation).
					_, err := cl.SnapScan(512)
					tl.sends++
					obsSnapScanNs.Observe(uint64(time.Since(t0)))
					if !classify(err) {
						return
					}
					mk := [4]uint64{zipf.Uint64(), zipf.Uint64(), zipf.Uint64(), zipf.Uint64()}
					t0 = time.Now()
					res, err := cl.MGet(mk[:]...)
					tl.sends++
					obsMGetNs.Observe(uint64(time.Since(t0)))
					if !classify(err) {
						return
					}
					if err == nil {
						for i, r := range res {
							if r.Found && !valOK(r.Bytes, mk[i]) {
								tl.integrity++
								return
							}
						}
					}
				case *scanEvry > 0 && op%*scanEvry == *scanEvry-1:
					_, err := cl.Scan(16)
					tl.sends++
					obsScanNs.Observe(uint64(time.Since(t0)))
					if !classify(err) {
						return
					}
				case p < *reads:
					v, ok, err := cl.Get(k)
					tl.sends++
					obsGetNs.Observe(uint64(time.Since(t0)))
					if !classify(err) {
						return
					}
					if err == nil && ok && !valOK(v, k) {
						tl.integrity++
						return
					}
				case p < *reads+*puts:
					vbuf = fillVal(vbuf, k, op, vs.draw(rng.Intn))
					_, _, err := cl.Put(k, vbuf)
					tl.sends++
					obsPutNs.Observe(uint64(time.Since(t0)))
					if !classify(err) {
						return
					}
				default:
					_, err := cl.Del(k)
					tl.sends++
					obsDelNs.Observe(uint64(time.Since(t0)))
					if !classify(err) {
						return
					}
				}
			}
		}(i)
	}
	wg.Wait()
	stop.Store(true)

	var total tally
	for i := range tallies {
		total.add(&tallies[i])
	}

	// Quiesce fault injection before teardown so Close's drain rounds run
	// deterministically clean, then tear the server down to zero.
	crashes := chaos.Crashes()
	if *chaosOn {
		chaos.Disable()
	}
	var closeErr error
	if inproc {
		closeErr = srv.Close()
	}

	r := obs.Snapshot()
	secs := duration.Seconds()
	opsPerSec := float64(total.sends) / secs
	fmt.Printf("cdrc-load: %d ops (%.0f/s): ok=%d busy=%d err=%d integrity-violations=%d crashes=%d\n",
		total.sends, opsPerSec, total.oks, total.busys, total.errs, total.integrity, crashes)
	reportValClasses(r)
	biasHit := 0.0
	if b, s := r.Counter("core.rc.biased"), r.Counter("core.rc.shared"); b+s > 0 {
		biasHit = float64(b) / float64(b+s)
		fmt.Printf("cdrc-load: rc bias hit-ratio %.3f (biased=%d shared=%d merges=%d)\n",
			biasHit, b, s, r.Counter("core.rc.merge"))
	}
	type quantiles struct {
		P50   float64 `json:"p50"`
		P99   float64 `json:"p99"`
		P999  float64 `json:"p999"`
		Count uint64  `json:"count"`
	}
	latencies := make(map[string]quantiles)
	for _, h := range []struct{ label, name string }{
		{"get", "load.get.ns"}, {"put", "load.put.ns"},
		{"del", "load.del.ns"}, {"scan", "load.scan.ns"},
		{"snapscan", "load.snapscan.ns"}, {"mget", "load.mget.ns"},
		{"batch", "load.batch.ns"},
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
		fmt.Printf("cdrc-load: %-5s p50=%8.0fns p99=%8.0fns p999=%8.0fns (n=%d)\n",
			h.label, q.P50, q.P99, q.P999, q.Count)
	}
	if *jsonOut != "" {
		summary := struct {
			Pipeline    int                  `json:"pipeline"`
			Conns       int                  `json:"conns"`
			DurationSec float64              `json:"durationSec"`
			Ops         int64                `json:"ops"`
			OpsPerSec   float64              `json:"opsPerSec"`
			OK          int64                `json:"ok"`
			Busy        int64                `json:"busy"`
			Crashes     int64                `json:"crashes"`
			BiasHit     float64              `json:"rcBiasHitRatio"`
			LatencyNs   map[string]quantiles `json:"latencyNs"`
		}{*pipeline, *conns, secs, total.sends, opsPerSec, total.oks, total.busys, crashes, biasHit, latencies}
		j, err := json.MarshalIndent(&summary, "", "  ")
		if err == nil {
			err = os.WriteFile(*jsonOut, append(j, '\n'), 0o644)
		}
		if err != nil {
			fail("write %s: %v", *jsonOut, err)
		}
	}

	// --- gates ---------------------------------------------------------
	if total.errs != 0 {
		fail("%d hard errors (connection or protocol failures)", total.errs)
	}
	if total.integrity != 0 {
		fail("%d value integrity violations (GET returned a value not written for that key)", total.integrity)
	}
	if total.sends != total.oks+total.busys {
		fail("reply conservation broken: sends=%d != ok=%d + busy=%d", total.sends, total.oks, total.busys)
	}
	if total.sends == 0 {
		fail("no operations completed; soak proved nothing")
	}
	if inproc {
		// Server-side conservation: every send was either run on a shard
		// handle (server.reply covers completions and crash-BUSYs) or shed
		// at admission; and the BUSYs the clients saw partition by cause.
		replies := r.Counter("server.reply") + r.Counter("server.busy.queue") + r.Counter("server.busy.lease")
		if total.sends != replies {
			fail("server conservation broken: sends=%d != server.reply+busy.queue+busy.lease=%d", total.sends, replies)
		}
		busyByCause := r.Counter("server.busy.queue") + r.Counter("server.busy.arena") +
			r.Counter("server.busy.crash") + r.Counter("server.busy.lease")
		if total.busys != busyByCause {
			fail("BUSY accounting broken: clients saw %d, server counted %d (queue=%d arena=%d crash=%d lease=%d)",
				total.busys, busyByCause, r.Counter("server.busy.queue"),
				r.Counter("server.busy.arena"), r.Counter("server.busy.crash"),
				r.Counter("server.busy.lease"))
		}
		if srv.ActiveLeases() != 0 {
			fail("lease leak: %d snapshot leases active at quiescence", srv.ActiveLeases())
		}
		if closeErr != nil {
			fail("teardown: %v", closeErr)
		}
		if live := srv.Live(); live != 0 {
			fail("leak: %d nodes live after Close", live)
		}
	}
	fmt.Println("cdrc-load: PASS (conservation, integrity, reclamation)")
}
