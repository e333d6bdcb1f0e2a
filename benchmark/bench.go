package main

import (
	"bufio"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"cdrc/internal/obs"
)

// rounds is how many times each untraced run sets its system up, warms
// it and measures it for an equal share of the window. A fresh system's
// memory layout alone moves embedded throughput by about ±15%, and a busy
// neighbour on a shared host comes and goes within seconds, so one long
// pass reads whichever state it drew; every end-to-end metric pools the
// rounds instead, and setup_s is their median set-up time.
const rounds = 8

// opts are one invocation's settings.
type opts struct {
	seed     uint64
	measure  time.Duration
	traceDir string // non-empty: traced run, spans written here
}

// warmup precedes a measured pass of length d: a sixth of it, at most
// 2 s.
func warmup(d time.Duration) time.Duration { return min(2*time.Second, d/6) }

// rungBudget is each ladder rung's measuring time.
func (o opts) rungBudget() time.Duration {
	return min(250*time.Millisecond, max(10*time.Millisecond, o.measure/40))
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// record is one workload's full result line.
type record struct {
	Workload  string                 `json:"workload"`
	Seed      uint64                 `json:"seed"`
	Seconds   float64                `json:"seconds"`
	Traced    bool                   `json:"traced"`
	Host      hostInfo               `json:"host"`
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Gates     []string               `json:"gates,omitempty"`
	Metrics   map[string]metricValue `json:"metrics"`
	Extra     map[string]float64     `json:"extra,omitempty"`
	SpanFile  string                 `json:"span_file,omitempty"`
}

func (r *record) set(defs []metricDef, values map[string]float64) {
	r.Metrics = make(map[string]metricValue, len(defs))
	for _, d := range defs {
		r.Metrics[d.name] = metricValue{Value: values[d.name], Unit: d.unit}
	}
}

// hostInfo identifies where and from what a result was measured.
type hostInfo struct {
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPU        string `json:"cpu"`
	Go         string `json:"go"`
	Commit     string `json:"commit"`
	Dirty      bool   `json:"dirty"`
}

var host = sync.OnceValue(func() hostInfo {
	h := hostInfo{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPU:        cpuModel(),
		Go:         runtime.Version(),
	}
	h.Commit, h.Dirty = gitState()
	return h
})

// gitState reads the commit and dirty flag of the repository the
// benchmark runs in, from its root or from the benchmark directory. It
// never searches above that root, so a copy of the repository outside git
// reads "unknown".
func gitState() (commit string, dirty bool) {
	for _, root := range []string{".", ".."} {
		if _, err := os.Stat(filepath.Join(root, "BENCHMARK.json")); err != nil {
			continue
		}
		if _, err := os.Stat(filepath.Join(root, ".git")); err != nil {
			break
		}
		out, err := exec.Command("git", "-C", root, "rev-parse", "HEAD").Output()
		if err != nil {
			break
		}
		st, err := exec.Command("git", "-C", root, "status", "--porcelain", "--untracked-files=no").Output()
		return strings.TrimSpace(string(out)), err == nil && len(st) > 0
	}
	return "unknown", false
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// runWorkload runs w once: an untraced run reports the end-to-end
// metrics, a traced run the per-layer ones.
func runWorkload(w *workload, o opts) (*record, error) {
	streams := make([][]op, nClients)
	for c := range streams {
		streams[c] = genStream(w, o.seed, c)
	}
	sizes := preloadSizes(w, o.seed)
	r := &record{Workload: w.name, Seed: o.seed, Seconds: o.measure.Seconds(), Traced: o.traceDir != "", Host: host()}
	g := &gates{}
	var t tally
	var err error
	if o.traceDir == "" {
		err = runEndToEnd(w, o, streams, sizes, g, &t, r)
	} else {
		err = runTraced(w, o, streams, sizes, g, &t, r)
	}
	if err != nil {
		return nil, err
	}
	g.check(t.sends == t.oks+t.busys, "reply conservation: %d sent != %d ok + %d BUSY", t.sends, t.oks, t.busys)
	r.Attempted = t.sends
	r.Failed = t.failed() + int64(len(g.failed))
	r.Gates = g.failed
	r.Correct = r.Failed == 0
	return r, nil
}

// runEndToEnd measures rounds passes, each on a fresh set-up, and fills
// r's end-to-end metrics from them pooled.
func runEndToEnd(w *workload, o opts, streams [][]op, sizes []uint16, g *gates, t *tally, r *record) error {
	var p passResult
	var setups, heaps []float64
	d := o.measure / rounds
	for range rounds {
		runtime.GC() // collect the previous round's garbage outside the timing
		t0 := now()
		sys, err := newSystem(w, sizes)
		if err != nil {
			return err
		}
		setups = append(setups, float64(now()-t0)/1e9)
		q, err := runPass(w, sys, streams, warmup(d), d, false, g)
		sys.finish(g)
		if err != nil {
			return err
		}
		p.add(q)
		heaps = append(heaps, float64(q.heapObjects))
	}
	t.add(&p.tally)
	g.check(p.measured > 0, "no request completed in the measured window")
	r.set(endToEnd, map[string]float64{
		"ops_per_s":   p.rate(),
		"lat_mean_us": p.meanLat() / 1e3,
		"hit_ratio":   ratio(uint64(p.hits), uint64(p.hits+p.misses)),
		"mem_mb":      median(heaps) / (1 << 20),
		"setup_s":     median(setups),
	})
	// Window latency quantiles are reported over the whole window, ungated
	// (README.md says why).
	r.Extra = map[string]float64{
		"lat_p50_us":     p.lat.quantile(0.50) / 1e3,
		"lat_p95_us":     p.lat.quantile(0.95) / 1e3,
		"lat_p99_us":     p.lat.quantile(0.99) / 1e3,
		"lat_p999_us":    p.lat.quantile(0.999) / 1e3,
		"lat_n":          float64(p.lat.n),
		"alloc_b_per_op": ratio(p.allocBytes, uint64(p.measured)),
	}
	if w.scans {
		r.Extra["scan_p50_us"] = p.scan.quantile(0.50) / 1e3
		r.Extra["scan_p99_us"] = p.scan.quantile(0.99) / 1e3
		r.Extra["scan_n"] = float64(p.scan.n)
	}
	return nil
}

// valsPool matches the obs pool gauges of value-slab size classes
// ("<pool>.c0064"); record arenas are named without the class suffix.
var valsPool = regexp.MustCompile(`\.c\d{4}$`)

// runTraced measures an untraced pass and a traced pass (obs armed from
// before set-up, spans sampled), each for half the window, then climbs
// the ladder, and fills r's per-layer metrics.
func runTraced(w *workload, o opts, streams [][]op, sizes []uint16, g *gates, t *tally, r *record) error {
	half := o.measure / 2
	sys, err := newSystem(w, sizes)
	if err != nil {
		return err
	}
	plain, err := runPass(w, sys, streams, warmup(half), half, false, g)
	sys.finish(g)
	if err != nil {
		return err
	}
	t.add(&plain.tally)

	// The traced pass arms obs before its set-up, so acqret.retire -
	// acqret.eject is exactly the live domains' deferred count, and the
	// count-touch tallies the handles publish at teardown are kept.
	obs.Enable()
	defer obs.Disable()
	retire, eject := obs.NewCounter("acqret.retire"), obs.NewCounter("acqret.eject")
	if sys, err = newSystem(w, sizes); err != nil {
		return err
	}
	var deferredMax, slabsMax int64
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		tick := time.NewTicker(100 * time.Millisecond)
		defer tick.Stop()
		for {
			deferredMax = max(deferredMax, retire.Value()-eject.Value())
			var slabs int64
			for _, p := range obs.Snapshot().Pools {
				if valsPool.MatchString(p.Name) {
					slabs += p.Live
				}
			}
			slabsMax = max(slabsMax, slabs)
			select {
			case <-stop:
				return
			case <-tick.C:
			}
		}
	}()
	traced, err := runPass(w, sys, streams, warmup(half), half, true, g)
	close(stop)
	wg.Wait()
	sys.finish(g)
	if err != nil {
		return err
	}
	t.add(&traced.tally)
	rep := obs.Snapshot()
	obs.Disable()

	rootSpans := &spanBuf{workload: w.name}
	l := newLadder(w, streams[0], sizes, o.rungBudget(), g, rootSpans)
	l.run()

	m := l.out
	cpuPerOp := float64(plain.cpuNs) / float64(plain.measured)
	m["proc.cpu_ns_per_op"] = cpuPerOp
	m["server.self_ns_per_op"] = cpuPerOp - l.storageNs
	m["go.gc_cycles"] = float64(plain.gcCycles)
	m["go.alloc_b_per_op"] = float64(plain.allocBytes) / float64(plain.measured)
	m["trace_overhead_frac"] = 1 - traced.rate()/plain.rate()
	b, s := rep.Counter("core.rc.biased"), rep.Counter("core.rc.shared")
	m["core.bias_hit_ratio"] = ratio(uint64(b), uint64(b+s))
	// The traced pass's handles lived through its preload, warm-up and
	// window, and merges count over that whole life.
	m["core.merges_per_op"] = float64(rep.Counter("core.rc.merge")) / float64(traced.total+int64(len(sizes)))
	m["acqret.deferred_max"] = float64(deferredMax)
	m["acqret.deferred_per_p2"] = float64(deferredMax) / sumP2(w)
	m["vals.slabs_live_max"] = float64(slabsMax)
	r.set(perLayer, m)

	path, err := writeSpans(o.traceDir, "spans-"+w.name+"-seed"+strconv.FormatUint(o.seed, 10)+".jsonl",
		append(traced.spans, rootSpans))
	if err != nil {
		return err
	}
	r.SpanFile, _ = filepath.Abs(path)
	return nil
}

// sumP2 is Theorem 1's scale for w: the sum over its cdrc domains of the
// square of the threads attached to each. The embedded map is one domain
// shared by the clients; each server shard is a domain served by
// workers/shards workers, plus the expiry sweeper in cache mode.
func sumP2(w *workload) float64 {
	if !w.service {
		return nClients * nClients
	}
	p := float64(w.serverWorkers() / serverShards)
	if w.cache {
		p++
	}
	return serverShards * p * p
}
