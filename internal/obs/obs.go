//go:build !obsoff

// Package obs is a constant-overhead observability layer for the
// library's concurrency hot paths.
//
// The paper's claim is *constant-time* overhead, so the metrics substrate
// that measures it must not perturb it: obs follows the same hot-path
// discipline as internal/chaos. Instrumented packages declare named
// metrics as package-level variables (obs.NewCounter("arena.alloc")) and
// call Counter.Inc / Histogram.Observe on the hot path. While disabled -
// the default - each such call is a single atomic pointer load and a
// predicted-not-taken branch: the shard array pointer is nil, so there is
// nothing to write to. Enable installs freshly zeroed shard arrays behind
// every registered metric; Disable removes them again.
//
// Three metric kinds:
//
//   - Counter: a monotone (or reconciling; see below) event count, sharded
//     across cache-padded per-processor cells so concurrent increments
//     from distinct processors never contend. Negative adjustments are
//     allowed (Sub) because the acquire-retire domain re-defers ejected
//     work after a crash - the counter identities below still hold at
//     quiescence.
//   - Histogram: a lock-free power-of-two-bucket histogram (bucket i
//     counts values v with bits.Len64(v) == i), used for retire->reclaim
//     latency in nanoseconds and for scan batch sizes.
//   - Pool gauges: arena occupancy snapshots sourced from Pool.Stats(),
//     registered per pool through a weak pointer so an obs registration
//     never keeps a dead pool's chunks alive.
//
// Reconciliation: the counters are designed so that leak-freedom is a
// continuously checkable identity rather than a test-only assertion. At
// quiescence after a full teardown,
//
//	arena.alloc - arena.free == sum of live objects (== 0 after teardown)
//	acqret.retire            == acqret.eject
//	core.decr.deferred       == core.decr.applied
//
// The package is stdlib-only, seed-free, and safe for concurrent use.
// Enable/Disable/Reset are process-global and must not race with each
// other (callers typically enable once per test, stress configuration, or
// benchmark figure). Building with -tags obsoff compiles every metric to
// a no-op, approximating the uninstrumented baseline for overhead gates.
package obs

import (
	"encoding/json"
	"fmt"
	"math/bits"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// BuildEnabled reports whether this build carries the real implementation
// (false under -tags obsoff). Tests use it to skip assertions that need
// live metrics.
const BuildEnabled = true

// numShards is the size of every counter's shard array. Processor ids are
// folded into it modulo numShards; 64 covers pid.DefaultMaxProcs without
// folding on the machines the benchmarks target.
const numShards = 64

// shard is one cache-padded atomic cell. 128 bytes defeats false sharing
// on the usual 64-byte-line hardware including adjacent-line prefetchers
// (same padding the arena free lists use).
type shard struct {
	v atomic.Uint64
	_ [120]byte
}

// Counter is a sharded event counter. The zero Counter is not usable;
// create one with NewCounter at package init.
type Counter struct {
	name   string
	shards atomic.Pointer[[numShards]shard]
}

// Name returns the counter's registered name.
func (c *Counter) Name() string { return c.name }

// Inc adds 1 to the shard owned by procID. Disabled cost: one atomic nil
// load.
func (c *Counter) Inc(procID int) {
	s := c.shards.Load()
	if s == nil {
		return
	}
	s[uint(procID)%numShards].v.Add(1)
}

// Add adds n to the shard owned by procID.
func (c *Counter) Add(procID int, n uint64) {
	s := c.shards.Load()
	if s == nil {
		return
	}
	s[uint(procID)%numShards].v.Add(n)
}

// Sub subtracts n from the shard owned by procID. It exists for the
// acquire-retire domain's crash path, which un-counts ejects when it
// re-defers an abandoned processor's pending frees; the cross-shard sum
// interprets the wrap-around two's-complement style, exactly as the
// domain's own d.ejected counter does.
func (c *Counter) Sub(procID int, n uint64) {
	s := c.shards.Load()
	if s == nil {
		return
	}
	s[uint(procID)%numShards].v.Add(^(n - 1))
}

// Value returns the counter's current cross-shard sum (interpreted
// signed), or 0 while disabled. Racy under concurrency; exact at
// quiescence.
func (c *Counter) Value() int64 {
	s := c.shards.Load()
	if s == nil {
		return 0
	}
	var sum uint64
	for i := range s {
		sum += s[i].v.Load()
	}
	return int64(sum)
}

// histBuckets is bits.Len64's range: bucket 0 holds v == 0, bucket i>0
// holds v in [2^(i-1), 2^i).
const histBuckets = 65

// Histogram is a lock-free power-of-two-bucket histogram. The zero
// Histogram is not usable; create one with NewHistogram at package init.
type Histogram struct {
	name    string
	buckets atomic.Pointer[[histBuckets]shard]
}

// Name returns the histogram's registered name.
func (h *Histogram) Name() string { return h.name }

// Observe records one value. Disabled cost: one atomic nil load.
func (h *Histogram) Observe(v uint64) {
	b := h.buckets.Load()
	if b == nil {
		return
	}
	b[bits.Len64(v)].v.Add(1)
}

// PoolGauges is one arena pool's occupancy snapshot, as reported by the
// pool's own Stats (arena cannot import obs's callers, so the fields are
// restated here rather than aliased).
type PoolGauges struct {
	Allocs     uint64
	Frees      uint64
	Live       int64 // clamped to >= 0 by Snapshot before rendering
	Slots      uint64
	Capacity   uint64
	FreeLocal  int // magazine occupancy, summed across processors
	FreeGlobal int // slots parked on the shared stack of free blocks
}

var (
	regMu      sync.Mutex
	counters   = make(map[string]*Counter)
	histograms = make(map[string]*Histogram)
	pools      = make(map[string]func() (PoolGauges, bool))
	gauges     = make(map[string]func() (int64, bool))

	// enabled is the process-global arm switch; metrics registered while
	// enabled are armed immediately.
	enabled atomic.Bool

	// start anchors NowNanos. Wall-clock start is recorded separately for
	// reports.
	start = time.Now()
)

// NewCounter registers (or looks up) the counter with the given name.
// Call it from package-level var initializers; names are process-global.
func NewCounter(name string) *Counter {
	regMu.Lock()
	defer regMu.Unlock()
	if c, ok := counters[name]; ok {
		return c
	}
	c := &Counter{name: name}
	if enabled.Load() {
		c.shards.Store(new([numShards]shard))
	}
	counters[name] = c
	return c
}

// NewHistogram registers (or looks up) the histogram with the given name.
func NewHistogram(name string) *Histogram {
	regMu.Lock()
	defer regMu.Unlock()
	if h, ok := histograms[name]; ok {
		return h
	}
	h := &Histogram{name: name}
	if enabled.Load() {
		h.buckets.Store(new([histBuckets]shard))
	}
	histograms[name] = h
	return h
}

// RegisterPoolGauges registers a gauge source under name. read must be
// cheap and safe to call from any goroutine; it reports false once its
// pool is gone, at which point the registration is pruned. Callers are
// expected to close over a weak pointer (weak.Make) so registration never
// extends the pool's lifetime.
func RegisterPoolGauges(name string, read func() (PoolGauges, bool)) {
	regMu.Lock()
	defer regMu.Unlock()
	pools[name] = read
}

// RegisterGauge registers a scalar gauge source under name: an
// instantaneous reading sampled only at Snapshot time (queue depths,
// in-flight windows - anything already maintained by the instrumented
// code, where a counter would duplicate state). read must be cheap and
// safe to call from any goroutine; it reports false once its subject is
// gone, at which point the registration is pruned. Re-registering a name
// replaces the previous source (servers restarted in one process simply
// take the name over).
func RegisterGauge(name string, read func() (int64, bool)) {
	regMu.Lock()
	defer regMu.Unlock()
	gauges[name] = read
}

// Enabled reports whether metrics are currently armed. Instrumented code
// uses it to gate work beyond a counter bump (e.g. stamping a retire
// timestamp); it is one atomic bool load.
func Enabled() bool { return enabled.Load() }

// NowNanos returns a monotonic non-zero nanosecond timestamp for latency
// stamps (non-zero so a zeroed header field is unambiguously "no stamp").
func NowNanos() uint64 { return uint64(time.Since(start)) | 1 }

// Enable arms every registered metric with freshly zeroed shards (an
// implicit Reset). Must not race with Disable/Reset.
func Enable() {
	regMu.Lock()
	defer regMu.Unlock()
	enabled.Store(true)
	for _, c := range counters {
		c.shards.Store(new([numShards]shard))
	}
	for _, h := range histograms {
		h.buckets.Store(new([histBuckets]shard))
	}
}

// Disable disarms every metric: subsequent Inc/Observe calls return to
// the single-nil-load fast path and recorded values are discarded.
func Disable() {
	regMu.Lock()
	defer regMu.Unlock()
	enabled.Store(false)
	for _, c := range counters {
		c.shards.Store(nil)
	}
	for _, h := range histograms {
		h.buckets.Store(nil)
	}
}

// Reset zeroes every armed metric without disarming. No-op while
// disabled.
func Reset() {
	regMu.Lock()
	defer regMu.Unlock()
	if !enabled.Load() {
		return
	}
	for _, c := range counters {
		c.shards.Store(new([numShards]shard))
	}
	for _, h := range histograms {
		h.buckets.Store(new([histBuckets]shard))
	}
}

// Bucket is one non-empty histogram bucket: Count values fell in
// [Lo, Hi].
type Bucket struct {
	Lo    uint64 `json:"lo"`
	Hi    uint64 `json:"hi"`
	Count uint64 `json:"count"`
}

// HistogramSnapshot is one histogram's state inside a Report.
type HistogramSnapshot struct {
	Count   uint64   `json:"count"`
	Buckets []Bucket `json:"buckets,omitempty"`
}

// PoolReport is one pool-gauge row inside a Report. Live is clamped to
// >= 0: Stats loads its two counters separately, so a racy read can see a
// free before its alloc, and a report must never show Live: -3.
type PoolReport struct {
	Name       string `json:"name"`
	Allocs     uint64 `json:"allocs"`
	Frees      uint64 `json:"frees"`
	Live       int64  `json:"live"`
	Slots      uint64 `json:"slots"`
	Capacity   uint64 `json:"capacity,omitempty"`
	FreeLocal  int    `json:"freeLocal"`
	FreeGlobal int    `json:"freeGlobal"`
}

// Report is an atomic-enough snapshot of every armed metric (each cell is
// read atomically; cross-cell skew is bounded by the scan itself). Exact
// at quiescence.
type Report struct {
	Enabled    bool                         `json:"enabled"`
	UptimeNano uint64                       `json:"uptimeNano"`
	Counters   map[string]int64             `json:"counters,omitempty"`
	Histograms map[string]HistogramSnapshot `json:"histograms,omitempty"`
	Gauges     map[string]int64             `json:"gauges,omitempty"`
	Pools      []PoolReport                 `json:"pools,omitempty"`
}

// Counter returns the snapshotted value of the named counter (0 if the
// name is unknown or was never incremented).
func (r *Report) Counter(name string) int64 { return r.Counters[name] }

// Snapshot collects every armed metric into a Report. Gauge sources whose
// pool has been collected are pruned as a side effect.
func Snapshot() *Report {
	regMu.Lock()
	defer regMu.Unlock()
	r := &Report{
		Enabled:    enabled.Load(),
		UptimeNano: uint64(time.Since(start)),
		Counters:   make(map[string]int64),
		Histograms: make(map[string]HistogramSnapshot),
	}
	for name, c := range counters {
		if v := c.Value(); v != 0 {
			r.Counters[name] = v
		}
	}
	for name, h := range histograms {
		b := h.buckets.Load()
		if b == nil {
			continue
		}
		var snap HistogramSnapshot
		for i := range b {
			n := b[i].v.Load()
			if n == 0 {
				continue
			}
			lo, hi := uint64(0), uint64(0)
			if i > 0 {
				lo = uint64(1) << (i - 1)
				hi = lo<<1 - 1
			}
			snap.Buckets = append(snap.Buckets, Bucket{Lo: lo, Hi: hi, Count: n})
			snap.Count += n
		}
		if snap.Count > 0 {
			r.Histograms[name] = snap
		}
	}
	for name, read := range gauges {
		v, ok := read()
		if !ok {
			delete(gauges, name)
			continue
		}
		if r.Gauges == nil {
			r.Gauges = make(map[string]int64)
		}
		r.Gauges[name] = v
	}
	for name, read := range pools {
		g, ok := read()
		if !ok {
			delete(pools, name)
			continue
		}
		if g.Live < 0 {
			g.Live = 0 // transient alloc/free skew; never render negative
		}
		r.Pools = append(r.Pools, PoolReport{
			Name: name, Allocs: g.Allocs, Frees: g.Frees, Live: g.Live,
			Slots: g.Slots, Capacity: g.Capacity,
			FreeLocal: g.FreeLocal, FreeGlobal: g.FreeGlobal,
		})
	}
	sort.Slice(r.Pools, func(i, j int) bool { return r.Pools[i].Name < r.Pools[j].Name })
	return r
}

// Quantile returns the q-quantile (q in [0, 1]) of the named histogram,
// linearly interpolated inside its power-of-two bucket, or 0 when the
// histogram is unknown or empty. Precision is bounded by the pow2 bucket
// width (a p99 inside [2^19, 2^20) nanoseconds resolves to within that
// half-megananosecond band), which is the price of the lock-free
// constant-overhead recording path; it is plenty for latency SLO
// reporting (cmd/cdrc-load, the server's STATS command).
func (r *Report) Quantile(name string, q float64) float64 {
	h, ok := r.Histograms[name]
	if !ok || h.Count == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	} else if q > 1 {
		q = 1
	}
	// Fractional 0-based rank of the target observation.
	rank := q * float64(h.Count-1)
	cum := uint64(0)
	for _, b := range h.Buckets {
		if float64(cum+b.Count-1) >= rank {
			frac := (rank - float64(cum)) / float64(b.Count)
			if frac < 0 {
				frac = 0 // rank fell in the gap between adjacent buckets
			}
			return float64(b.Lo) + frac*float64(b.Hi-b.Lo)
		}
		cum += b.Count
	}
	// Unreachable for a well-formed snapshot; fall back to the top edge.
	if n := len(h.Buckets); n > 0 {
		return float64(h.Buckets[n-1].Hi)
	}
	return 0
}

// JSON renders the report as indented JSON (stable: maps marshal in key
// order, pools are pre-sorted).
func (r *Report) JSON() ([]byte, error) { return json.MarshalIndent(r, "", "  ") }

// Text renders the report for terminals: counters and histogram buckets
// sorted by name, pools as one row each.
func (r *Report) Text() string {
	var b strings.Builder
	fmt.Fprintf(&b, "obs report (enabled=%v, uptime=%s)\n", r.Enabled, time.Duration(r.UptimeNano))
	names := make([]string, 0, len(r.Counters))
	for n := range r.Counters {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(&b, "  %-28s %d\n", n, r.Counters[n])
	}
	hnames := make([]string, 0, len(r.Histograms))
	for n := range r.Histograms {
		hnames = append(hnames, n)
	}
	sort.Strings(hnames)
	for _, n := range hnames {
		h := r.Histograms[n]
		fmt.Fprintf(&b, "  %s (n=%d):\n", n, h.Count)
		for _, bk := range h.Buckets {
			fmt.Fprintf(&b, "    [%d, %d]: %d\n", bk.Lo, bk.Hi, bk.Count)
		}
	}
	gnames := make([]string, 0, len(r.Gauges))
	for n := range r.Gauges {
		gnames = append(gnames, n)
	}
	sort.Strings(gnames)
	for _, n := range gnames {
		fmt.Fprintf(&b, "  %-28s %d (gauge)\n", n, r.Gauges[n])
	}
	for _, p := range r.Pools {
		fmt.Fprintf(&b, "  pool %-20s allocs=%d frees=%d live=%d slots=%d freeLocal=%d freeGlobal=%d\n",
			p.Name, p.Allocs, p.Frees, p.Live, p.Slots, p.FreeLocal, p.FreeGlobal)
	}
	return b.String()
}
