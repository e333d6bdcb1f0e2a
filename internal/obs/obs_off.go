//go:build obsoff

// The obsoff build compiles every obs metric to a no-op on an unarmable
// zero value, so instrumented call sites vanish entirely after inlining.
// scripts/check.sh builds one Fig benchmark with -tags obsoff to measure
// the cost of the default build's disabled fast path (one atomic nil load
// per site) against this approximation of the uninstrumented seed.
package obs

// BuildEnabled reports whether this build carries the real implementation.
const BuildEnabled = false

// Counter is the no-op obsoff counter.
type Counter struct{ name string }

func (c *Counter) Name() string       { return c.name }
func (c *Counter) Inc(int)            {}
func (c *Counter) Add(int, uint64)    {}
func (c *Counter) Sub(int, uint64)    {}
func (c *Counter) Value() int64       { return 0 }
func NewCounter(name string) *Counter { return &Counter{name: name} }

// Histogram is the no-op obsoff histogram.
type Histogram struct{ name string }

func (h *Histogram) Name() string         { return h.name }
func (h *Histogram) Observe(uint64)       {}
func NewHistogram(name string) *Histogram { return &Histogram{name: name} }

// PoolGauges mirrors the real build's gauge snapshot type.
type PoolGauges struct {
	Allocs     uint64
	Frees      uint64
	Live       int64
	Slots      uint64
	Capacity   uint64
	FreeLocal  int
	FreeGlobal int
}

func RegisterPoolGauges(string, func() (PoolGauges, bool)) {}

func RegisterGauge(string, func() (int64, bool)) {}

func Enabled() bool    { return false }
func NowNanos() uint64 { return 1 }
func Enable()          {}
func Disable()         {}
func Reset()           {}

// Bucket, HistogramSnapshot, PoolReport, and Report mirror the real
// build's shapes so renderers compile unchanged.
type Bucket struct {
	Lo    uint64 `json:"lo"`
	Hi    uint64 `json:"hi"`
	Count uint64 `json:"count"`
}

type HistogramSnapshot struct {
	Count   uint64   `json:"count"`
	Buckets []Bucket `json:"buckets,omitempty"`
}

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

type Report struct {
	Enabled    bool                         `json:"enabled"`
	UptimeNano uint64                       `json:"uptimeNano"`
	Counters   map[string]int64             `json:"counters,omitempty"`
	Histograms map[string]HistogramSnapshot `json:"histograms,omitempty"`
	Gauges     map[string]int64             `json:"gauges,omitempty"`
	Pools      []PoolReport                 `json:"pools,omitempty"`
}

func (r *Report) Counter(string) int64             { return 0 }
func (r *Report) Quantile(string, float64) float64 { return 0 }
func (r *Report) JSON() ([]byte, error) {
	return []byte(`{"enabled":false,"uptimeNano":0}`), nil
}
func (r *Report) Text() string { return "obs report (compiled out: -tags obsoff)\n" }

func Snapshot() *Report { return &Report{} }
