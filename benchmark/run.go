package main

import (
	"fmt"
	"runtime"
	"runtime/metrics"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// tally classifies one client's requests. Every request sent gets exactly
// one reply that is ok or BUSY (reply conservation); errs counts requests
// whose reply never came, integrity counts replies whose data was wrong.
type tally struct {
	sends, oks, busys, errs, integrity int64
	hits, misses                       int64 // GET / GETEX outcomes
}

func (t *tally) add(o *tally) {
	t.sends += o.sends
	t.oks += o.oks
	t.busys += o.busys
	t.errs += o.errs
	t.integrity += o.integrity
	t.hits += o.hits
	t.misses += o.misses
}

// lookup counts one GET outcome; a miss fails only when the workload
// guarantees the key is resident.
func (t *tally) lookup(hit, corrupt, mustHit bool) {
	if hit {
		t.hits++
	} else {
		t.misses++
	}
	if corrupt || !hit && mustHit {
		t.integrity++
	}
}

// scanned checks a scan's row count: never above scanRows, and exactly
// scanRows when every key is resident.
func (t *tally) scanned(rows int, mustHit bool) {
	if rows > scanRows || mustHit && rows != scanRows {
		t.integrity++
	}
}

// failed is the number of requests that did not succeed correctly.
func (t *tally) failed() int64 { return t.busys + t.errs + t.integrity }

// gates collects violated correctness gates.
type gates struct{ failed []string }

// check records a violation unless ok. Its arguments are boxed on every
// call, so hot loops test first and call fail.
func (g *gates) check(ok bool, format string, args ...any) {
	if !ok {
		g.fail(format, args...)
	}
}

func (g *gates) fail(format string, args ...any) {
	g.failed = append(g.failed, fmt.Sprintf(format, args...))
}

// session is one client's view of the system under test.
type session interface {
	// window sends ops[:windowOps] (or fewer, if the session injects its
	// own requests) as one closed-loop window, classifies every reply
	// into t, and returns how many of ops it consumed. sb is non-nil
	// when the window is traced; parent is the window's span. An error
	// leaves the session unusable.
	window(ops []op, t *tally, sb *spanBuf, parent int32) (int, error)
	close()
}

// snapReader is a session that sends the periodic snapshot reads of a
// workload with scans, tracing like window.
type snapReader interface {
	snapRead(keys []uint64, t *tally, sb *spanBuf, parent int32) error
}

// system is one set-up instance of a workload's system under test.
type system interface {
	attach(id int) (session, error)
	// finish runs the quiescent correctness gates once every session is
	// closed, then tears the system down.
	finish(g *gates)
}

func newSystem(w *workload, sizes []uint16) (system, error) {
	if w.service {
		return newService(w, sizes)
	}
	return newEmbedded(w, sizes)
}

// measureSlices splits every measured window into equal slices. Each
// end-to-end rate and latency is the median of its per-slice values, so
// a stall that hits part of the window (a GC cycle, a busy neighbour on a
// shared host) moves it by a rank instead of shifting the whole window.
const measureSlices = 20

// A pass's phase: the warm-up, then measured slice k as phase k, then the
// stop.
const (
	phaseWarm int32 = -1
	phaseStop int32 = measureSlices
)

// clientState is one client goroutine's private bookkeeping.
type clientState struct {
	tally
	lat   [measureSlices]hist  // window latency per measured slice
	ops   [measureSlices]int64 // requests in windows started in each slice
	scan  hist                 // periodic-read latency, measured phase only
	total int64                // requests in every phase
	spans *spanBuf
	err   error
}

// clientLoop replays stream through d until the phase reaches stop, or
// until a request fails without a reply (st.err). A non-nil sr sends
// the snapshot reads every snapEvery ops.
func clientLoop(d session, sr snapReader, stream []op, ph *atomic.Int32, st *clientState) {
	defer d.close()
	var keys [mgetKeys]uint64
	i, sinceSnap, windows, snaps := 0, 0, 0, 0
	for {
		p := ph.Load()
		if p == phaseStop {
			return
		}
		sb, id := st.sample(p, &windows, traceEvery, "client.window")
		t0 := now()
		n, err := d.window(stream[i:], &st.tally, sb, id)
		dt := now() - t0
		sb.close(id)
		if err != nil {
			st.err = err
			return
		}
		i += n
		if i >= streamLen {
			i -= streamLen
		}
		st.total += windowOps
		if p >= 0 {
			st.lat[p].record(dt)
			st.ops[p] += windowOps
		}
		if sinceSnap += windowOps; sr == nil || sinceSnap < snapEvery {
			continue
		}
		sinceSnap -= snapEvery
		for j := range keys {
			keys[j] = uint64(stream[i+j].key)
		}
		sb, id = st.sample(p, &snaps, traceEvery*windowOps/snapEvery, "client.snapread")
		before := st.sends
		t0 = now()
		err = sr.snapRead(keys[:], &st.tally, sb, id)
		dt = now() - t0
		sb.close(id)
		if err != nil {
			st.err = err
			return
		}
		st.total += st.sends - before
		if p >= 0 {
			st.scan.record(dt)
			st.ops[p] += st.sends - before
		}
	}
}

// sample opens a root span for one in every calls counted by n during a
// traced measured phase, returning the buffer children go to (nil when
// this call is not traced) and the span.
func (st *clientState) sample(p int32, n *int, every int, name string) (*spanBuf, int32) {
	*n++
	if p < 0 || st.spans == nil || *n%every != 1 {
		return nil, noSpan
	}
	return st.spans, st.spans.open(name, noSpan)
}

// procSample is a process-wide resource reading.
type procSample struct {
	at                int64 // now()
	cpuNs             int64 // user + system CPU time
	allocBytes, gcNum uint64
}

var sampleNames = []string{"/gc/heap/allocs:bytes", "/gc/cycles/total:gc-cycles"}

func sampleProc() procSample {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	s := make([]metrics.Sample, len(sampleNames))
	for i, n := range sampleNames {
		s[i].Name = n
	}
	metrics.Read(s)
	return procSample{
		at:         now(),
		cpuNs:      ru.Utime.Nano() + ru.Stime.Nano(),
		allocBytes: s[0].Value.Uint64(),
		gcNum:      s[1].Value.Uint64(),
	}
}

// heapObjectBytes returns live heap object bytes after a full collection.
func heapObjectBytes() uint64 {
	runtime.GC()
	s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// passResult is what one measured pass over a set-up system yields, or
// several passes pooled by add.
type passResult struct {
	tally
	lat, scan hist // over the whole measured window
	// rates and means hold each measured slice's request rate (1/s) and
	// mean window latency (ns).
	rates, means []float64
	measured     int64  // requests completed in the measured window
	total        int64  // requests in every phase
	cpuNs        int64  // process CPU time in the measured window
	allocBytes   uint64 // heap bytes allocated in the measured window
	gcCycles     uint64
	heapObjects  uint64 // live heap after the window (of one pass)
	spans        []*spanBuf
}

// rate and meanLat are the medians over the measured slices.
func (r *passResult) rate() float64    { return median(r.rates) }
func (r *passResult) meanLat() float64 { return median(r.means) }

// add pools pass o into r.
func (r *passResult) add(o *passResult) {
	r.tally.add(&o.tally)
	r.lat.merge(&o.lat)
	r.scan.merge(&o.scan)
	r.rates = append(r.rates, o.rates...)
	r.means = append(r.means, o.means...)
	r.measured += o.measured
	r.total += o.total
	r.cpuNs += o.cpuNs
	r.allocBytes += o.allocBytes
	r.gcCycles += o.gcCycles
	r.spans = append(r.spans, o.spans...)
}

// runPass attaches nClients sessions, warms up, measures for dur, stops the
// clients and reads the live heap. It leaves the system set up. A traced
// pass samples spans. A client that lost its connection is a gate
// failure.
func runPass(w *workload, sys system, streams [][]op, warm, dur time.Duration, traced bool, g *gates) (*passResult, error) {
	sessions := make([]session, nClients)
	for c := range sessions {
		d, err := sys.attach(c)
		if err != nil {
			for _, d := range sessions[:c] {
				d.close()
			}
			return nil, err
		}
		sessions[c] = d
	}
	var ph atomic.Int32
	ph.Store(phaseWarm)
	states := make([]clientState, nClients)
	var wg sync.WaitGroup
	for c, d := range sessions {
		if traced {
			states[c].spans = &spanBuf{workload: w.name}
		}
		var sr snapReader
		if w.scans {
			sr = d.(snapReader)
		}
		wg.Add(1)
		go func(c int, d session) {
			defer wg.Done()
			clientLoop(d, sr, streams[c], &ph, &states[c])
		}(c, d)
	}
	time.Sleep(warm)
	s0 := sampleProc()
	var at [measureSlices + 1]int64 // slice k runs from at[k] to at[k+1]
	for k := range measureSlices {
		at[k] = now()
		ph.Store(int32(k))
		time.Sleep(time.Duration(s0.at + int64(k+1)*int64(dur)/measureSlices - now()))
	}
	ph.Store(phaseStop)
	s1 := sampleProc()
	at[measureSlices] = s1.at
	wg.Wait()
	r := &passResult{
		cpuNs:      s1.cpuNs - s0.cpuNs,
		allocBytes: s1.allocBytes - s0.allocBytes,
		gcCycles:   s1.gcNum - s0.gcNum,
	}
	for c := range states {
		st := &states[c]
		if st.err != nil {
			g.fail("client %d: %v", c, st.err)
		}
		r.tally.add(&st.tally)
		r.scan.merge(&st.scan)
		r.total += st.total
		if st.spans != nil {
			r.spans = append(r.spans, st.spans)
		}
	}
	for k := range measureSlices {
		var lat hist
		var ops int64
		for c := range states {
			lat.merge(&states[c].lat[k])
			ops += states[c].ops[k]
		}
		r.lat.merge(&lat)
		r.measured += ops
		if lat.n == 0 {
			continue // a slice too short to complete a window
		}
		r.rates = append(r.rates, float64(ops)/(float64(at[k+1]-at[k])/1e9))
		r.means = append(r.means, lat.mean())
	}
	r.heapObjects = heapObjectBytes()
	return r, nil
}

func median(v []float64) float64 {
	_, m, _ := quartiles(v)
	return m
}
