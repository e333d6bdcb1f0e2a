package main

import (
	"runtime/metrics"
	"sync/atomic"
	"time"

	"cdrc/collections"
	"cdrc/internal/acqret"
	"cdrc/internal/arena"
	"cdrc/internal/core"
	"cdrc/internal/ds"
	"cdrc/internal/ds/rcds"
	"cdrc/internal/obs"
	"cdrc/internal/server"
	"cdrc/internal/snaplease"
	"cdrc/internal/vals"
)

// ladder replays one client's op stream (same seed, keys and sizes) on
// one goroutine into each layer's public API, from the arena up to the
// socket, timing windows of windowOps calls. Each rung builds, preloads
// and tears down its own structure; teardown leaks are gate failures.
type ladder struct {
	w      *workload
	stream []op
	sizes  []uint16
	budget time.Duration // per rung
	g      *gates
	spans  *spanBuf

	all, gets, dels []uint64 // stream keys: every op, GET ops, DEL ops
	puts            []op

	// out holds every rung's result by metric name; the ones perLayer
	// names are reported.
	out map[string]float64
	// storageNs is the mix-weighted time of one op in the top storage
	// layer the server calls, for server.self_ns_per_op.
	storageNs float64
}

func newLadder(w *workload, stream []op, sizes []uint16, budget time.Duration, g *gates, sb *spanBuf) *ladder {
	l := &ladder{w: w, stream: stream, sizes: sizes, budget: budget, g: g, spans: sb,
		out: make(map[string]float64)}
	for _, o := range stream[:streamLen] {
		k := uint64(o.key)
		l.all = append(l.all, k)
		switch o.kind {
		case opGet:
			l.gets = append(l.gets, k)
		case opPut:
			l.puts = append(l.puts, o)
		case opDel:
			l.dels = append(l.dels, k)
		}
	}
	// A stream without a kind replays that layer call on every stream key.
	if len(l.gets) == 0 {
		l.gets = l.all
	}
	if len(l.dels) == 0 {
		l.dels = l.all
	}
	if len(l.puts) == 0 {
		for _, k := range l.all {
			l.puts = append(l.puts, op{key: uint32(k), size: uint16(w.minVal), kind: opPut})
		}
	}
	return l
}

func heapAllocObjects() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:objects"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// timeWindows calls window(i0) for i0 = 0, windowOps, 2*windowOps, ...
// until the rung budget is spent. window times its own calls (leaving
// per-window set-up untimed) and returns their total time and count.
// The result is the mean ns and heap allocations per call.
func (l *ladder) timeWindows(window func(i0 int) (ns int64, calls int)) (nsPer, allocsPer float64) {
	a0 := heapAllocObjects()
	var ns int64
	calls := 0
	for i0, end := 0, now()+int64(l.budget); now() < end; i0 += windowOps {
		dn, c := window(i0)
		ns += dn
		calls += c
	}
	allocs := heapAllocObjects() - a0
	if calls == 0 {
		return 0, 0
	}
	return float64(ns) / float64(calls), float64(allocs) / float64(calls)
}

// perCall times call(i) in windows of windowOps consecutive calls.
func (l *ladder) perCall(call func(i int)) (float64, float64) {
	return l.timeWindows(func(i0 int) (int64, int) {
		t0 := now()
		for i := i0; i < i0+windowOps; i++ {
			call(i)
		}
		return now() - t0, windowOps
	})
}

// rung records a timed rung under name (name_ns, name_allocs) and as a
// root span covering the rung.
func (l *ladder) rung(name string, f func() (float64, float64)) {
	id := l.spans.open("ladder."+name, noSpan)
	l.out[name+"_ns"], l.out[name+"_allocs"] = f()
	l.spans.close(id)
}

func at[T any](s []T, i int) T { return s[i%len(s)] }

func (l *ladder) run() {
	l.arenaRung()
	l.coreRungs()
	l.acqretRungs()
	l.valsRungs()
	l.snapleaseRung()
	l.rcdsRungs()
	l.collectionsRungs()
	l.cacheRungs()
	l.serverRungs()

	wGet, wPut, wDel := mix(l.stream)
	coll := wGet*l.out["collections.get_ns"] + wPut*l.out["collections.put_ns"] + wDel*l.out["collections.del_ns"]
	rc := wGet*l.out["rcds.getb_ns"] + wPut*l.out["rcds.putb_ns"] + wDel*l.out["rcds.del_ns"]
	below := wGet*(l.out["core.snapshot_ns"]+l.out["vals.append_ns"]) +
		wPut*(l.out["core.store_ns"]+l.out["vals.put_free_ns"]) + wDel*l.out["core.store_ns"]
	l.out["collections.self_ns_per_op"] = coll - rc
	l.out["rcds.self_ns_per_op"] = rc - below
	l.storageNs = coll
	if l.w.cache {
		l.storageNs = wGet*l.out["cache.getex_ns"] + (wPut+wDel)*l.out["cache.setex_ns"]
	}
}

func (l *ladder) arenaRung() {
	p := arena.NewPool[[64]byte](maxProcs)
	l.rung("arena.alloc_free", func() (float64, float64) {
		return l.perCall(func(int) { p.Free(0, p.Alloc(0)) })
	})
	l.g.check(p.Live() == 0, "arena rung: %d slots live", p.Live())
}

type coreObj struct{ v uint64 }

func (l *ladder) coreRungs() {
	d := core.NewDomain[coreObj](core.Config[coreObj]{MaxProcs: maxProcs})
	th := d.Attach()
	other := d.Attach()
	cells := make([]core.AtomicRcPtr, l.w.keys)
	refs := make([]core.RcPtr, l.w.keys)
	for i := range cells {
		cells[i].Init(th.NewRc(nil))
		refs[i] = th.Load(&cells[i])
	}
	l.rung("core.snapshot", func() (float64, float64) {
		return l.perCall(func(i int) {
			s := th.GetSnapshot(&cells[at(l.all, i)])
			th.ReleaseSnapshot(&s)
		})
	})
	l.rung("core.load_release", func() (float64, float64) {
		return l.perCall(func(i int) { th.Release(th.Load(&cells[at(l.all, i)])) })
	})
	l.rung("core.clone_release_owner", func() (float64, float64) {
		return l.perCall(func(i int) { th.Release(th.Clone(refs[at(l.all, i)])) })
	})
	l.rung("core.clone_release_cross", func() (float64, float64) {
		return l.perCall(func(i int) { other.Release(other.Clone(refs[at(l.all, i)])) })
	})
	l.rung("core.store", func() (float64, float64) {
		return l.perCall(func(i int) {
			p := th.NewRc(nil)
			th.Store(&cells[at(l.all, i)], p)
			th.Release(p)
		})
	})
	for i := range cells {
		th.Release(refs[i])
		th.StoreMove(&cells[i], core.NilRcPtr)
	}
	other.Detach()
	th.Detach()
	d.Attach().Detach() // apply orphaned deferred decrements
	l.g.check(d.Live() == 0, "core rung: %d objects live", d.Live())
}

func (l *ladder) acqretRungs() {
	d := acqret.New(maxProcs)
	pid := d.Register()
	src := make([]atomic.Uint64, l.w.keys)
	for i := range src {
		src[i].Store(uint64(i+1) << 3)
	}
	l.rung("acqret.acquire_release", func() (float64, float64) {
		return l.perCall(func(i int) {
			d.Acquire(pid, 0, &src[at(l.all, i)])
			d.Release(pid, 0)
		})
	})
	l.rung("acqret.retire_eject", func() (float64, float64) {
		return l.perCall(func(i int) {
			d.Retire(pid, uint64(at(l.all, i)+1)<<3)
			d.Eject(pid)
		})
	})
	d.EjectAllLocal(pid)
	d.Unregister(pid)
	l.g.check(d.Deferred() == 0, "acqret rung: %d retires not ejected", d.Deferred())
}

func (l *ladder) valsRungs() {
	p := vals.New(vals.Config{MaxProcs: maxProcs})
	l.rung("vals.put_free", func() (float64, float64) {
		return l.perCall(func(i int) {
			ref, err := p.TryPut(0, pattern[:at(l.puts, i).size])
			if err != nil {
				l.g.fail("vals rung: TryPut: %v", err)
			}
			p.Free(0, ref)
		})
	})
	refs := make([]uint64, 256)
	for i := range refs {
		ref, err := p.TryPut(0, pattern[:at(l.puts, i).size])
		if err != nil {
			l.g.fail("vals rung: TryPut: %v", err)
		}
		refs[i] = ref
	}
	var dst []byte
	l.rung("vals.append", func() (float64, float64) {
		return l.perCall(func(i int) { dst = p.AppendTo(dst[:0], at(refs, i)) })
	})
	for _, ref := range refs {
		p.Free(0, ref)
	}
	l.g.check(p.Live() == 0, "vals rung: %d slabs live", p.Live())
}

func (l *ladder) snapleaseRung() {
	pool := snaplease.NewPool(snaplease.DefaultLeases)
	l.rung("snaplease.acquire_release", func() (float64, float64) {
		return l.perCall(func(int) {
			ls, _ := pool.Acquire(0)
			ls.Release(0)
		})
	})
	l.g.check(pool.Active() == 0, "snaplease rung: %d leases active", pool.Active())
}

// kvOps is the byte-map surface the rcds and collections rungs share.
type kvOps struct {
	get func(k uint64, dst []byte) ([]byte, bool)
	put func(k uint64, v, dst []byte) ([]byte, bool, error)
	del func(k uint64) (bool, error)
}

// preload writes every key's preloaded value.
func (l *ladder) preload(kv kvOps) {
	var buf []byte
	for k := range l.sizes {
		buf = fillVal(buf, uint64(k), 0, int(l.sizes[k]))
		if _, _, err := kv.put(uint64(k), buf, nil); err != nil {
			l.g.fail("ladder preload: %v", err)
		}
	}
}

// kvRungs times get, put and del through kv under prefix; puts and the
// deleted keys' re-puts render their values untimed.
func (l *ladder) kvRungs(prefix, get, put string, kv kvOps) {
	var dst []byte
	var vbuf [windowOps][]byte
	l.rung(prefix+"."+get, func() (float64, float64) {
		return l.perCall(func(i int) {
			k := at(l.gets, i)
			var ok bool
			dst, ok = kv.get(k, dst[:0])
			if ok && !l.w.valOK(dst, k) {
				l.g.fail("%s.%s: corrupt value for key %d", prefix, get, k)
			}
		})
	})
	l.rung(prefix+"."+put, func() (float64, float64) {
		return l.timeWindows(func(i0 int) (int64, int) {
			for j := range vbuf {
				o := at(l.puts, i0+j)
				vbuf[j] = fillVal(vbuf[j], uint64(o.key), j, int(o.size))
			}
			t0 := now()
			for j := range vbuf {
				if _, _, err := kv.put(uint64(at(l.puts, i0+j).key), vbuf[j], dst[:0]); err != nil {
					l.g.fail("%s.%s: %v", prefix, put, err)
				}
			}
			return now() - t0, windowOps
		})
	})
	l.rung(prefix+".del", func() (float64, float64) {
		return l.timeWindows(func(i0 int) (int64, int) {
			t0 := now()
			for j := 0; j < windowOps; j++ {
				if _, err := kv.del(at(l.dels, i0+j)); err != nil {
					l.g.fail("%s.del: %v", prefix, err)
				}
			}
			dt := now() - t0
			for j := 0; j < windowOps; j++ {
				k := at(l.dels, i0+j)
				vbuf[j] = fillVal(vbuf[j], k, j, int(l.sizes[k]))
				if _, _, err := kv.put(k, vbuf[j], dst[:0]); err != nil {
					l.g.fail("%s.del re-put: %v", prefix, err)
				}
			}
			return dt, windowOps
		})
	})
}

func (l *ladder) rcdsRungs() {
	t := rcds.NewVersionedHashTable(l.w.keys, maxProcs, snaplease.NewPool(snaplease.DefaultLeases))
	t.EnableByteValues("")
	mt := t.AttachMap().(ds.VersionedMapThread)
	kv := kvOps{get: mt.GetB, put: mt.PutB, del: mt.DeleteV}
	l.preload(kv)
	l.kvRungs("rcds", "getb", "putb", kv)
	mt.Clear()
	mt.Detach()
	for i := 0; i < 8 && t.LiveNodes() != 0; i++ {
		th := t.AttachMap()
		th.Clear()
		th.Detach()
	}
	l.g.check(t.LiveNodes() == 0, "rcds rung: %d nodes live", t.LiveNodes())
}

func (l *ladder) collectionsRungs() {
	pool := snaplease.NewPool(snaplease.DefaultLeases)
	m := collections.NewVersionedMap(l.w.keys, maxProcs, pool)
	h := m.Attach()
	kv := kvOps{get: h.Get, put: h.Put, del: h.Delete}
	l.preload(kv)
	l.kvRungs("collections", "get", "put", kv)
	var dst []byte
	l.rung("collections.getat", func() (float64, float64) {
		return l.timeWindows(func(i0 int) (int64, int) {
			ls, ok := pool.Acquire(0)
			if !ok {
				l.g.fail("collections.getat: lease pool full")
			}
			t0 := now()
			for i := i0; i < i0+windowOps; i++ {
				dst, _ = h.GetAt(ls.TS(), at(l.gets, i), dst[:0])
			}
			dt := now() - t0
			ls.Release(0)
			return dt, windowOps
		})
	})
	id := l.spans.open("ladder.collections.scanat", noSpan)
	l.out["collections.scanat_ns_per_row"], _ = l.timeWindows(func(int) (int64, int) {
		ls, ok := pool.Acquire(0)
		if !ok {
			l.g.fail("collections.scanat: lease pool full")
		}
		t0 := now()
		rows := h.ScanAt(ls.TS(), scanRows, func(k uint64, v []byte) bool {
			if !l.w.valOK(v, k) {
				l.g.fail("collections.scanat: corrupt value for key %d", k)
			}
			return true
		})
		dt := now() - t0
		ls.Release(0)
		return dt, rows
	})
	l.spans.close(id)
	h.Close()
	for i := 0; i < 8 && m.LiveNodes() != 0; i++ {
		h := m.Attach()
		h.Clear()
		h.Close()
	}
	l.g.check(m.LiveNodes() == 0, "collections rung: %d nodes live", m.LiveNodes())
}

func (l *ladder) cacheRungs() {
	c := collections.NewCache(collections.CacheConfig{
		ExpectedKeys: l.w.keys,
		MaxProcs:     maxProcs,
		Capacity:     uint64(l.w.keys / 4),
	})
	h := c.Attach()
	var dst, vbuf []byte
	for k := range l.sizes {
		vbuf = fillVal(vbuf, uint64(k), 0, int(l.sizes[k]))
		if _, _, err := h.SetEx(uint64(k), vbuf, cacheTTL, nil); err != nil {
			l.g.fail("cache preload: %v", err)
		}
	}
	st0 := c.Stats()
	var misses [windowOps]uint64
	l.rung("cache.getex", func() (float64, float64) {
		return l.timeWindows(func(i0 int) (int64, int) {
			n := 0
			t0 := now()
			for i := i0; i < i0+windowOps; i++ {
				k := at(l.gets, i)
				var ok bool
				if dst, ok = h.GetEx(k, cacheTTL, dst[:0]); !ok {
					misses[n] = k
					n++
				}
			}
			dt := now() - t0
			for _, k := range misses[:n] {
				vbuf = fillVal(vbuf, k, 0, int(l.sizes[k]))
				if _, _, err := h.SetEx(k, vbuf, cacheTTL, dst[:0]); err != nil {
					l.g.fail("cache fill: %v", err)
				}
			}
			return dt, windowOps
		})
	})
	var vb [windowOps][]byte
	l.rung("cache.setex", func() (float64, float64) {
		return l.timeWindows(func(i0 int) (int64, int) {
			for j := range vb {
				o := at(l.puts, i0+j)
				vb[j] = fillVal(vb[j], uint64(o.key), j, int(o.size))
			}
			t0 := now()
			for j := range vb {
				if _, _, err := h.SetEx(uint64(at(l.puts, i0+j).key), vb[j], cacheTTL, dst[:0]); err != nil {
					l.g.fail("cache.setex: %v", err)
				}
			}
			return now() - t0, windowOps
		})
	})
	st := c.Stats()
	l.out["cache.evicts_per_insert"] = ratio(st.Evicts-st0.Evicts, st.Inserts-st0.Inserts)
	l.out["cache.attempts_per_evict"] = ratio(st.Attempts-st0.Attempts, st.Evicts-st0.Evicts)
	l.out["cache.hit_ratio"] = ratio(st.Hits-st0.Hits, st.Hits-st0.Hits+st.Misses-st0.Misses)
	h.Close()
	err := c.CheckIdentity()
	l.g.check(err == nil, "cache rung identity: %v", err)
	err = c.Close()
	l.g.check(err == nil, "cache rung close: %v", err)
}

func ratio(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// serverRungs start the workload's server configuration, preload it, and
// time lock-step single GETs (depth 1), then replay the stream in
// pipelined windows (depth 16) with obs on to read the server's flush
// batch and shard queue depth histograms.
func (l *ladder) serverRungs() {
	sys, err := newService(l.w, l.sizes)
	if err != nil {
		l.g.fail("server rung: %v", err)
		return
	}
	cl, err := server.Dial(sys.srv.Addr())
	if err != nil {
		l.g.fail("server rung: %v", err)
		sys.finish(l.g)
		return
	}
	var h hist
	id := l.spans.open("ladder.server.rtt_d1", noSpan)
	for i, end := 0, now()+int64(l.budget); now() < end; i++ {
		k := at(l.gets, i)
		t0 := now()
		var v []byte
		var ok bool
		if l.w.cache {
			v, ok, err = cl.GetEx(k, cacheTTL)
		} else {
			v, ok, err = cl.Get(k)
		}
		h.record(now() - t0)
		if err != nil || ok && !l.w.valOK(v, k) {
			l.g.fail("server rung GET of key %d: err %v", k, err)
		}
	}
	l.spans.close(id)
	cl.Close()
	l.out["server.rtt_d1_us_p50"] = h.quantile(0.50) / 1e3
	l.out["server.rtt_d1_us_p99"] = h.quantile(0.99) / 1e3

	d, err := sys.attach(0)
	if err != nil {
		l.g.fail("server rung: %v", err)
		sys.finish(l.g)
		return
	}
	var t tally
	obs.Enable()
	id = l.spans.open("ladder.server.pipelined_d16", noSpan)
	for i, end := 0, now()+int64(l.budget); now() < end; {
		n, err := d.window(l.stream[i:], &t, nil, noSpan)
		if err != nil {
			l.g.fail("server d16 rung: %v", err)
			break
		}
		if i += n; i >= streamLen {
			i -= streamLen
		}
	}
	l.spans.close(id)
	rep := obs.Snapshot()
	obs.Disable()
	d.close()
	l.g.check(t.failed() == 0 && t.sends == t.oks, "server d16 rung: %d of %d requests failed", t.failed(), t.sends)
	// Every request of the rung is worker-executed, so replies over
	// flushes is the exact mean batch; queue depth has only its histogram.
	l.out["server.flush_batch_mean"] = ratio(uint64(rep.Counter("server.reply")), rep.Histograms["server.flush.batch"].Count)
	l.out["server.queue_depth_mean"] = histMean(rep.Histograms["server.queue.depth"])
	sys.finish(l.g)
}

// histMean estimates an obs histogram's mean from its power-of-two
// buckets (each bucket counted at its midpoint).
func histMean(h obs.HistogramSnapshot) float64 {
	var sum float64
	for _, b := range h.Buckets {
		sum += float64(b.Count) * (float64(b.Lo) + float64(b.Hi)) / 2
	}
	if h.Count == 0 {
		return 0
	}
	return sum / float64(h.Count)
}
