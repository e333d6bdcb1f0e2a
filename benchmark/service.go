package main

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"cdrc/internal/server"
)

// serviceSystem is an in-process server with the cdrc-serve defaults (4
// shards, 8 workers, DebugChecks and obs off), driven over loopback TCP.
type serviceSystem struct {
	w   *workload
	srv *server.Server
}

// cdrc-serve's default shard and worker counts.
const (
	serverShards  = 4
	serverWorkers = 8
)

// serverConfig is the server every service workload and ladder rung
// starts: cdrc-serve's defaults plus the workload's cache mode and
// worker count.
func serverConfig(w *workload) server.Config {
	return server.Config{
		Shards:        serverShards,
		Workers:       w.serverWorkers(),
		CacheMode:     w.cache,
		ArenaCapacity: w.arenaCap,
	}
}

func (w *workload) serverWorkers() int {
	if w.workers > 0 {
		return w.workers
	}
	return serverWorkers
}

// newService starts the server and preloads w.preloadKeys() keys over
// nClients connections in windows of windowOps.
func newService(w *workload, sizes []uint16) (*serviceSystem, error) {
	srv, err := server.New(serverConfig(w))
	if err != nil {
		return nil, err
	}
	s := &serviceSystem{w: w, srv: srv}
	errs := make([]error, nClients)
	var wg sync.WaitGroup
	for c := 0; c < nClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			errs[c] = s.preload(c, sizes)
		}(c)
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		srv.Close()
		return nil, fmt.Errorf("preload: %w", err)
	}
	return s, nil
}

// preload writes keys c, c+nClients, ... below preloadKeys on its own
// connection.
func (s *serviceSystem) preload(c int, sizes []uint16) error {
	cl, err := server.Dial(s.srv.Addr())
	if err != nil {
		return err
	}
	defer cl.Close()
	var b server.Batch
	var res []server.Result
	var buf []byte
	n := s.w.preloadKeys()
	for k := c; k < n; {
		b.Reset()
		for ; b.Len() < windowOps && k < n; k += nClients {
			buf = fillVal(buf, uint64(k), 0, int(sizes[k]))
			if s.w.cache {
				b.SetEx(uint64(k), buf, cacheTTL)
			} else {
				b.Put(uint64(k), buf)
			}
		}
		if res, err = cl.DoBatch(&b, res[:0]); err != nil {
			return err
		}
		for _, r := range res {
			if r.Busy {
				return server.ErrBusy
			}
		}
	}
	return nil
}

func (s *serviceSystem) attach(id int) (session, error) {
	cl, err := server.Dial(s.srv.Addr())
	if err != nil {
		return nil, err
	}
	return &serviceSession{w: s.w, cl: cl, res: make([]server.Result, 0, windowOps)}, nil
}

// finish runs the quiescent gates and closes the server.
func (s *serviceSystem) finish(g *gates) {
	// A lease is released by the worker that served the read, which can
	// trail the reply the client already consumed by a moment.
	deadline := time.Now().Add(time.Second)
	for s.srv.ActiveLeases() != 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	g.check(s.srv.ActiveLeases() == 0, "%d snapshot leases still active at quiescence", s.srv.ActiveLeases())
	if s.w.cache {
		// The expiry sweeper keeps running; a sweep landing between the
		// identity's scan and its counter read shows as a transient
		// mismatch, while a real accounting error persists. Within one TTL
		// plus a sweep every entry has expired and the sweeper goes idle,
		// so the last check runs at true quiescence.
		var err error
		for end := time.Now().Add(cacheTTL + time.Second); ; time.Sleep(10 * time.Millisecond) {
			if err = s.srv.CheckCacheIdentity(); err == nil || time.Now().After(end) {
				break
			}
		}
		g.check(err == nil, "cache identity: %v", err)
	}
	err := s.srv.Close()
	g.check(err == nil, "server close: %v", err)
	g.check(s.srv.Live() == 0, "%d nodes live after Close", s.srv.Live())
}

// serviceSession is one client connection.
type serviceSession struct {
	w     *workload
	cl    *server.Client
	b     server.Batch
	res   []server.Result
	keys  [windowOps]uint64
	kinds [windowOps]opKind
	fills []uint64 // cache mode: keys whose GETEX missed, SETEX'd next window
	seq   int
	vbuf  []byte
}

// window sends one DoBatch of windowOps requests. In cache mode the
// previous window's misses are filled first, taking the place of stream
// ops, so every window carries exactly windowOps requests.
func (d *serviceSession) window(ops []op, t *tally, sb *spanBuf, parent int32) (int, error) {
	d.b.Reset()
	n := 0
	for _, k := range d.fills {
		d.add(op{key: uint32(k), size: uint16(d.w.minVal), kind: opPut}, n)
		n++
	}
	d.fills = d.fills[:0]
	consumed := 0
	for ; n < windowOps; n++ {
		d.add(ops[consumed], n)
		consumed++
	}
	t.sends += windowOps
	id := sb.open("server.Client.DoBatch", parent)
	res, err := d.cl.DoBatch(&d.b, d.res[:0])
	sb.close(id)
	d.res = res
	if err != nil {
		t.errs += int64(windowOps - len(res))
		return consumed, err
	}
	for i, r := range res {
		if r.Busy {
			t.busys++
			continue
		}
		t.oks++
		k := d.keys[i]
		switch d.kinds[i] {
		case opGet:
			t.lookup(r.Found, r.Found && !d.w.valOK(r.Bytes, k), d.w.mustHit())
			if !r.Found && d.w.cache {
				d.fills = append(d.fills, k)
			}
		case opPut:
			if r.Found && !d.w.valOK(r.Bytes, k) {
				t.integrity++
			}
		}
	}
	return consumed, nil
}

func (d *serviceSession) add(o op, i int) {
	k := uint64(o.key)
	d.keys[i], d.kinds[i] = k, o.kind
	switch o.kind {
	case opGet:
		if d.w.cache {
			d.b.GetEx(k, cacheTTL)
		} else {
			d.b.Get(k)
		}
	case opPut:
		d.seq++
		d.vbuf = fillVal(d.vbuf, k, d.seq, int(o.size))
		if d.w.cache {
			d.b.SetEx(k, d.vbuf, cacheTTL)
		} else {
			d.b.Put(k, d.vbuf)
		}
	case opDel:
		d.b.Del(k)
	}
}

// classify counts one non-batch reply. It reports whether the reply
// carries data to check, and returns err unless it was a BUSY shed (the
// connection is then unusable).
func classify(t *tally, err error) (bool, error) {
	switch {
	case err == nil:
		t.oks++
		return true, nil
	case errors.Is(err, server.ErrBusy):
		t.busys++
		return false, nil
	}
	t.errs++
	return false, err
}

// snapRead sends SNAPSCAN and a keys-wide MGET, each one request.
func (d *serviceSession) snapRead(keys []uint64, t *tally, sb *spanBuf, parent int32) error {
	t.sends++
	id := sb.open("server.Client.SnapScan", parent)
	ents, err := d.cl.SnapScan(scanRows)
	sb.close(id)
	ok, err := classify(t, err)
	if err != nil {
		return err
	}
	if ok {
		t.scanned(len(ents), d.w.mustHit())
		for _, e := range ents {
			if !d.w.valOK(e.Val, e.Key) {
				t.integrity++
			}
		}
	}
	t.sends++
	id = sb.open("server.Client.MGet", parent)
	res, err := d.cl.MGet(keys...)
	sb.close(id)
	if ok, err = classify(t, err); ok {
		for i, r := range res {
			if r.Found && !d.w.valOK(r.Bytes, keys[i]) {
				t.integrity++
			}
		}
	}
	return err
}

func (d *serviceSession) close() { d.cl.Close() }
