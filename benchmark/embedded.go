package main

import (
	"cdrc/collections"
	"cdrc/internal/snaplease"
)

// maxProcs bounds the pid registries of every structure the benchmark
// builds itself: the clients, the teardown handles and slack.
const maxProcs = 8

// embeddedSystem is the server's shard engine used directly: one
// versioned map over a snapshot-lease pool, shared by every client.
type embeddedSystem struct {
	w    *workload
	m    *collections.Map
	pool *snaplease.Pool
}

// newEmbedded builds the map and preloads every key.
func newEmbedded(w *workload, sizes []uint16) (*embeddedSystem, error) {
	pool := snaplease.NewPool(snaplease.DefaultLeases)
	m := collections.NewVersionedMap(w.keys, maxProcs, pool)
	h := m.Attach()
	defer h.Close()
	var buf []byte
	for k := range sizes {
		buf = fillVal(buf, uint64(k), 0, int(sizes[k]))
		if _, _, err := h.Put(uint64(k), buf, nil); err != nil {
			return nil, err
		}
	}
	return &embeddedSystem{w: w, m: m, pool: pool}, nil
}

func (s *embeddedSystem) attach(id int) (session, error) {
	return &embeddedSession{w: s.w, h: s.m.Attach()}, nil
}

// finish runs the quiescent gates and tears the map down. Every key is
// read back first. No lease is ever held, so each write trimmed its key's
// version chain to the new head cell: once the handles drain, the map
// must hold exactly two nodes per resident key (entry + head version).
func (s *embeddedSystem) finish(g *gates) {
	g.check(s.pool.Active() == 0, "%d snapshot leases still active at quiescence", s.pool.Active())
	h := s.m.Attach()
	var v []byte
	resident := int64(0)
	for k := 0; k < s.w.keys; k++ {
		var ok bool
		v, ok = h.Get(uint64(k), v[:0])
		switch {
		case ok:
			resident++
			if !s.w.valOK(v, uint64(k)) {
				g.fail("key %d holds a corrupt value at quiescence", k)
			}
		case s.w.mustHit():
			g.fail("key %d lost", k)
		}
	}
	h.Close()
	s.m.Attach().Close() // adopt and apply any orphaned deferred work
	g.check(s.m.LiveNodes() == 2*resident, "LiveNodes %d != 2 x %d resident keys", s.m.LiveNodes(), resident)
	for i := 0; i < 8 && s.m.LiveNodes() != 0; i++ {
		h := s.m.Attach()
		h.Clear()
		h.Close()
	}
	g.check(s.m.LiveNodes() == 0, "%d nodes live after teardown", s.m.LiveNodes())
	g.check(s.m.ValueSlabsLive() == 0, "%d value slabs live after teardown", s.m.ValueSlabsLive())
}

// embeddedSession is one client goroutine's handle on the shared map.
type embeddedSession struct {
	w    *workload
	h    *collections.MapHandle
	seq  int
	vbuf []byte
	rbuf []byte
}

func (d *embeddedSession) window(ops []op, t *tally, sb *spanBuf, parent int32) (int, error) {
	for _, o := range ops[:windowOps] {
		if sb == nil {
			d.do(o, t)
			continue
		}
		id := sb.open(callName[o.kind], parent)
		d.do(o, t)
		sb.close(id)
	}
	return windowOps, nil
}

var callName = [...]string{
	opGet: "collections.MapHandle.Get",
	opPut: "collections.MapHandle.Put",
	opDel: "collections.MapHandle.Delete",
}

func (d *embeddedSession) do(o op, t *tally) {
	k := uint64(o.key)
	t.sends++
	switch o.kind {
	case opGet:
		v, ok := d.h.Get(k, d.rbuf[:0])
		d.rbuf = v
		t.oks++
		t.lookup(ok, ok && !d.w.valOK(v, k), d.w.mustHit())
	case opPut:
		d.seq++
		d.vbuf = fillVal(d.vbuf, k, d.seq, int(o.size))
		old, existed, err := d.h.Put(k, d.vbuf, d.rbuf[:0])
		d.rbuf = old
		if err != nil {
			t.busys++
			return
		}
		t.oks++
		if existed && !d.w.valOK(old, k) {
			t.integrity++
		}
	case opDel:
		if _, err := d.h.Delete(k); err != nil {
			t.busys++
			return
		}
		t.oks++
	}
}

func (d *embeddedSession) close() { d.h.Close() }
