package server

import (
	"fmt"
	"strconv"
	"time"

	"cdrc/collections"
)

// Cache mode (DESIGN.md §11): the handle pool and connection front end
// are shared with map mode; only the shard handle and the request
// executor differ (cacheExec in server.go). Handle–shard affinity, the
// crash/abandon/replace protocol, and the completion accounting are the
// one execution loop's.

// execCache runs one request (or, for SCAN, this shard's share of one)
// against a borrowed handle of the cache shard. PUT and SETEX absorb arena
// backpressure inside SetEx (synchronous eviction with bounded retries);
// only a dry eviction index lets the arena error through, and then as
// -ERR — never -BUSY — so load harnesses can gate on busy.arena == 0 in
// cache mode.
func (s *Server) execCache(h *collections.CacheHandle, shard int, sl *slot) {
	ttl := time.Duration(sl.ts) * time.Millisecond
	switch sl.op {
	case opGet:
		v, ok := h.Get(sl.key, sl.vtmp[:0])
		sl.vtmp = v
		if ok {
			sl.valReply("+VAL", v)
		} else {
			sl.static = lineNil
		}
	case opGetEx:
		v, ok := h.GetEx(sl.key, ttl, sl.vtmp[:0])
		sl.vtmp = v
		if ok {
			sl.valReply("+VAL", v)
		} else {
			sl.static = lineNil
		}
	case opPut, opSetEx:
		if sl.op == opPut {
			ttl = 0
		}
		old, existed, err := h.SetEx(sl.key, sl.val, ttl, sl.vtmp[:0])
		sl.vtmp = old
		switch {
		case err != nil:
			sl.buf = appendErr(sl.buf[:0], "cache exhausted: %v", err)
		case existed:
			sl.valReply("+OLD", old)
		default:
			sl.static = lineNew
		}
	case opExpire:
		if h.Expire(sl.key, ttl) {
			sl.static = lineExp1
		} else {
			sl.static = lineExp0
		}
	case opDel:
		if h.Del(sl.key) {
			sl.static = lineDel1
		} else {
			sl.static = lineDel0
		}
	case opScan:
		if need := sl.scanNeed(); need > 0 {
			h.Scan(need, sl.rowSink())
		}
	}
}

// CacheStats sums the per-shard cache counters (zero outside cache
// mode). Approximate under load, exact at quiescence.
func (s *Server) CacheStats() collections.CacheStats {
	var t collections.CacheStats
	for _, c := range s.caches {
		if c == nil {
			continue
		}
		st := c.Stats()
		t.Inserts += st.Inserts
		t.Evicts += st.Evicts
		t.Expires += st.Expires
		t.Dels += st.Dels
		t.Hits += st.Hits
		t.Misses += st.Misses
		t.Attempts += st.Attempts
		t.Unindexed += st.Unindexed
	}
	return t
}

// CacheResident sums the per-shard resident entry counts.
func (s *Server) CacheResident() int64 {
	var n int64
	for _, c := range s.caches {
		if c != nil {
			n += c.Resident()
		}
	}
	return n
}

// CheckCacheIdentity verifies every cache shard's conservation identity
// (insert == evict + expire + del + resident). Call at quiescence only;
// in-process load harnesses use it as their leak/accounting gate.
func (s *Server) CheckCacheIdentity() error {
	if !s.cfg.CacheMode {
		return fmt.Errorf("server: not in cache mode")
	}
	for i, c := range s.caches {
		if err := c.CheckIdentity(); err != nil {
			return fmt.Errorf("server: shard %d: %w", i, err)
		}
	}
	return nil
}

// appendCacheStats renders the CACHESTATS reply: a length-prefixed JSON
// object of the summed shard counters plus the derived resident count.
func (s *Server) appendCacheStats(buf []byte) []byte {
	t := s.CacheStats()
	var body []byte
	body = append(body, '{')
	f := func(name string, v uint64) {
		if len(body) > 1 {
			body = append(body, ',')
		}
		body = append(body, '"')
		body = append(body, name...)
		body = append(body, '"', ':')
		body = strconv.AppendUint(body, v, 10)
	}
	f("inserts", t.Inserts)
	f("evicts", t.Evicts)
	f("expires", t.Expires)
	f("dels", t.Dels)
	f("hits", t.Hits)
	f("misses", t.Misses)
	f("attempts", t.Attempts)
	f("unindexed", t.Unindexed)
	f("resident", uint64(s.CacheResident()))
	body = append(body, '}')
	buf = append(buf, '$')
	buf = strconv.AppendInt(buf, int64(len(body)), 10)
	buf = append(buf, '\n')
	buf = append(buf, body...)
	return append(buf, '\n')
}
