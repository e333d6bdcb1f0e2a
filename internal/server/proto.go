package server

import (
	"fmt"
	"strconv"
	"sync/atomic"

	"cdrc/internal/snaplease"
)

// Wire protocol: a RESP-like text framing over TCP, one request per line
// (LF or CRLF) with decimal uint64 keys. Values are length-prefixed raw
// byte strings: a verb that carries a value names its byte length as the
// line's last field, and the value's bytes follow the line immediately,
// terminated by one LF (the bytes themselves are arbitrary binary — the
// length, not the newline, frames them). The protocol is pipelined: a
// client may send any number of requests without waiting, and the server
// replies strictly in request order per connection.
//
// Requests:
//
//	PING
//	GET <key>
//	PUT <key> <len>\n<bytes>\n
//	DEL <key>
//	SCAN <limit>
//	MGET <k1> [k2 … k8]     snapshot-consistent multi-key read
//	SNAPSCAN <limit>        snapshot-consistent scan over all shards
//	STATS
//
// MGET and SNAPSCAN read every key at one version timestamp drawn from
// the server's snapshot-lease pool (DESIGN.md §10): the reply is an
// atomic point-in-time view across shards, unlike SCAN's weakly
// consistent per-shard union. A full lease pool sheds with -BUSY.
//
// Cluster requests (replicated mode, DESIGN.md §9):
//
//	RPUT <shard> <seq> <key> <len>\n<bytes>\n   replicate a PUT
//	RDEL <shard> <seq> <key>         replicate a DEL (primary → replica)
//	PROMOTE <shard>                  make this node primary for shard,
//	                                 after draining its replication log
//
// Cache requests (cache mode, DESIGN.md §11; TTLs are decimal
// milliseconds):
//
//	SETEX <key> <ttl> <len>\n<bytes>\n
//	                          PUT with an expiry deadline (ttl 0 = none)
//	GETEX <key> <ttl>         GET that marks the key recently used and,
//	                          with ttl > 0, replaces its deadline
//	EXPIRE <key> <ttl>        replace the deadline (ttl 0 expires now)
//	CACHESTATS                aggregated cache counters (JSON)
//
// In cache mode GET/PUT/DEL remain valid (PUT is SETEX with ttl 0, GET
// does not touch the clock bit) and SCAN visits live entries only, but
// the versioned verbs MGET and SNAPSCAN answer -ERR: cache shards trade
// multi-versioning for TTL words. PUT and SETEX never answer -BUSY for
// an exhausted arena — the serving worker synchronously evicts and
// retries instead (backpressure-driven eviction); only a fully dry
// eviction index surfaces the arena error as -ERR. Outside cache mode
// the four cache verbs answer -ERR.
//
// Replies (first byte classifies):
//
//	+PONG
//	+VAL <len>\n<bytes>\n   GET hit        +NIL   GET miss
//	+OLD <len>\n<bytes>\n   PUT replaced   +NEW   PUT inserted
//	+DEL 1     DEL hit            +DEL 0     DEL miss
//	*<n>       SCAN/SNAPSCAN header, followed by n rows, each
//	           "<key> <len>\n<bytes>\n"
//	*<n>       MGET header: one row per requested key, in request
//	           order — "<key> <len>\n<bytes>\n" for a hit, "<key> -"
//	           (no body) for a miss
//	$<len>     STATS header, followed by len raw bytes (obs JSON) and LF
//	+RACK <shard> <seq>  RPUT/RDEL applied (or duplicate of an applied
//	           seq; the apply is idempotent per (shard, seq))
//	+PROMOTED <shard> <seq>  promotion done; seq is the last applied
//	           replication seq for the shard (0 = log was empty)
//	-BUSY      request shed: worker queue full, arena exhausted, the
//	           serving worker crashed mid-request, or the shard's
//	           replication log is full (ack would not be durable);
//	           no effect, retryable. An out-of-order RPUT/RDEL (a gap in
//	           the seq stream) is also -BUSY: the shipper rewinds to the
//	           last acked seq and re-ships.
//	-MOVED <addr>  the key's shard is not primary here; retry at addr
//	-ERR <msg> malformed request or server-side failure
//
// Every request line receives exactly one reply (BUSY included), which is
// what lets cmd/cdrc-load check conservation: sends == replies, and
// separately sends == executed requests + BUSY sheds. A value body is
// consumed whenever its length field parsed, even if the rest of the
// request is rejected (-ERR, -MOVED, or a shed), so the stream stays in
// sync; a body longer than the server's value cap is discarded and
// answered with -ERR. A request line longer than the server's read
// buffer is consumed and answered with "-ERR line too long"; the
// connection then resynchronizes at the next newline instead of
// dropping.

// opcodes for worker-executed requests.
const (
	opGet = iota
	opPut
	opDel
	opScan
	opRPut // replication apply of a PUT (replica side)
	opRDel // replication apply of a DEL (replica side)
	opMGet // leased multi-key read, fanned to every shard
	opSnapScan
	opSetEx  // cache write with TTL (sl.ts carries the TTL in ms)
	opGetEx  // cache read with clock touch (sl.ts carries the TTL in ms)
	opExpire // cache deadline replacement (sl.ts carries the TTL in ms)
)

// Completion causes. A slot completes with exactly one cause; the first
// failure to land wins (slot.fail is CAS-once), so a SCAN that is both
// partially shed at a queue and hit by a worker crash still counts one
// shed, under one cause, for one -BUSY reply.
const (
	causeNone  uint32 = iota
	causeQueue        // shed at a full shard queue (never reached a worker)
	causeArena        // arena exhausted mid-execution (PUT backpressure)
	causeCrash        // serving worker took a simulated crash
	causeRepl         // replication backpressure: log full (primary) or
	// seq gap (replica); either way nothing was applied
	causeLease // snapshot-lease pool exhausted (never reached a worker)
)

// slot is one in-flight request in a connection's completion ring. Slots
// are allocated once per connection (MaxPipeline of them) and recycled
// through the free list, so the steady-state hot path performs zero heap
// allocations per request. Single-shard ops are owned by exactly one
// worker; SCAN is fanned out to every shard and each worker writes only
// its own segs/ns index, so no field is written concurrently except the
// atomics.
type slot struct {
	op    int
	key   uint64
	limit int

	// val holds the request's value bytes (PUT/SETEX/RPUT), copied off
	// the connection's parse buffer by the reader — the parse buffer is
	// recycled per line, while the op may sit in a shard queue. vtmp is
	// worker-side scratch for reading displaced or fetched values before
	// rendering. Both are per-slot and reused, so the steady-state data
	// path allocates nothing once warm.
	val  []byte
	vtmp []byte

	// shard and seq carry RPUT/RDEL replication coordinates (the shard is
	// named on the wire, not derived from the key, so a replica applies
	// into exactly the shard the primary logged).
	shard int
	seq   uint64

	// local marks reader-completed replies (PING, STATS, parse errors,
	// oversize lines): they bypass the server.req/server.reply accounting,
	// which counts worker-bound requests only.
	local bool

	// static, when non-nil, is a shared immutable reply line; otherwise
	// buf holds the rendered reply. buf is per-slot scratch, reused.
	static []byte
	buf    []byte

	// scan holds the per-shard segment buffers for SCAN fan-out; lazily
	// created on a slot's first SCAN and reused afterwards.
	scan *scanState

	// MGET state: keys holds the requested keys (request order); worker i
	// fills mvals/mhits for the keys its shard owns. ts and lease carry
	// the snapshot lease for MGET/SNAPSCAN — complete releases the lease
	// exactly once, whatever the outcome (reply, shed, or crash). In
	// cache mode, where leases are never drawn, ts instead carries the
	// SETEX/GETEX/EXPIRE TTL in milliseconds.
	keys  []uint64
	mvals [][]byte
	mhits []bool
	ts    uint64
	lease snaplease.Lease

	// pending counts outstanding completions (1 for single-shard ops,
	// one per shard for SCAN); the decrement that reaches zero finishes
	// the slot. cause is the CAS-once failure cause. win is the window
	// the slot was issued in; finishing the slot finishes one unit of it.
	pending atomic.Int32
	cause   atomic.Uint32
	win     *window
}

// scanState carries SCAN fan-out results: segs[i] holds shard i's
// rendered "<key> <val>\n" rows, ns[i] the row count.
type scanState struct {
	segs [][]byte
	ns   []int
}

func (sl *slot) reset() {
	sl.local = false
	sl.static = nil
	sl.buf = sl.buf[:0]
	sl.cause.Store(causeNone)
}

func (sl *slot) ensureScan(shards int) {
	if sl.scan == nil {
		sl.scan = &scanState{segs: make([][]byte, shards), ns: make([]int, shards)}
		return
	}
	// Recycled slot: a shard that contributes nothing this time (replica,
	// crash, shed) must not leak the previous request's rows into the
	// union, so both halves of the accounting are reset up front.
	for i := range sl.scan.segs {
		sl.scan.segs[i] = sl.scan.segs[i][:0]
		sl.scan.ns[i] = 0
	}
}

// ensureMGet sizes the multi-key result arrays and clears the hit flags
// (workers only write the indexes their shard owns). Each mvals element
// keeps its byte capacity across requests — per-index scratch.
func (sl *slot) ensureMGet(n int) {
	if cap(sl.mvals) < n {
		old := sl.mvals
		sl.mvals = make([][]byte, n)
		copy(sl.mvals, old)
		sl.mhits = make([]bool, n)
	}
	sl.mvals = sl.mvals[:n]
	sl.mhits = sl.mhits[:n]
	for i := range sl.mhits {
		sl.mhits[i] = false
		sl.mvals[i] = sl.mvals[i][:0]
	}
}

// fail records a completion cause; the first one wins.
func (sl *slot) fail(cause uint32) {
	sl.cause.CompareAndSwap(causeNone, cause)
}

// complete retires one pending unit; the last unit finishes the slot:
// accounting, busy rendering, SCAN assembly, and one unit of the slot's
// window (the window's last unit wakes the connection writer). procID
// shards the obs counters (workers pass their pool id, the connection
// goroutines 0).
func (sl *slot) complete(procID int) {
	if sl.pending.Add(-1) != 0 {
		return
	}
	// The snapshot lease ends with the slot, success or shed: the last
	// completion is the single point every outcome (worker finish, queue
	// shed, crash adoption) funnels through. Idempotent and nil-safe.
	sl.lease.Release(procID)
	switch sl.cause.Load() {
	case causeNone:
		if !sl.local {
			obsReq.Inc(procID)
			obsReply.Inc(procID)
		}
		if !sl.local && (sl.op == opScan || sl.op == opSnapScan) {
			sl.buf = sl.scan.assemble(sl.buf[:0], sl.limit)
			sl.static = nil
		}
		if !sl.local && sl.op == opMGet {
			sl.buf = sl.assembleMGet(sl.buf[:0])
			sl.static = nil
		}
	case causeQueue:
		// Shed before any worker executed it: counts as a queue shed,
		// not a reply, preserving sends == server.reply + busy.queue.
		obsBusyQueue.Inc(procID)
		sl.static = lineBusy
	case causeLease:
		// Shed at the lease pool, also before any worker ran.
		obsBusyLease.Inc(procID)
		sl.static = lineBusy
	case causeArena:
		obsReq.Inc(procID)
		obsReply.Inc(procID)
		obsBusyArena.Inc(procID)
		sl.static = lineBusy
	case causeRepl:
		obsReq.Inc(procID)
		obsReply.Inc(procID)
		obsBusyRepl.Inc(procID)
		sl.static = lineBusy
	case causeCrash:
		obsReply.Inc(procID)
		obsBusyCrash.Inc(procID)
		sl.static = lineBusy
	}
	sl.win.finish()
}

// payload returns the rendered reply. Only the connection writer calls
// it, after the slot's window is done.
func (sl *slot) payload() []byte {
	if sl.static != nil {
		return sl.static
	}
	return sl.buf
}

// rowSpan returns the byte length of the row starting at off in seg: a
// "<key> <len>\n" header followed by len body bytes and one LF. Value
// bytes are binary, so rows cannot be delimited by counting newlines —
// the header's length field is the frame. Workers render the segments
// themselves, but the walk still bounds every step so a malformed
// segment truncates instead of panicking.
func rowSpan(seg []byte, off int) int {
	i := off
	for i < len(seg) && seg[i] != '\n' {
		i++
	}
	if i >= len(seg) {
		return len(seg) - off
	}
	sp := off
	for j := off; j < i; j++ {
		if seg[j] == ' ' {
			sp = j + 1
		}
	}
	n, ok := parseUintBytes(seg[sp:i])
	span := (i - off) + 1 + int(n) + 1
	if !ok || off+span > len(seg) {
		return len(seg) - off
	}
	return span
}

// assemble renders the SCAN reply: "*<n>\n" followed by n rows taken
// from the shard segments in shard order, capped at limit at merge time
// (each shard scanned up to limit rows on its own, so the union can
// carry up to shards×limit). Rows are copied by walking row frames with
// rowSpan — never "the whole segment" on a fast path — so a segment
// that somehow disagrees with its row count can shift rows but never
// overrun the advertised header.
func (s *scanState) assemble(buf []byte, limit int) []byte {
	total := 0
	for _, n := range s.ns {
		total += n
	}
	if limit > 0 && total > limit {
		total = limit
	}
	buf = append(buf, '*')
	buf = strconv.AppendInt(buf, int64(total), 10)
	buf = append(buf, '\n')
	need := total
	for i, seg := range s.segs {
		if need <= 0 {
			break
		}
		take := s.ns[i]
		if take > need {
			take = need
		}
		rows, end := 0, 0
		for end < len(seg) && rows < take {
			end += rowSpan(seg, end)
			rows++
		}
		buf = append(buf, seg[:end]...)
		need -= rows
	}
	return buf
}

// assembleMGet renders the MGET reply: "*<n>\n" then one row per
// requested key in request order — "<key> <len>\n<bytes>\n" for a hit,
// "<key> -\n" for a miss.
func (sl *slot) assembleMGet(buf []byte) []byte {
	buf = append(buf, '*')
	buf = strconv.AppendInt(buf, int64(len(sl.keys)), 10)
	buf = append(buf, '\n')
	for i, k := range sl.keys {
		if sl.mhits[i] {
			buf = appendRow(buf, k, sl.mvals[i])
		} else {
			buf = strconv.AppendUint(buf, k, 10)
			buf = append(buf, " -\n"...)
		}
	}
	return buf
}

// Shared immutable reply lines.
var (
	lineBusy    = []byte("-BUSY\n")
	linePong    = []byte("+PONG\n")
	lineNil     = []byte("+NIL\n")
	lineNew     = []byte("+NEW\n")
	lineDel1    = []byte("+DEL 1\n")
	lineDel0    = []byte("+DEL 0\n")
	lineExp1    = []byte("+EXP 1\n")
	lineExp0    = []byte("+EXP 0\n")
	lineTooLong = []byte("-ERR line too long\n")
)

// appendErr renders "-ERR <msg>\n" into buf (error path; may allocate
// for the formatted message).
func appendErr(buf []byte, format string, args ...any) []byte {
	buf = append(buf, "-ERR "...)
	buf = fmt.Appendf(buf, format, args...)
	return append(buf, '\n')
}

// appendValBytes renders a value-carrying reply, "<prefix> <len>\n" then
// the raw bytes and one LF, without allocating once buf is warm.
func appendValBytes(buf []byte, prefix string, v []byte) []byte {
	buf = append(buf, prefix...)
	buf = append(buf, ' ')
	buf = strconv.AppendInt(buf, int64(len(v)), 10)
	buf = append(buf, '\n')
	buf = append(buf, v...)
	return append(buf, '\n')
}

// appendRow renders one scan/MGET row frame: "<key> <len>\n<bytes>\n".
func appendRow(seg []byte, k uint64, v []byte) []byte {
	seg = strconv.AppendUint(seg, k, 10)
	seg = append(seg, ' ')
	seg = strconv.AppendInt(seg, int64(len(v)), 10)
	seg = append(seg, '\n')
	seg = append(seg, v...)
	return append(seg, '\n')
}

// appendShardSeq renders "<prefix> <shard> <seq>\n" into buf without
// allocating (the +RACK / +PROMOTED replies).
func appendShardSeq(buf []byte, prefix string, shard int, seq uint64) []byte {
	buf = append(buf, prefix...)
	buf = append(buf, ' ')
	buf = strconv.AppendInt(buf, int64(shard), 10)
	buf = append(buf, ' ')
	buf = strconv.AppendUint(buf, seq, 10)
	return append(buf, '\n')
}

// appendMoved renders "-MOVED <addr>\n" into buf.
func appendMoved(buf []byte, addr string) []byte {
	buf = append(buf, "-MOVED "...)
	buf = append(buf, addr...)
	return append(buf, '\n')
}

// Verb classes produced by verbOf.
const (
	vUnknown = iota
	vPing
	vStats
	vGet
	vPut
	vDel
	vScan
	vRPut
	vRDel
	vPromote
	vMGet
	vSnapScan
	vSetEx
	vGetEx
	vExpire
	vCacheStats
)

// verbOf classifies an ASCII verb case-insensitively without allocating.
func verbOf(b []byte) int {
	switch len(b) {
	case 3:
		switch b[0] &^ 0x20 {
		case 'G':
			if b[1]&^0x20 == 'E' && b[2]&^0x20 == 'T' {
				return vGet
			}
		case 'P':
			if b[1]&^0x20 == 'U' && b[2]&^0x20 == 'T' {
				return vPut
			}
		case 'D':
			if b[1]&^0x20 == 'E' && b[2]&^0x20 == 'L' {
				return vDel
			}
		}
	case 4:
		switch b[0] &^ 0x20 {
		case 'P':
			if b[1]&^0x20 == 'I' && b[2]&^0x20 == 'N' && b[3]&^0x20 == 'G' {
				return vPing
			}
		case 'S':
			if b[1]&^0x20 == 'C' && b[2]&^0x20 == 'A' && b[3]&^0x20 == 'N' {
				return vScan
			}
		case 'R':
			if b[2]&^0x20 == 'U' && b[3]&^0x20 == 'T' && b[1]&^0x20 == 'P' {
				return vRPut
			}
			if b[1]&^0x20 == 'D' && b[2]&^0x20 == 'E' && b[3]&^0x20 == 'L' {
				return vRDel
			}
		case 'M':
			if b[1]&^0x20 == 'G' && b[2]&^0x20 == 'E' && b[3]&^0x20 == 'T' {
				return vMGet
			}
		}
	case 5:
		if b[0]&^0x20 == 'S' && b[1]&^0x20 == 'T' && b[2]&^0x20 == 'A' &&
			b[3]&^0x20 == 'T' && b[4]&^0x20 == 'S' {
			return vStats
		}
		if b[2]&^0x20 == 'T' && b[3]&^0x20 == 'E' && b[4]&^0x20 == 'X' &&
			b[1]&^0x20 == 'E' {
			switch b[0] &^ 0x20 {
			case 'S':
				return vSetEx
			case 'G':
				return vGetEx
			}
		}
	case 6:
		if b[0]&^0x20 == 'E' && b[1]&^0x20 == 'X' && b[2]&^0x20 == 'P' &&
			b[3]&^0x20 == 'I' && b[4]&^0x20 == 'R' && b[5]&^0x20 == 'E' {
			return vExpire
		}
	case 7:
		if b[0]&^0x20 == 'P' && b[1]&^0x20 == 'R' && b[2]&^0x20 == 'O' &&
			b[3]&^0x20 == 'M' && b[4]&^0x20 == 'O' && b[5]&^0x20 == 'T' &&
			b[6]&^0x20 == 'E' {
			return vPromote
		}
	case 8:
		if b[0]&^0x20 == 'S' && b[1]&^0x20 == 'N' && b[2]&^0x20 == 'A' &&
			b[3]&^0x20 == 'P' && b[4]&^0x20 == 'S' && b[5]&^0x20 == 'C' &&
			b[6]&^0x20 == 'A' && b[7]&^0x20 == 'N' {
			return vSnapScan
		}
	case 10:
		const want = "CACHESTATS"
		for i := 0; i < 10; i++ {
			if b[i]&^0x20 != want[i] {
				return vUnknown
			}
		}
		return vCacheStats
	}
	return vUnknown
}

// parseUintBytes is an allocation-free strconv.ParseUint(s, 10, 64) over
// raw line bytes.
func parseUintBytes(b []byte) (uint64, bool) {
	if len(b) == 0 || len(b) > 20 {
		return 0, false
	}
	var v uint64
	for _, c := range b {
		if c < '0' || c > '9' {
			return 0, false
		}
		nv := v*10 + uint64(c-'0')
		if nv < v {
			return 0, false
		}
		v = nv
	}
	return v, true
}

// parseIntBytes parses a signed decimal (SCAN's limit is signed: a
// non-positive limit selects the server's ScanLimit).
func parseIntBytes(b []byte) (int64, bool) {
	neg := false
	if len(b) > 0 && (b[0] == '-' || b[0] == '+') {
		neg = b[0] == '-'
		b = b[1:]
	}
	v, ok := parseUintBytes(b)
	if !ok || v > 1<<62 {
		return 0, false
	}
	if neg {
		return -int64(v), true
	}
	return int64(v), true
}

// maxMGetKeys bounds the keys one MGET may request: 8 keeps the reply
// and per-slot state small while covering the multi-key read patterns
// the analytic workloads use.
const maxMGetKeys = 8

// maxFields bounds the per-line field split: the widest verb is MGET
// with up to maxMGetKeys keys, so anything beyond nine fields is
// malformed regardless.
const maxFields = 1 + maxMGetKeys

// splitFields splits line on spaces/tabs into out, returning the field
// count; maxFields+1 means "too many" (the tail is dropped, and every
// per-verb arity check then fails as it should). CRs are treated as
// whitespace so CRLF framing needs no special casing.
func splitFields(line []byte, out *[maxFields][]byte) int {
	n, i := 0, 0
	for i < len(line) {
		for i < len(line) && (line[i] == ' ' || line[i] == '\t' || line[i] == '\r') {
			i++
		}
		if i >= len(line) {
			break
		}
		j := i
		for j < len(line) && line[j] != ' ' && line[j] != '\t' && line[j] != '\r' {
			j++
		}
		if n == maxFields {
			return maxFields + 1
		}
		out[n] = line[i:j]
		n++
		i = j
	}
	return n
}
