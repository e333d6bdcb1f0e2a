package server

import (
	"bufio"
	"net"
	"strconv"
	"sync"
	"time"

	"cdrc/collections"
	"cdrc/internal/chaos"
	"cdrc/internal/obs"
)

// Replication (DESIGN.md §9): in cluster mode every shard has one
// primary node and one replica node, fixed by the static topology
// (PrimaryNode/ReplicaNode). A PUT/DEL executed on a primary shard is
// appended to that shard's replication log *in the same critical
// section as the map apply*, and the client ack is gated on that
// append: the log is the durable record (the in-process analogue of a
// write-ahead log on disk), so "acked ⇒ in the log" holds at every
// instant, and "acked ⇒ replicated-or-replayable" follows because the
// log is only trimmed at replica acks and is replayed - shipped to the
// replica - even on the node-kill path before the node's storage is
// torn down.
//
// Shipping is asynchronous: one shipper goroutine per primary shard
// streams RPUT/RDEL lines over the ordinary wire protocol to the
// replica and reads +RACK replies. The replica applies strictly in seq
// order under a per-shard mutex - duplicates (seq <= applied) ack
// idempotently without re-applying, gaps (seq > applied+1, possible
// when a replica-side handle crash BUSYs an apply out from under a
// pipelined window) reply -BUSY and make the shipper rewind to the last
// acked seq. Entries are retained until acked, so a rewind or a
// reconnect can always re-ship; the log capacity therefore bounds the
// *unacked* window, and a full log sheds the client write with -BUSY
// (server.busy.repl) BEFORE applying, so primary and replica never
// diverge on an acked write.
//
// Failover is client-triggered: when the primary dies, the client
// re-routes to the shard's replica and sends PROMOTE. The replica
// promotes only after its copy of the log is drained - the inbound
// replication stream has ended (the shipper's connection closed, which
// on the kill path happens only after every durable entry was acked)
// and every received entry is applied - then flips the shard's role to
// primary. A promoted shard has no replica of its own (the topology is
// one primary + one replica per shard), so its subsequent writes ack
// without logging, exactly like single-node mode.
//
// The converse death - a REPLICA dying under a live primary - must not
// stall the shard: once the shipper's redials have failed for longer
// than ReplPeerPatience (or the peer refuses the stream with -ERR, the
// split-brain guard), the peer is presumed dead under the fail-stop
// model and the log is abandoned - the unacked backlog is counted in
// server.repl.lost, and the shard goes replicaless, acking without
// logging. Without this, the unacked window fills and every write to
// the shard sheds -BUSY forever. Abandonment is deliberate, one-way,
// and visible (server.repl.abandon); a restarted replica would be a
// new cluster.

// Observability (cluster additions). server.repl.enq counts log
// appends on primaries; server.repl.ship counts entries written to a
// replica (re-ships after a rewind or reconnect count again);
// server.repl.ack counts entries acknowledged and trimmed;
// server.repl.apply counts fresh applies on replicas, server.repl.dup
// idempotent duplicate acks, server.repl.gap out-of-order rejections.
// At cluster quiescence after drains: repl.enq == repl.ack ==
// repl.apply (process-wide in loopback clusters, where every node
// shares the obs registry). server.repl.lost counts entries abandoned
// at a drain deadline (replica unreachable) - any loss is deliberate
// and visible. server.repl.abandon counts logs abandoned to a dead
// replica (the shard continues replicaless). server.promote counts
// promotions; server.busy.repl is the causeRepl shed partition;
// server.disconn.idle counts connections closed by the server-side
// idle deadline.
var (
	obsReplEnq     = obs.NewCounter("server.repl.enq")
	obsReplShip    = obs.NewCounter("server.repl.ship")
	obsReplAck     = obs.NewCounter("server.repl.ack")
	obsReplApply   = obs.NewCounter("server.repl.apply")
	obsReplDup     = obs.NewCounter("server.repl.dup")
	obsReplGap     = obs.NewCounter("server.repl.gap")
	obsReplLost    = obs.NewCounter("server.repl.lost")
	obsReplAbandon = obs.NewCounter("server.repl.abandon")
	obsPromote     = obs.NewCounter("server.promote")
	obsBusyRepl    = obs.NewCounter("server.busy.repl")
	obsDisconnIdle = obs.NewCounter("server.disconn.idle")
)

// Shard roles. Single-node servers run every shard as primary with no
// log; cluster nodes host a primary set, a replica set, and (with more
// than two nodes) shards they do not serve at all.
const (
	roleNone uint32 = iota
	rolePrimary
	roleReplica
)

// replEntry is one logged write. A DEL logs a nil val; misses are logged
// too, so primary and replica apply identical op streams. The entry owns
// its value copy — the slot's scratch is recycled long before the
// shipper renders the entry, and the log outlives any request. The
// per-append allocation is deliberate: the zero-allocation claim covers
// the single-node hot path, and the log is a stand-in for the disk
// write a real replicated store would pay here anyway.
type replEntry struct {
	seq uint64
	op  byte // 'P' or 'D'
	key uint64
	val []byte
}

// replLog is a primary shard's replication log: the unacked suffix of
// the write stream, appended under mu in the same critical section as
// the map apply (which serializes the shard's writers and fixes one
// total order shared by the map and the log).
type replLog struct {
	shard  int
	target string // replica node address

	mu      sync.Mutex
	cond    *sync.Cond // signalled on append, drain, and ack-trim
	entries []replEntry
	lastSeq uint64 // seq of the newest appended entry
	acked   uint64 // every seq <= acked is applied on the replica

	draining  bool      // shutdown: ship the backlog, then exit
	deadline  time.Time // drain deadline; zero until draining
	abandoned bool      // replica presumed dead: shard runs replicaless
}

func newReplLog(shard int, target string) *replLog {
	rl := &replLog{shard: shard, target: target}
	rl.cond = sync.NewCond(&rl.mu)
	return rl
}

// full reports whether the unacked window is at capacity; callers hold
// mu. A full log must shed the write before applying it.
func (rl *replLog) full(capacity int) bool { return len(rl.entries) >= capacity }

// appendLocked assigns the next seq and appends, copying val into
// entry-owned storage; callers hold mu and have already applied the
// write to the shard map.
func (rl *replLog) appendLocked(op byte, key uint64, val []byte, procID int) {
	rl.lastSeq++
	e := replEntry{seq: rl.lastSeq, op: op, key: key}
	if op == 'P' {
		e.val = append(e.val, val...)
	}
	rl.entries = append(rl.entries, e)
	obsReplEnq.Inc(procID)
	rl.cond.Signal()
}

// lag returns the unacked backlog size (the replication-lag gauge).
func (rl *replLog) lag() int64 {
	rl.mu.Lock()
	defer rl.mu.Unlock()
	return int64(len(rl.entries))
}

// beginDrain flips the log into drain mode: the shipper keeps shipping
// until everything is acked or the deadline passes, then exits.
func (rl *replLog) beginDrain(deadline time.Time) {
	rl.mu.Lock()
	rl.draining = true
	rl.deadline = deadline
	rl.cond.Broadcast()
	rl.mu.Unlock()
}

// abandonLocked gives up on the replica for good: the unacked backlog
// is counted lost and future writes skip the log entirely (checked in
// execLoggedWrite under this same mutex). Callers hold mu.
func (rl *replLog) abandonLocked() {
	if lost := len(rl.entries); lost > 0 {
		obsReplLost.Add(0, uint64(lost))
	}
	rl.entries = rl.entries[:0]
	rl.abandoned = true
	obsReplAbandon.Inc(0)
}

// shipBatch bounds how many entries one shipper round trip pipelines.
const shipBatch = 64

// runShipper streams one primary shard's log to its replica until the
// log is drained: dial (with retry), ship a pipelined batch of unacked
// entries, read one reply per entry, trim on +RACK, rewind on -BUSY or
// a broken connection. Exits when draining and the log is empty, or
// when the drain deadline passes (remaining entries are counted lost).
func (s *Server) runShipper(rl *replLog) {
	defer s.shipperWg.Done()
	var conn net.Conn
	var br *bufio.Reader
	var bw *bufio.Writer
	defer func() {
		if conn != nil {
			conn.Close()
		}
	}()
	batch := make([]replEntry, 0, shipBatch)
	var wire []byte
	redialWait := time.Millisecond
	var downSince time.Time // first dial failure of the current outage
	for {
		// Wait for work (or drain). Snapshot the unacked prefix.
		rl.mu.Lock()
		for len(rl.entries) == 0 && !rl.draining {
			rl.cond.Wait()
		}
		if len(rl.entries) == 0 && rl.draining {
			rl.mu.Unlock()
			return
		}
		expired := rl.draining && !rl.deadline.IsZero() && time.Now().After(rl.deadline)
		if expired {
			lost := len(rl.entries)
			rl.entries = rl.entries[:0]
			rl.mu.Unlock()
			obsReplLost.Add(0, uint64(lost))
			return
		}
		n := len(rl.entries)
		if n > shipBatch {
			n = shipBatch
		}
		batch = append(batch[:0], rl.entries[:n]...)
		rl.mu.Unlock()

		if conn == nil {
			c, err := net.Dial("tcp", rl.target)
			if err != nil {
				// Replica unreachable: back off and retry, but only for so
				// long — past ReplPeerPatience the peer is presumed dead
				// (fail-stop) and the shard goes replicaless rather than
				// filling the log and shedding every write.
				if downSince.IsZero() {
					downSince = time.Now()
				} else if time.Since(downSince) > s.cfg.ReplPeerPatience {
					rl.mu.Lock()
					rl.abandonLocked()
					rl.mu.Unlock()
					return
				}
				time.Sleep(redialWait)
				if redialWait < 50*time.Millisecond {
					redialWait *= 2
				}
				continue
			}
			downSince = time.Time{}
			redialWait = time.Millisecond
			conn = c
			br = bufio.NewReader(conn)
			bw = bufio.NewWriterSize(conn, 32<<10)
		}

		// Ship the batch in one flush, then read exactly one reply per
		// entry. Replies arrive in request order, so reply i belongs to
		// batch[i].
		wire = wire[:0]
		for _, e := range batch {
			wire = appendReplLine(wire, rl.shard, e)
		}
		if _, err := bw.Write(wire); err != nil {
			conn.Close()
			conn = nil
			continue
		}
		if err := bw.Flush(); err != nil {
			conn.Close()
			conn = nil
			continue
		}
		obsReplShip.Add(0, uint64(len(batch)))
		acked := uint64(0)
		broken, fatal := false, false
		for i := range batch {
			line, err := br.ReadSlice('\n')
			if err != nil {
				broken = true
				break
			}
			line = trimEOL(line)
			if len(line) > 0 && line[0] == '+' {
				acked = batch[i].seq
				continue
			}
			if len(line) > 1 && line[0] == '-' && line[1] != 'B' {
				// -ERR / -MOVED: the peer refuses the stream outright (it
				// promoted, or the frame is rejected) — rewinding would spin
				// forever. Abandon the log, visibly.
				fatal = true
				break
			}
			// -BUSY (gap, shed, or crash on the replica): everything from
			// this entry on will be re-shipped; keep reading the window's
			// remaining replies to stay in sync, then rewind.
			for j := i + 1; j < len(batch); j++ {
				if _, err := br.ReadSlice('\n'); err != nil {
					broken = true
					break
				}
			}
			break
		}
		if broken || fatal {
			conn.Close()
			conn = nil
		}
		if fatal {
			rl.mu.Lock()
			rl.abandonLocked()
			rl.mu.Unlock()
			return
		}
		if acked > 0 {
			rl.mu.Lock()
			if acked > rl.acked {
				trim := int(acked - rl.acked)
				if trim > len(rl.entries) {
					trim = len(rl.entries)
				}
				obsReplAck.Add(0, uint64(trim))
				rl.entries = rl.entries[trim:]
				rl.acked = acked
			}
			rl.mu.Unlock()
		} else if !broken {
			// Nothing acked this round (leading -BUSY): yield briefly so a
			// replica-side gap can close before the re-ship.
			time.Sleep(200 * time.Microsecond)
		}
	}
}

// appendReplLine renders one RPUT/RDEL request frame. RPUT carries a
// length-prefixed body like PUT: "RPUT <shard> <seq> <key> <len>\n<bytes>\n".
func appendReplLine(buf []byte, shard int, e replEntry) []byte {
	if e.op == 'P' {
		buf = append(buf, "RPUT "...)
	} else {
		buf = append(buf, "RDEL "...)
	}
	buf = strconv.AppendInt(buf, int64(shard), 10)
	buf = append(buf, ' ')
	buf = strconv.AppendUint(buf, e.seq, 10)
	buf = append(buf, ' ')
	buf = strconv.AppendUint(buf, e.key, 10)
	if e.op == 'P' {
		buf = append(buf, ' ')
		buf = strconv.AppendInt(buf, int64(len(e.val)), 10)
		buf = append(buf, '\n')
		buf = append(buf, e.val...)
	}
	return append(buf, '\n')
}

func trimEOL(line []byte) []byte {
	if n := len(line); n > 0 && line[n-1] == '\n' {
		line = line[:n-1]
	}
	if n := len(line); n > 0 && line[n-1] == '\r' {
		line = line[:n-1]
	}
	return line
}

// execLoggedWrite runs a primary-shard PUT/DEL under the shard's
// replication-log mutex: shed with -BUSY if the unacked window is full
// (checked BEFORE applying — an unlogged apply could never reach the
// replica), otherwise apply to the map and append to the log in one
// critical section, so the log order and the shard's apply order are
// the same total order. The rendered reply — the ack — is gated on the
// append, never on the ship: that is the "acked ⇒
// replicated-or-replayable" contract. Misses (DEL of an absent key) are
// logged too, keeping primary and replica step-for-step identical.
// An abandoned log (replica presumed dead) skips both the capacity
// check and the append: the shard continues replicaless, acking on
// apply alone, like a promoted shard.
func (s *Server) execLoggedWrite(h *collections.MapHandle, rl *replLog, sl *slot, procID int) {
	rl.mu.Lock()
	defer rl.mu.Unlock() // deferred: a panic must not strand the shipper
	logIt := !rl.abandoned
	if logIt && rl.full(s.cfg.ReplLogCap) {
		sl.fail(causeRepl)
		return
	}
	if sl.op == opPut {
		old, existed, err := h.Put(sl.key, sl.val, sl.vtmp[:0])
		sl.vtmp = old
		if err != nil {
			sl.fail(causeArena)
			return
		}
		if logIt {
			rl.appendLocked('P', sl.key, sl.val, procID)
		}
		if existed {
			sl.valReply("+OLD", old)
		} else {
			sl.static = lineNew
		}
		return
	}
	hit, err := h.Delete(sl.key)
	if err != nil {
		// Tombstone allocation failed: the key is still bound and nothing
		// was applied, so shed without logging.
		sl.fail(causeArena)
		return
	}
	if logIt {
		rl.appendLocked('D', sl.key, nil, procID)
	}
	if hit {
		sl.static = lineDel1
	} else {
		sl.static = lineDel0
	}
}

// replIn is a replica shard's inbound-stream state. applied advances
// only contiguously (the idempotence/gap discipline above); received is
// the highest seq dispatched, and src is the connection currently
// streaming this shard - promotion waits for src to close and applied
// to catch up with received, which together mean the primary's durable
// log has been fully replayed here.
type replIn struct {
	mu       sync.Mutex
	applied  uint64
	received uint64
	src      net.Conn
}

// noteReceived records a dispatched RPUT/RDEL and its source connection.
func (ri *replIn) noteReceived(seq uint64, src net.Conn) {
	ri.mu.Lock()
	if seq > ri.received {
		ri.received = seq
	}
	ri.src = src
	ri.mu.Unlock()
}

// dropSrc clears the stream source when its connection closes.
func (ri *replIn) dropSrc(c net.Conn) {
	ri.mu.Lock()
	if ri.src == c {
		ri.src = nil
	}
	ri.mu.Unlock()
}

// execReplApply applies one RPUT/RDEL on a replica shard: in-order
// applies advance the cursor, duplicates ack without re-applying, gaps
// shed with -BUSY for the shipper to rewind. Runs on a borrowed handle of
// the shard; the mutex both orders concurrent stream connections of one
// shard and publishes applied/received to the promotion waiter.
func (s *Server) execReplApply(h *collections.MapHandle, sl *slot, procID int) {
	ri := s.replIns[sl.shard]
	ri.mu.Lock()
	defer ri.mu.Unlock() // deferred: a panic must not strand the mutex
	switch {
	case sl.seq <= ri.applied:
		obsReplDup.Inc(procID)
	case sl.seq == ri.applied+1:
		if sl.op == opRPut {
			var err error
			if sl.vtmp, _, err = h.Put(sl.key, sl.val, sl.vtmp[:0]); err != nil {
				sl.fail(causeArena)
				return
			}
		} else {
			if _, err := h.Delete(sl.key); err != nil {
				// Not applied: leave the cursor so the shipper retries.
				sl.fail(causeArena)
				return
			}
		}
		ri.applied = sl.seq
		obsReplApply.Inc(procID)
	default:
		obsReplGap.Inc(procID)
		sl.fail(causeRepl)
		return
	}
	sl.buf = appendShardSeq(sl.buf[:0], "+RACK", sl.shard, sl.seq)
}

// promoteWait blocks until the shard's replication stream is drained
// (source connection gone AND every received entry applied), the
// promote timeout passes, or the server starts shutting down. It
// returns the last applied seq and whether the drain completed cleanly.
// Runs on a connection goroutine holding no handle: applies must keep
// flowing through the shard's handle pool while we wait.
func (s *Server) promoteWait(shard int) (applied uint64, clean bool) {
	ri := s.replIns[shard]
	deadline := time.Now().Add(s.cfg.PromoteTimeout)
	for {
		ri.mu.Lock()
		srcGone := ri.src == nil
		drained := ri.applied >= ri.received
		applied = ri.applied
		ri.mu.Unlock()
		if srcGone && drained {
			return applied, true
		}
		if time.Now().After(deadline) || s.isClosing() {
			return applied, false
		}
		time.Sleep(time.Millisecond)
	}
}

// fireKill hits this node's chaos kill point, converting a
// NodeKillSignal panic into a bool for the connection read loop. Any
// other panic (a Crash fault misconfigured onto a node-scope point, or
// a real bug) propagates.
func (s *Server) fireKill() (killed bool) {
	defer func() {
		if r := recover(); r != nil {
			if _, ok := r.(chaos.NodeKillSignal); !ok {
				panic(r)
			}
			killed = true
		}
	}()
	s.chaosKill.Fire()
	return
}
