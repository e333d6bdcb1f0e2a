// Package server is a sharded in-memory key→value store service built on
// the cdrc collections: the storage engine is collections.Map (Michael
// hash table over deferred reference counting), the front end is a
// pipelined line-oriented text protocol over stdlib net TCP (see
// proto.go), and each connection runs its own requests on shard handles
// it borrows from a fixed per-shard pool.
//
// The shape is deliberate (DESIGN.md §7): connection goroutines are
// unbounded and cheap because they never attach to a cdrc domain - they
// parse a window of requests (the run already buffered), run each
// shard's share on a handle borrowed from that shard, and hand the
// finished window to a per-connection writer. Only the W pool handles
// are attached Threads, so the pid registries are sized to the pool
// instead of the connection count and the paper's O(P²) deferred-work
// bound stays independent of client fan-in. Requests past a shard's
// admission bound, or an exhausted arena, shed with -BUSY instead of
// blocking; a handle that dies mid-request (chaos.CrashSignal) BUSYs
// that request, is abandoned for survivors to adopt, and is replaced by
// a fresh attachment (a fresh pid). The hot path allocates nothing once
// a connection's ring slots and windows are warm.
package server

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"cdrc/collections"
	"cdrc/internal/chaos"
	"cdrc/internal/obs"
	"cdrc/internal/snaplease"
	"cdrc/internal/vals"
)

// Observability. server.req counts requests run on a shard handle;
// server.reply counts handle-bound requests that completed with a reply
// (completions plus crash/arena BUSYs); the busy counters partition every
// shed by cause. At quiescence: client sends == server.reply +
// server.busy.queue + server.busy.lease, and client-observed BUSYs ==
// busy.queue + busy.arena + busy.crash + busy.lease (queue and lease
// sheds never reach a handle, so they count no req/reply).
// server.conns/server.disconn count connection accept/teardown; their
// difference is the live-connection gauge and must be 0 after Close.
// server.queue.depth samples a shard's admitted requests after each
// batch admission; server.flush.batch records how many replies each
// writer Flush coalesced. "worker" in server.worker.* names a handle.
var (
	obsReq        = obs.NewCounter("server.req")
	obsReply      = obs.NewCounter("server.reply")
	obsBusyQueue  = obs.NewCounter("server.busy.queue")
	obsBusyArena  = obs.NewCounter("server.busy.arena")
	obsBusyCrash  = obs.NewCounter("server.busy.crash")
	obsBusyLease  = obs.NewCounter("server.busy.lease")
	obsWorkerDead = obs.NewCounter("server.worker.crash")
	obsConns      = obs.NewCounter("server.conns")
	obsDisconn    = obs.NewCounter("server.disconn")
	obsQueueDepth = obs.NewHistogram("server.queue.depth")
	obsFlushBatch = obs.NewHistogram("server.flush.batch")
)

// chaosWorkerOp fires once per request run on a shard handle, before
// execution - a crash-safe point (the handle holds zero counted
// references between requests), documented in DESIGN.md's fault model.
var chaosWorkerOp = chaos.New("server.worker.op")

const (
	// maxLine bounds one request line; longer lines are consumed and
	// answered with -ERR line too long (the connection resynchronizes).
	maxLine = 1 << 16

	// maxValLen caps one value's byte length on the wire. An oversized
	// PUT/SETEX body is consumed and answered with -ERR.
	maxValLen = 1 << 20

	// scanLimit caps the rows of one SCAN or SNAPSCAN, and is the limit
	// a non-positive request selects.
	scanLimit = 4096

	// drainGrace bounds how long a graceful Close waits for connection
	// writers to flush in-flight pipelined replies before hard-closing
	// the sockets.
	drainGrace = time.Second
)

// A stored value must fit the value plane: this fails to compile if
// maxValLen exceeds vals.MaxLen.
const _ = uint(vals.MaxLen - maxValLen)

// Config parameterizes New. The zero value is usable: it listens on an
// ephemeral loopback port with small defaults.
type Config struct {
	// Addr is the TCP listen address (default "127.0.0.1:0").
	Addr string

	// Shards is the number of independent collections.Map shards; rounded
	// up to a power of two (default 4). Each shard has its own admission
	// bound and its own slice of the handle pool.
	Shards int

	// Workers is the handle pool size - the number of attached cdrc
	// Threads, that is pids, across all shards (default 8). Handle i
	// belongs to shard i mod Shards, so Workers is raised to Shards if
	// below it (every shard needs at least one handle). It bounds how many
	// connections run on one shard at once, not how many may connect.
	Workers int

	// MaxProcs bounds each shard's pid registry. It must leave headroom
	// above the shard's handles for crash replacements, because an
	// abandoned id stays out of circulation until a survivor adopts it
	// (default Workers+16).
	MaxProcs int

	// ExpectedKeys sizes the table across all shards (default 1<<16).
	ExpectedKeys int

	// ArenaCapacity, if non-zero, caps each shard's arena at that many
	// slots; beyond it PUT replies -BUSY (ErrExhausted backpressure).
	ArenaCapacity uint64

	// QueueDepth bounds each shard's admitted requests - those waiting
	// for or running on one of its handles (default 4 * the shard's
	// handle count, with a floor of one MaxPipeline window so a single
	// pipelining client does not trip backpressure). Requests are run in
	// per-window batches, but a batch is admitted only as far as it fits:
	// the requests beyond the bound shed with -BUSY, each at its own
	// position, so the wait for a handle stays bounded.
	QueueDepth int

	// MaxPipeline is the per-connection pipeline depth: how many
	// requests may be in flight (parsed but not yet replied) on one
	// connection (default 64). The pipeline is a fixed ring of reply
	// slots, so it also bounds per-connection memory.
	MaxPipeline int

	// SnapLeases sizes the snapshot-lease pool shared by MGET and
	// SNAPSCAN (default 64): how many leased point-in-time reads may be
	// in flight at once across all connections. A full pool sheds with
	// -BUSY (server.busy.lease). Smaller pools bound how much version
	// history concurrent writers must retain.
	SnapLeases int

	// DebugChecks arms arena use-after-free panics on every shard. Set by
	// tests and soak harnesses.
	DebugChecks bool

	// CacheMode switches the storage engine from versioned maps to
	// collections.Cache shards (DESIGN.md §11): SETEX/GETEX/EXPIRE/
	// CACHESTATS become available, TTLs are enforced, and an exhausted
	// arena makes PUT/SETEX evict synchronously instead of replying
	// -BUSY. The versioned verbs MGET and SNAPSCAN answer -ERR, and
	// cache mode is incompatible with cluster mode (Peers).
	CacheMode bool

	// CacheSweepInterval is each cache shard's background expiry sweeper
	// period (cache mode only; default 5ms, negative disables).
	CacheSweepInterval time.Duration

	// Peers, when non-empty, switches the server into cluster mode
	// (DESIGN.md §9): Peers lists every node's client-visible address in
	// node-id order and NodeID is this node's index into it. Shard s is
	// primary on node PrimaryNode(s, len(Peers)) and (with two or more
	// nodes) replicated on ReplicaNode(s, len(Peers)); this node serves
	// its primary shards, applies the inbound replication stream for its
	// replica shards, and answers -MOVED for the rest.
	Peers  []string
	NodeID int

	// Listener, when non-nil, is adopted instead of listening on Addr: it
	// lets in-process clusters pre-bind every node on ":0" and hand each
	// node the complete peer address list before any node starts.
	Listener net.Listener

	// IdleTimeout, when non-zero, closes a connection whose next request
	// does not arrive within it, releasing its completion ring (counted in
	// server.disconn.idle). Zero — the default, and what tests use —
	// never arms a read deadline.
	IdleTimeout time.Duration

	// ReplLogCap bounds each primary shard's unacked replication window;
	// a full log sheds writes with -BUSY before applying them (default
	// 4096 entries).
	ReplLogCap int

	// ReplDrainTimeout bounds how long shutdown — Close and Kill alike —
	// keeps shipping a primary shard's log backlog to its replica before
	// abandoning the remainder (counted in server.repl.lost; default 5s).
	ReplDrainTimeout time.Duration

	// PromoteTimeout bounds how long PROMOTE waits for the shard's
	// inbound replication stream to drain before promoting anyway
	// (default 5s).
	PromoteTimeout time.Duration

	// ReplPeerPatience bounds how long a primary shard's shipper keeps
	// redialing an unreachable replica before presuming it dead
	// (fail-stop) and abandoning replication for that shard: the unacked
	// backlog is counted in server.repl.lost and subsequent writes ack
	// without logging, so the shard stays writable instead of shedding
	// -BUSY forever once the log fills (default 2s).
	ReplPeerPatience time.Duration
}

func (c *Config) withDefaults() Config {
	cfg := *c
	if cfg.Addr == "" {
		cfg.Addr = "127.0.0.1:0"
	}
	if cfg.Shards <= 0 {
		cfg.Shards = 4
	}
	for cfg.Shards&(cfg.Shards-1) != 0 {
		cfg.Shards++
	}
	if cfg.Workers <= 0 {
		cfg.Workers = 8
	}
	if cfg.Workers < cfg.Shards {
		cfg.Workers = cfg.Shards
	}
	if cfg.MaxProcs <= 0 {
		cfg.MaxProcs = cfg.Workers + 16
	}
	if cfg.ExpectedKeys <= 0 {
		cfg.ExpectedKeys = 1 << 16
	}
	if cfg.MaxPipeline <= 0 {
		cfg.MaxPipeline = 64
	}
	if cfg.QueueDepth <= 0 {
		perShard := (cfg.Workers + cfg.Shards - 1) / cfg.Shards
		cfg.QueueDepth = 4 * perShard
		if cfg.QueueDepth < cfg.MaxPipeline {
			cfg.QueueDepth = cfg.MaxPipeline
		}
	}
	if cfg.SnapLeases <= 0 {
		cfg.SnapLeases = snaplease.DefaultLeases
	}
	if cfg.ReplLogCap <= 0 {
		cfg.ReplLogCap = 4096
	}
	if cfg.ReplDrainTimeout <= 0 {
		cfg.ReplDrainTimeout = 5 * time.Second
	}
	if cfg.PromoteTimeout <= 0 {
		cfg.PromoteTimeout = 5 * time.Second
	}
	if cfg.ReplPeerPatience <= 0 {
		cfg.ReplPeerPatience = 2 * time.Second
	}
	if cfg.CacheMode && cfg.CacheSweepInterval == 0 {
		cfg.CacheSweepInterval = 5 * time.Millisecond
	}
	return cfg
}

// Server is one running instance. Create with New, stop with Close
// (graceful drain) or Kill (fail-stop, still replays the replication
// logs — DESIGN.md §9).
type Server struct {
	cfg    Config
	shards []*collections.Map
	caches []*collections.Cache // cache mode only; shards stays nil-filled
	queues []shardQueue
	leases *snaplease.Pool // snapshot leases + version clock for all shards
	ln     net.Listener

	// Cluster state (repl.go). Single-node servers run with cluster ==
	// false, every role rolePrimary, and nil log/stream slots, so the
	// non-cluster hot path pays one nil check per write.
	cluster   bool
	role      []atomic.Uint32
	replLogs  []*replLog
	replIns   []*replIn
	shipperWg sync.WaitGroup
	chaosKill *chaos.Point // per-node kill point; nil outside cluster mode

	mu      sync.Mutex
	conns   map[net.Conn]struct{}
	closing bool
	closed  atomic.Bool

	acceptDone chan struct{}
	connWg     sync.WaitGroup

	closeOnce sync.Once
	closeErr  error
}

// New builds the shards, attaches the handle pool, binds the listener,
// and starts the acceptor (plus, in cluster mode, the
// per-primary-shard shippers).
func New(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	if len(cfg.Peers) > 0 && (cfg.NodeID < 0 || cfg.NodeID >= len(cfg.Peers)) {
		return nil, fmt.Errorf("server: node id %d outside peer list of %d", cfg.NodeID, len(cfg.Peers))
	}
	if cfg.CacheMode && len(cfg.Peers) > 0 {
		return nil, fmt.Errorf("server: cache mode is incompatible with cluster mode")
	}
	s := &Server{
		cfg:        cfg,
		shards:     make([]*collections.Map, cfg.Shards),
		caches:     make([]*collections.Cache, cfg.Shards),
		queues:     make([]shardQueue, cfg.Shards),
		role:       make([]atomic.Uint32, cfg.Shards),
		replLogs:   make([]*replLog, cfg.Shards),
		replIns:    make([]*replIn, cfg.Shards),
		cluster:    len(cfg.Peers) > 0,
		conns:      make(map[net.Conn]struct{}),
		acceptDone: make(chan struct{}),
	}
	if s.cluster {
		s.chaosKill = chaos.New(fmt.Sprintf("server.node%d.kill", cfg.NodeID))
	}
	// One lease pool (and version clock) spans every shard: an MGET or
	// SNAPSCAN resolves all shards at one timestamp.
	s.leases = snaplease.NewPool(cfg.SnapLeases)
	obs.RegisterGauge(s.gaugeName("snaplease.active"), func() (int64, bool) {
		if s.closed.Load() {
			return 0, false
		}
		return int64(s.leases.Active()), true
	})
	perShard := cfg.ExpectedKeys / cfg.Shards
	for i := range s.shards {
		if cfg.CacheMode {
			sweep := cfg.CacheSweepInterval
			if sweep < 0 {
				sweep = 0
			}
			c := collections.NewCache(collections.CacheConfig{
				Name:          s.gaugeName(fmt.Sprintf("cache%d", i)),
				ExpectedKeys:  perShard,
				MaxProcs:      cfg.MaxProcs,
				Capacity:      cfg.ArenaCapacity,
				SweepInterval: sweep,
				DebugChecks:   cfg.DebugChecks,
			})
			c.StartSweeper()
			s.caches[i] = c
		} else {
			m := collections.NewVersionedMap(perShard, cfg.MaxProcs, s.leases)
			if cfg.ArenaCapacity != 0 {
				m.SetArenaCapacity(cfg.ArenaCapacity)
			}
			if cfg.DebugChecks {
				m.EnableDebugChecks()
			}
			s.shards[i] = m
		}
		q := &s.queues[i]
		// Handle j serves shard j mod Shards: this shard gets the
		// ceil((Workers-i)/Shards) of them attached below.
		q.handles = make(chan shardExec, (cfg.Workers-i+cfg.Shards-1)/cfg.Shards)
		q.depth = int64(cfg.QueueDepth)
		obs.RegisterGauge(s.gaugeName(fmt.Sprintf("queue.%d", i)), func() (int64, bool) {
			if s.closed.Load() {
				return 0, false
			}
			return q.queued.Load(), true
		})
		// Shard roles: single-node serves everything as primary; a cluster
		// node is primary for its PrimaryNode shards (with a replication
		// log when a distinct replica exists), replica for its ReplicaNode
		// shards, and answers -MOVED for the rest.
		if !s.cluster {
			s.role[i].Store(rolePrimary)
			continue
		}
		n := len(cfg.Peers)
		switch {
		case PrimaryNode(i, n) == cfg.NodeID:
			s.role[i].Store(rolePrimary)
			if r := ReplicaNode(i, n); r != cfg.NodeID {
				s.replLogs[i] = newReplLog(i, cfg.Peers[r])
			}
		case ReplicaNode(i, n) == cfg.NodeID:
			s.role[i].Store(roleReplica)
			s.replIns[i] = &replIn{}
		default:
			s.role[i].Store(roleNone)
		}
	}
	ln := cfg.Listener
	if ln == nil {
		var err error
		ln, err = net.Listen("tcp", cfg.Addr)
		if err != nil {
			return nil, fmt.Errorf("server: listen %s: %w", cfg.Addr, err)
		}
	}
	s.ln = ln
	if s.cluster {
		obs.RegisterGauge(s.gaugeName("repl.lag"), func() (int64, bool) {
			if s.closed.Load() {
				return 0, false
			}
			var lag int64
			for _, rl := range s.replLogs {
				if rl != nil {
					lag += rl.lag()
				}
			}
			return lag, true
		})
		for _, rl := range s.replLogs {
			if rl != nil {
				s.shipperWg.Add(1)
				go s.runShipper(rl)
			}
		}
	}
	for i := 0; i < cfg.Workers; i++ {
		s.queues[i%cfg.Shards].handles <- s.attach(i % cfg.Shards)
	}
	go s.acceptLoop()
	return s, nil
}

// gaugeName scopes a gauge to this node in cluster mode: gauges are
// registered by name process-wide and re-registration replaces, so the
// nodes of an in-process loopback cluster must not collide. Counters
// stay process-global on purpose — a loopback cluster's conservation
// identities (repl.enq == repl.apply, …) then sum across nodes with no
// extra bookkeeping.
func (s *Server) gaugeName(base string) string {
	if s.cluster {
		return fmt.Sprintf("server.node%d.%s", s.cfg.NodeID, base)
	}
	return "server." + base
}

// Addr returns the bound listen address (useful with ":0").
func (s *Server) Addr() string { return s.ln.Addr().String() }

// ActiveLeases reports currently held snapshot leases; a quiescent
// server must report 0 (tests treat a stuck lease as a leak).
func (s *Server) ActiveLeases() int { return s.leases.Active() }

// Live returns the number of live nodes across all shards; a quiescent
// closed server must report 0.
func (s *Server) Live() int64 {
	var n int64
	if s.cfg.CacheMode {
		for _, c := range s.caches {
			n += c.LiveNodes()
		}
		return n
	}
	for _, m := range s.shards {
		n += m.LiveNodes()
	}
	return n
}

// KeyShard maps a key to its shard index with a splitmix-style mix so
// that the bits it consumes are independent of the per-shard bucket
// hash. Exported so cluster clients route exactly as the server does;
// shards must be the server's (power-of-two) shard count.
func KeyShard(key uint64, shards int) int {
	x := key
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	return int((x >> 48) & uint64(shards-1))
}

func (s *Server) shardOf(key uint64) int { return KeyShard(key, len(s.shards)) }

// PrimaryNode and ReplicaNode fix the static cluster topology: shard s
// is primary on PrimaryNode(s, nodes) and — when the two differ —
// replicated on ReplicaNode(s, nodes). Exported for clients and tests;
// promotion moves a shard's serving node off this map, which clients
// discover through failed connections and -MOVED.
func PrimaryNode(shard, nodes int) int { return shard % nodes }

// ReplicaNode returns the node holding shard's replica.
func ReplicaNode(shard, nodes int) int { return (shard%nodes + 1) % nodes }

// NumShards returns the configured shard count (clients route with it).
func (s *Server) NumShards() int { return len(s.shards) }

// isClosing reports whether shutdown has begun (promoteWait polls it so
// a blocked PROMOTE never stalls Close's connection drain).
func (s *Server) isClosing() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.closing
}

// --- connection front end --------------------------------------------------

func (s *Server) acceptLoop() {
	defer close(s.acceptDone)
	for id := 1; ; id++ {
		c, err := s.ln.Accept()
		if err != nil {
			return // listener closed by Close
		}
		s.mu.Lock()
		if s.closing {
			s.mu.Unlock()
			c.Close()
			continue
		}
		s.conns[c] = struct{}{}
		s.connWg.Add(1)
		s.mu.Unlock()
		obsConns.Inc(0)
		go s.serveConn(c, id)
	}
}

// errLineTooLong is readLine's sentinel for an oversized request line
// that was fully consumed (the stream is resynchronized at the newline).
var errLineTooLong = errors.New("line too long")

// readLine returns the next LF-terminated line (EOL trimmed) from br.
// An unterminated final line before EOF is returned as a line. A line
// exceeding the reader's buffer is discarded up to its newline and
// reported as errLineTooLong so the caller can reply -ERR and continue,
// instead of silently dropping the connection (the bufio.Scanner
// failure mode this replaced).
func readLine(br *bufio.Reader) ([]byte, error) {
	line, err := br.ReadSlice('\n')
	switch err {
	case nil:
		return line[:len(line)-1], nil
	case io.EOF:
		if len(line) > 0 {
			return line, nil
		}
		return nil, io.EOF
	case bufio.ErrBufferFull:
		for err == bufio.ErrBufferFull {
			_, err = br.ReadSlice('\n')
		}
		if err != nil {
			return nil, err // stream died mid-discard
		}
		return nil, errLineTooLong
	default:
		return nil, err
	}
}

// serveConn runs a connection's read half: parse request lines from raw
// bytes, claim a ring slot, and add it to the open window (connPipe).
// Flushing a window runs it here, on borrowed shard handles; connWriter
// then writes its replies in request order while the reader parses on.
// id, the accept ordinal, shards the obs counters the connection bumps.
func (s *Server) serveConn(c net.Conn, id int) {
	defer s.connWg.Done()
	defer func() {
		if s.cluster {
			// If this conn was a replication stream source, its end is what
			// promotion waits for — clear it.
			for _, ri := range s.replIns {
				if ri != nil {
					ri.dropSrc(c)
				}
			}
		}
		s.mu.Lock()
		delete(s.conns, c)
		s.mu.Unlock()
		c.Close()
		obsDisconn.Inc(0)
	}()

	n := s.cfg.MaxPipeline
	slots := make([]slot, n)
	p := &connPipe{
		s:       s,
		id:      id,
		free:    make([]*slot, n),
		batches: make([][]*slot, len(s.queues)),
		// Every window in flight holds at least one of the n slots, so
		// neither channel ever holds more than n windows.
		issued:   make(chan []*slot, n),
		returned: make(chan []*slot, n),
	}
	for i := range slots {
		p.free[i] = &slots[i]
	}
	writerDone := make(chan struct{})
	go s.connWriter(c, p.issued, p.returned, writerDone)

	br := bufio.NewReaderSize(c, maxLine)
	var fields [maxFields][]byte
	for {
		// The node-kill point fires between requests, before a slot is
		// claimed: the "node" dies holding no ring slot and no counted
		// references for an unstarted request (the §5 crash-point rule at
		// node scope). Kill runs on its own goroutine — it must wait for
		// this very connection to exit.
		if s.chaosKill != nil && s.fireKill() {
			go s.Kill()
			break
		}
		if p.open != nil && !lineBuffered(br) {
			p.flush() // readLine is about to wait on the socket
		}
		if s.cfg.IdleTimeout > 0 {
			c.SetReadDeadline(time.Now().Add(s.cfg.IdleTimeout))
		}
		line, err := readLine(br)
		if err == errLineTooLong {
			sl := p.claim()
			sl.static = lineTooLong
			p.local(sl)
			continue
		}
		if err != nil {
			if ne, ok := err.(net.Error); ok && ne.Timeout() &&
				s.cfg.IdleTimeout > 0 && !s.isClosing() {
				obsDisconnIdle.Inc(0)
			}
			break
		}
		nf := splitFields(line, &fields)
		if nf == 0 {
			continue
		}
		if !s.dispatch(c, br, p, p.claim(), fields[:min(nf, maxFields)], nf) {
			break // body read failed: the stream is dead or desynced
		}
	}
	p.flush()
	close(p.issued)
	<-writerDone
}

// lineBuffered reports whether a complete request line is already
// buffered, i.e. whether readLine can return without a socket read.
func lineBuffered(br *bufio.Reader) bool {
	b, _ := br.Peek(br.Buffered())
	return bytes.IndexByte(b, '\n') >= 0
}

// connPipe is the reader's half of a connection's pipeline: its free
// slots and spare windows, the open window with its per-shard shares,
// the issued ring the writer consumes in order, and the returned channel
// on which the writer hands each written window back with its slots. A
// window is run, written and recycled whole, so a pipelining client
// costs one handle borrow per shard and one writer wake per window.
//
// The flush rule: the reader flushes its open window before anything
// that can block - a readLine with no complete line buffered, a body
// read whose bytes are not all buffered, a slot claim with no slot free,
// PROMOTE's wait, and connection end. A client that waits for earlier
// replies before sending more therefore never waits on a window the
// reader is still holding.
type connPipe struct {
	s        *Server
	id       int
	free     []*slot
	spare    [][]*slot
	open     []*slot   // nil when no window is open
	batches  [][]*slot // the open window's share of each shard
	issued   chan []*slot
	returned chan []*slot
}

// reclaim takes back one window the writer is done with, waiting for it
// if block is set: its slots rejoin the free list and the window becomes
// a spare. It reports whether a window came back.
func (p *connPipe) reclaim(block bool) bool {
	var w []*slot
	if block {
		w = <-p.returned
	} else {
		select {
		case w = <-p.returned:
		default:
			return false
		}
	}
	p.free = append(p.free, w...)
	p.spare = append(p.spare, w[:0])
	return true
}

// claim takes a free slot. With none free, every slot is in flight: it
// takes back a written window, flushing first if it has to wait for one.
func (p *connPipe) claim() *slot {
	if len(p.free) == 0 && !p.reclaim(false) {
		p.flush()
		p.reclaim(true)
	}
	sl := p.free[len(p.free)-1]
	p.free = p.free[:len(p.free)-1]
	sl.reset()
	return sl
}

// push adds sl to the open window, opening one if none is: a spare, one
// the writer has returned, or - only while the connection warms up - a
// new one. A slot that is only pushed runs on no handle.
func (p *connPipe) push(sl *slot) {
	if p.open == nil {
		if len(p.spare) == 0 && !p.reclaim(false) {
			p.spare = append(p.spare, make([]*slot, 0, 8))
		}
		p.open = p.spare[len(p.spare)-1]
		p.spare = p.spare[:len(p.spare)-1]
	}
	p.open = append(p.open, sl)
}

// local adds a reader-completed reply to the open window.
func (p *connPipe) local(sl *slot) {
	sl.local = true
	p.push(sl)
}

// route adds a single-shard request to the open window's share for shard.
func (p *connPipe) route(sl *slot, shard int) {
	p.push(sl)
	p.batches[shard] = append(p.batches[shard], sl)
}

// fanout adds a SCAN, SNAPSCAN or MGET to every shard's share.
func (p *connPipe) fanout(sl *slot) {
	p.push(sl)
	for i := range p.batches {
		p.batches[i] = append(p.batches[i], sl)
	}
}

// flush runs the open window - each shard's share in turn, on a handle
// borrowed from that shard - then completes its slots and issues it to
// the writer. The reader holds at most one handle at a time and none
// outside execBatch, so it never waits on its socket, or on a second
// handle, while holding one.
func (p *connPipe) flush() {
	w := p.open
	if w == nil {
		return
	}
	p.open = nil
	for i, b := range p.batches {
		if len(b) > 0 {
			p.s.execBatch(i, p.id, b)
			p.batches[i] = b[:0]
		}
	}
	for _, sl := range w {
		sl.complete(p.id)
	}
	p.issued <- w
}

// shardQueue is one shard's admission bound and handle pool. queued
// counts requests admitted and not yet run; admission never lets it
// exceed depth, which is what bounds a connection's wait for a handle.
type shardQueue struct {
	handles chan shardExec
	queued  atomic.Int64
	depth   int64
}

// readBody reads a length-prefixed value body — n raw bytes plus the
// terminating LF — into dst (per-slot scratch, grown as needed). The
// bytes are copied off the connection buffer here because the op runs
// only when its window flushes, after later lines have recycled the
// parse buffer; execution then hands this one copy straight to the
// value arena (PutB's slab write).
func readBody(br *bufio.Reader, dst []byte, n int) ([]byte, error) {
	if cap(dst) < n {
		dst = make([]byte, n)
	} else {
		dst = dst[:n]
	}
	if _, err := io.ReadFull(br, dst); err != nil {
		return dst, err
	}
	c, err := br.ReadByte()
	if err != nil {
		return dst, err
	}
	if c != '\n' {
		return dst, fmt.Errorf("server: value body not LF-terminated")
	}
	return dst, nil
}

// discardBody consumes and drops an oversized body (n bytes + LF),
// keeping the stream in sync so one bad request costs one -ERR, not the
// connection.
func discardBody(br *bufio.Reader, n int) error {
	if _, err := br.Discard(n); err != nil {
		return err
	}
	c, err := br.ReadByte()
	if err != nil {
		return err
	}
	if c != '\n' {
		return fmt.Errorf("server: value body not LF-terminated")
	}
	return nil
}

// dispatch routes one parsed request into the open window: local verbs
// complete inline, single-shard ops join their shard's share, SCAN,
// SNAPSCAN, and MGET join every shard's share (the leased verbs first
// draw a snapshot lease; a dry pool sheds with -BUSY before reaching any
// shard). The window keeps slots in exact request order. The conn is threaded
// through for the replication verbs, which record it as the shard's
// stream source (promotion waits for it to close). Value-carrying verbs
// consume their body here, on the reader, whenever the length field
// parsed — even if the rest of the request is rejected — so the stream
// stays framed. Returns false when the connection must be dropped (body
// read failed mid-frame: the stream is dead or unrecoverably desynced).
func (s *Server) dispatch(c net.Conn, br *bufio.Reader, p *connPipe, sl *slot, fields [][]byte, nf int) bool {
	verb := verbOf(fields[0])
	badArity := func(want int) bool {
		if nf != want+1 {
			sl.buf = appendErr(sl.buf[:0], "%s takes %d argument(s)", fields[0], want)
			p.local(sl)
			return true
		}
		return false
	}
	// takeBody parses the length field lf and consumes the body into
	// sl.val. ok=false means dispatch must stop handling this request
	// (a reply was already sent); alive=false additionally drops the
	// connection.
	//
	// Callers must parse (or copy) every header field they need BEFORE
	// calling takeBody: fields alias br's internal buffer, and when the
	// body is not already buffered the refill slides unread bytes to the
	// front of that buffer, rewriting the memory fields points at. Any
	// rejection based on those fields must still be sent only after the
	// body is consumed, or the stream desyncs — so parse first, consume
	// the body, then reply.
	takeBody := func(lf []byte) (ok, alive bool) {
		vlen, vok := parseUintBytes(lf)
		if !vok {
			sl.buf = appendErr(sl.buf[:0], "bad length %q", lf)
			p.local(sl)
			return false, true
		}
		if uint64(br.Buffered()) <= vlen {
			p.flush() // the body and its LF are not all buffered: the read can block
		}
		if vlen > uint64(maxValLen) {
			if err := discardBody(br, int(vlen)); err != nil {
				sl.buf = appendErr(sl.buf[:0], "bad value body")
				p.local(sl)
				return false, false
			}
			sl.buf = appendErr(sl.buf[:0], "value too large (%d > %d)", vlen, maxValLen)
			p.local(sl)
			return false, true
		}
		var err error
		sl.val, err = readBody(br, sl.val, int(vlen))
		if err != nil {
			sl.buf = appendErr(sl.buf[:0], "bad value body")
			p.local(sl)
			return false, false
		}
		return true, true
	}
	switch verb {
	case vPing:
		sl.static = linePong
		p.local(sl)
	case vStats:
		sl.buf = appendStats(sl.buf[:0])
		p.local(sl)
	case vGet, vPut, vDel:
		want := 1
		if verb == vPut {
			want = 2
		}
		if badArity(want) {
			return true
		}
		key, keyOK := parseUintBytes(fields[1])
		if !keyOK {
			// Format the reply now, while fields[1] is intact; takeBody
			// may slide the read buffer out from under it.
			sl.buf = appendErr(sl.buf[:0], "bad number %q", fields[1])
		}
		if verb == vPut {
			if ok, alive := takeBody(fields[2]); !ok {
				return alive
			}
		}
		if !keyOK {
			p.local(sl)
			return true
		}
		shard := s.shardOf(key)
		if s.cluster && s.role[shard].Load() != rolePrimary {
			// Not primary here (replica, unhosted, or not yet promoted):
			// point the client at the shard's topology primary. A promoted
			// replica holds rolePrimary and serves normally.
			sl.buf = appendMoved(sl.buf[:0], s.cfg.Peers[PrimaryNode(shard, len(s.cfg.Peers))])
			p.local(sl)
			return true
		}
		sl.key, sl.shard = key, shard
		switch verb {
		case vGet:
			sl.op = opGet
		case vDel:
			sl.op = opDel
		case vPut:
			sl.op = opPut
		}
		p.route(sl, shard)
	case vRPut, vRDel:
		want := 3
		if verb == vRPut {
			want = 4
		}
		if badArity(want) {
			return true
		}
		shard64, ok1 := parseUintBytes(fields[1]) // parse before takeBody slides the buffer
		seq, ok2 := parseUintBytes(fields[2])
		key, ok3 := parseUintBytes(fields[3])
		if verb == vRPut {
			if ok, alive := takeBody(fields[4]); !ok {
				return alive
			}
			sl.op = opRPut
		} else {
			sl.op = opRDel
		}
		if !ok1 || !ok2 || !ok3 || shard64 >= uint64(len(s.shards)) {
			sl.buf = appendErr(sl.buf[:0], "bad replication frame")
			p.local(sl)
			return true
		}
		shard := int(shard64)
		ri := s.replIns[shard]
		if ri == nil || s.role[shard].Load() != roleReplica {
			// Not (or no longer) a replica for this shard: a hard error,
			// not -BUSY — the shipper must stop, not rewind (split-brain
			// guard after promotion).
			sl.buf = appendErr(sl.buf[:0], "shard %d is not a replica here", shard)
			p.local(sl)
			return true
		}
		sl.key, sl.shard, sl.seq = key, shard, seq
		ri.noteReceived(seq, c)
		p.route(sl, shard)
	case vPromote:
		if badArity(1) {
			return true
		}
		shard64, ok := parseUintBytes(fields[1])
		if !ok || shard64 >= uint64(len(s.shards)) {
			sl.buf = appendErr(sl.buf[:0], "bad shard %q", fields[1])
			p.local(sl)
			return true
		}
		shard := int(shard64)
		switch {
		case !s.cluster:
			sl.buf = appendErr(sl.buf[:0], "not a cluster node")
		case s.role[shard].Load() == rolePrimary:
			// Idempotent: already primary (initial topology or an earlier
			// PROMOTE); report the last applied seq, 0 if never a replica.
			var applied uint64
			if ri := s.replIns[shard]; ri != nil {
				ri.mu.Lock()
				applied = ri.applied
				ri.mu.Unlock()
			}
			sl.buf = appendShardSeq(sl.buf[:0], "+PROMOTED", shard, applied)
		case s.role[shard].Load() == roleReplica:
			// Blocks this connection goroutine, so the open window runs
			// first: the wait holds no handle, and the stream connection
			// applying the backlog we are waiting on needs one.
			p.flush()
			applied, _ := s.promoteWait(shard)
			s.role[shard].Store(rolePrimary)
			obsPromote.Inc(0)
			sl.buf = appendShardSeq(sl.buf[:0], "+PROMOTED", shard, applied)
		default:
			sl.buf = appendErr(sl.buf[:0], "shard %d is not hosted here", shard)
		}
		p.local(sl)
	case vSetEx, vGetEx, vExpire:
		if !s.cfg.CacheMode && verb != vSetEx {
			sl.buf = appendErr(sl.buf[:0], "%s requires cache mode", fields[0])
			p.local(sl)
			return true
		}
		want := 2
		if verb == vSetEx {
			want = 3
		}
		if badArity(want) {
			return true
		}
		key, ok1 := parseUintBytes(fields[1]) // parse before takeBody slides the buffer
		ttl, ok2 := parseUintBytes(fields[2])
		if verb == vSetEx {
			// The body must be consumed before any rejection — including
			// "requires cache mode" — or the stream desyncs.
			if ok, alive := takeBody(fields[3]); !ok {
				return alive
			}
			if !s.cfg.CacheMode {
				sl.buf = appendErr(sl.buf[:0], "SETEX requires cache mode")
				p.local(sl)
				return true
			}
		}
		if !ok1 || !ok2 {
			sl.buf = appendErr(sl.buf[:0], "bad number")
			p.local(sl)
			return true
		}
		switch verb {
		case vSetEx:
			sl.op = opSetEx
		case vGetEx:
			sl.op = opGetEx
		case vExpire:
			sl.op = opExpire
		}
		// The TTL (milliseconds) rides the slot's ts field: cache mode
		// never draws snapshot leases, so the field is otherwise idle.
		sl.key, sl.shard, sl.ts = key, s.shardOf(key), ttl
		p.route(sl, sl.shard)
	case vCacheStats:
		if !s.cfg.CacheMode {
			sl.buf = appendErr(sl.buf[:0], "CACHESTATS requires cache mode")
		} else {
			sl.buf = s.appendCacheStats(sl.buf[:0])
		}
		p.local(sl)
	case vScan:
		if badArity(1) {
			return true
		}
		lim64, ok := parseIntBytes(fields[1])
		if !ok {
			sl.buf = appendErr(sl.buf[:0], "bad number %q", fields[1])
			p.local(sl)
			return true
		}
		sl.op = opScan
		sl.limit = int(lim64)
		if sl.limit <= 0 || sl.limit > scanLimit {
			sl.limit = scanLimit
		}
		p.fanout(sl)
	case vSnapScan:
		if s.cfg.CacheMode {
			sl.buf = appendErr(sl.buf[:0], "SNAPSCAN is not available in cache mode")
			p.local(sl)
			return true
		}
		if badArity(1) {
			return true
		}
		lim64, ok := parseIntBytes(fields[1])
		if !ok {
			sl.buf = appendErr(sl.buf[:0], "bad number %q", fields[1])
			p.local(sl)
			return true
		}
		sl.op = opSnapScan
		sl.limit = int(lim64)
		if sl.limit <= 0 || sl.limit > scanLimit {
			sl.limit = scanLimit
		}
		lease, ok := s.leases.Acquire(0)
		if !ok {
			sl.fail(causeLease)
			p.push(sl)
			return true
		}
		sl.ts, sl.lease = lease.TS(), lease
		p.fanout(sl)
	case vMGet:
		if s.cfg.CacheMode {
			sl.buf = appendErr(sl.buf[:0], "MGET is not available in cache mode")
			p.local(sl)
			return true
		}
		if nf < 2 || nf-1 > maxMGetKeys {
			sl.buf = appendErr(sl.buf[:0], "MGET takes 1..%d keys", maxMGetKeys)
			p.local(sl)
			return true
		}
		sl.keys = sl.keys[:0]
		for _, f := range fields[1:nf] {
			key, ok := parseUintBytes(f)
			if !ok {
				sl.buf = appendErr(sl.buf[:0], "bad number %q", f)
				p.local(sl)
				return true
			}
			if sh := s.shardOf(key); s.cluster && s.role[sh].Load() != rolePrimary {
				// Per-node MGET atomicity only: every requested key must be
				// primary here (cross-node multi-key reads would need a
				// cross-node clock; see DESIGN.md §10).
				sl.buf = appendMoved(sl.buf[:0], s.cfg.Peers[PrimaryNode(sh, len(s.cfg.Peers))])
				p.local(sl)
				return true
			}
			sl.keys = append(sl.keys, key)
		}
		sl.op = opMGet
		sl.ensureMGet(len(sl.keys))
		lease, ok := s.leases.Acquire(0)
		if !ok {
			sl.fail(causeLease)
			p.push(sl)
			return true
		}
		sl.ts, sl.lease = lease.TS(), lease
		// Fan to every shard: each shard's share resolves only the keys
		// that shard owns, writing disjoint indexes of mvals/mhits.
		p.fanout(sl)
	default:
		sl.buf = appendErr(sl.buf[:0], "unknown command %q", fields[0])
		p.local(sl)
	}
	return true
}

// connWriter is the connection's write half: it takes finished windows
// in request order, writes every reply of each - its head, then its body
// straight from slot scratch - and returns the window, slots and all, to
// the reader. Replies coalesce across windows in one buffered writer,
// sized at 64 KiB to hold a window of kilobyte values, which is flushed
// when no further window is already issued or MaxPipeline replies have
// accumulated. A lock-step client therefore still gets one flush per
// request, while a pipelining client amortizes the syscall across the
// window. Writing on its own goroutine lets the reader keep absorbing up
// to MaxPipeline requests while a reply write is blocked on a client
// that is itself still writing. On a broken peer it keeps draining and
// returning windows without writing, so the reader never blocks on a
// dead connection.
func (s *Server) connWriter(c net.Conn, issued <-chan []*slot, returned chan<- []*slot, writerDone chan<- struct{}) {
	defer close(writerDone)
	bw := bufio.NewWriterSize(c, 64<<10)
	broken := false
	batch := 0
	flush := func() {
		if !broken {
			if obs.Enabled() {
				obsFlushBatch.Observe(uint64(batch))
			}
			if err := bw.Flush(); err != nil {
				broken = true
			}
		}
		batch = 0
	}
	for w := range issued {
		for _, sl := range w {
			if !broken {
				head, body := sl.payload()
				_, err := bw.Write(head)
				if err == nil {
					_, err = bw.Write(body)
				}
				broken = err != nil
			}
			if batch++; batch >= s.cfg.MaxPipeline {
				flush()
			}
		}
		returned <- w
		if batch > 0 && len(issued) == 0 {
			flush()
		}
	}
}

// appendStats renders the length-prefixed obs JSON report. It runs on
// the connection goroutine: obs.Snapshot touches no cdrc domain.
func appendStats(buf []byte) []byte {
	j, err := obs.Snapshot().JSON()
	if err != nil {
		return appendErr(buf, "stats: %v", err)
	}
	buf = append(buf, '$')
	buf = strconv.AppendInt(buf, int64(len(j)), 10)
	buf = append(buf, '\n')
	buf = append(buf, j...)
	return append(buf, '\n')
}

// --- shard handles ---------------------------------------------------------

// shardExec is one attachment to a shard - a map or a cache handle -
// behind the one execution loop.
type shardExec interface {
	exec(s *Server, procID, shard int, sl *slot)
	Abandon()
	Close()
}

type mapExec struct{ *collections.MapHandle }

func (x mapExec) exec(s *Server, procID, shard int, sl *slot) { s.exec(x.MapHandle, procID, shard, sl) }

type cacheExec struct{ *collections.CacheHandle }

func (x cacheExec) exec(s *Server, _, shard int, sl *slot) { s.execCache(x.CacheHandle, shard, sl) }

// attach attaches a fresh handle (a fresh pid) to shard.
func (s *Server) attach(shard int) shardExec {
	if s.cfg.CacheMode {
		return cacheExec{s.caches[shard].Attach()}
	}
	return mapExec{s.shards[shard].Attach()}
}

// execBatch runs one window's share of shard for connection procID. It
// admits the head of b that fits under the shard's depth, sheds the rest
// with causeQueue, each at its own position (a shed SCAN share makes the
// whole SCAN -BUSY), and runs the admitted requests in order on a handle
// borrowed from the shard's pool. The depth histogram samples admitted
// requests after admission, so at saturation it records the full depth
// the -BUSY threshold acted on.
func (s *Server) execBatch(shard, procID int, b []*slot) {
	q := &s.queues[shard]
	var take, after int64
	for {
		cur := q.queued.Load()
		take = max(0, min(int64(len(b)), q.depth-cur))
		after = cur + take
		if take == 0 || q.queued.CompareAndSwap(cur, after) {
			break
		}
	}
	if obs.Enabled() {
		obsQueueDepth.Observe(uint64(after))
	}
	for _, sl := range b[take:] {
		sl.fail(causeQueue)
	}
	if take == 0 {
		return
	}
	x := <-q.handles
	for rest := b[:take]; len(rest) > 0; {
		rest = s.run(&x, shard, procID, rest)
	}
	q.handles <- x
	q.queued.Add(-take)
}

// run executes b in order on *x. It returns nil, or - when a simulated
// crash kills the handle mid-request - the rest of b after the in-flight
// slot, which it fails to -BUSY. The crashed handle is abandoned:
// announcements, retired list and arena shard stay behind for the
// shard's survivors (or the teardown drain rounds) to adopt before the
// pid is reissued, and *x becomes a fresh attachment (a fresh pid).
// Only this shard's registry is involved: a crash never perturbs the
// other shards. A cache handle's Abandon additionally re-indexes its
// in-flight eviction records so no weak unit is lost or doubled.
func (s *Server) run(x *shardExec, shard, procID int, b []*slot) (rest []*slot) {
	defer func() {
		r := recover()
		if r == nil {
			return
		}
		if _, ok := r.(chaos.CrashSignal); !ok {
			panic(r) // real bug (UAF, invariant breach): fail loudly
		}
		obsWorkerDead.Inc(procID)
		(*x).Abandon()
		*x = s.attach(shard)
		rest[0].fail(causeCrash)
		rest = rest[1:]
	}()
	for rest = b; len(rest) > 0; rest = rest[1:] {
		chaosWorkerOp.Fire()
		(*x).exec(s, procID, shard, rest[0])
	}
	return nil
}

// exec runs one request (or, for SCAN, this shard's share of one)
// against a borrowed shard handle, rendering the reply into the
// slot's scratch. A SCAN share scans only the rows still needed under
// the cap: shares run in shard order, so once earlier shards filled the
// reply the later ones scan nothing. The GET/PUT/DEL path performs zero
// heap allocations once the slot's buffers are warm; in single-node
// mode the cluster checks cost one nil load per write.
func (s *Server) exec(h *collections.MapHandle, procID, shard int, sl *slot) {
	switch sl.op {
	case opGet:
		v, ok := h.Get(sl.key, sl.vtmp[:0])
		sl.vtmp = v // keep the grown capacity for the next request
		if ok {
			sl.valReply("+VAL", v)
		} else {
			sl.static = lineNil
		}
	case opPut:
		if rl := s.replLogs[shard]; rl != nil {
			s.execLoggedWrite(h, rl, sl, procID)
			return
		}
		old, existed, err := h.Put(sl.key, sl.val, sl.vtmp[:0])
		sl.vtmp = old
		switch {
		case err != nil:
			sl.fail(causeArena)
		case existed:
			sl.valReply("+OLD", old)
		default:
			sl.static = lineNew
		}
	case opDel:
		if rl := s.replLogs[shard]; rl != nil {
			s.execLoggedWrite(h, rl, sl, procID)
			return
		}
		hit, err := h.Delete(sl.key)
		switch {
		case err != nil:
			sl.fail(causeArena)
		case hit:
			sl.static = lineDel1
		default:
			sl.static = lineDel0
		}
	case opRPut, opRDel:
		s.execReplApply(h, sl, procID)
	case opScan, opSnapScan:
		// Replica/unhosted shards contribute no rows: a cluster-wide SCAN
		// fans out one SCAN per node and unions them without duplicates.
		need := sl.scanNeed()
		if need <= 0 || s.cluster && s.role[shard].Load() != rolePrimary {
			return
		}
		if sl.op == opScan {
			h.Scan(need, sl.rowSink())
		} else {
			h.ScanAt(sl.ts, need, sl.rowSink())
		}
	case opMGet:
		// Resolve only this shard's keys, at the slot's lease timestamp;
		// the shard shares write disjoint mvals/mhits indexes (each
		// index's scratch keeps its capacity across requests).
		for i, k := range sl.keys {
			if s.shardOf(k) != shard {
				continue
			}
			v, ok := h.GetAt(sl.ts, k, sl.mvals[i][:0])
			sl.mvals[i] = v
			sl.mhits[i] = ok
		}
	}
}

// --- shutdown --------------------------------------------------------------

// Close shuts the server down gracefully and tears the storage engine
// to quiescence. Unlike Kill, it drains in-flight pipelined requests:
// each connection's read half is poisoned (a zero read deadline) while
// its socket stays open, so the reader stops claiming slots but the
// writer flushes a reply — or -BUSY — for every ring entry already
// issued, bounded by drainGrace against peers that stop reading. After
// the conns, every handle is back in its pool: detach them all, replay
// any replication-log backlog to the replicas, clear every shard, and run
// adoption/flush rounds until Live() == 0. The drain rounds matter
// after crashes: abandoned arena shards and deferred decrements are
// only adopted when some thread ejects or scans, so shutdown attaches
// and detaches throwaway handles until everything is reclaimed. A
// residual leak is returned as an error (UAF/leak gates in
// cmd/cdrc-load and the tests treat it as fatal).
func (s *Server) Close() error { return s.shutdown(true) }

// Kill is fail-stop shutdown: connections are severed mid-flight with
// no reply drain, exactly as a dead process would. Everything durable
// still happens — the replication logs are replayed to the replicas
// (the "replayable" half of the ack contract; the log stands in for
// the disk a real fail-stop node would recover from) and the storage
// engine is torn down to Live() == 0 so a killed node can still be
// leak-checked. Used by the cluster chaos mode and tests.
func (s *Server) Kill() error { return s.shutdown(false) }

func (s *Server) shutdown(graceful bool) error {
	s.closeOnce.Do(func() {
		s.mu.Lock()
		s.closing = true
		conns := make([]net.Conn, 0, len(s.conns))
		for c := range s.conns {
			conns = append(conns, c)
		}
		s.mu.Unlock()
		s.ln.Close()
		<-s.acceptDone
		if graceful {
			for _, c := range conns {
				c.SetReadDeadline(time.Now())
			}
			drained := make(chan struct{})
			go func() {
				s.connWg.Wait()
				close(drained)
			}()
			select {
			case <-drained:
			case <-time.After(drainGrace):
				for _, c := range conns {
					c.Close()
				}
			}
		} else {
			for _, c := range conns {
				c.Close()
			}
		}
		s.connWg.Wait()
		// No connection is left to borrow a handle, so every one is back
		// in its pool: detach them, flushing their deferred work.
		for i := range s.queues {
			q := &s.queues[i]
			for range cap(q.handles) {
				(<-q.handles).Close()
			}
		}
		// Nothing executes any more, so the replication logs are final: ship the
		// unacked backlog to the replicas (Kill included), bounded by
		// ReplDrainTimeout; what cannot be delivered is counted in
		// server.repl.lost rather than dropped silently.
		deadline := time.Now().Add(s.cfg.ReplDrainTimeout)
		for _, rl := range s.replLogs {
			if rl != nil {
				rl.beginDrain(deadline)
			}
		}
		s.shipperWg.Wait()
		s.closed.Store(true) // prunes this node's gauges
		if s.cfg.CacheMode {
			// Cache shards own their teardown: stop the sweeper, drop the
			// eviction index, clear, and leak-check (collections.Cache.Close).
			for i, c := range s.caches {
				if err := c.Close(); err != nil && s.closeErr == nil {
					s.closeErr = fmt.Errorf("server: cache shard %d: %w", i, err)
				}
			}
			return
		}
		const rounds = 16
		for round := 0; round < rounds; round++ {
			for _, m := range s.shards {
				h := m.Attach()
				h.Clear()
				h.Close()
			}
			if s.Live() == 0 {
				return
			}
		}
		s.closeErr = fmt.Errorf("server: %d nodes still live after %d teardown rounds", s.Live(), rounds)
	})
	return s.closeErr
}
