package server

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"strconv"
	"strings"
	"time"
)

// ErrBusy is the client-side rendering of a -BUSY reply: the server shed
// the request (shard admission full, arena exhausted, replication log
// full, or the serving handle simulated a crash mid-request). The request had no
// effect and may be retried.
var ErrBusy = errors.New("server: busy")

// MovedError is the client-side rendering of -MOVED: the key's shard is
// not primary at the node that answered; Addr is where the topology
// says it is. The request had no effect.
type MovedError struct{ Addr string }

func (e *MovedError) Error() string { return "server: moved to " + e.Addr }

// Client speaks the wire protocol over one connection. It is not safe
// for concurrent use: replies come back in request order, so one caller
// must write a batch and read all its replies before the next.
type Client struct {
	c  net.Conn
	br *bufio.Reader
	bw *bufio.Writer

	one Batch    // the single-request methods' batch
	res []Result // and its result, whose Bytes capacity is reused
}

// Dial connects to a server at addr.
func Dial(addr string) (*Client, error) {
	c, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return NewClient(c), nil
}

// NewClient wraps an established connection.
func NewClient(c net.Conn) *Client {
	return &Client{c: c, br: bufio.NewReaderSize(c, 64<<10), bw: bufio.NewWriter(c)}
}

// Close closes the underlying connection.
func (cl *Client) Close() error { return cl.c.Close() }

// roundTrip sends one request line and reads one reply line. A -BUSY
// reply is returned as ErrBusy, a -ERR reply as an error; anything else
// comes back verbatim for the caller to parse.
func (cl *Client) roundTrip(req string) (string, error) {
	if _, err := cl.bw.WriteString(req); err != nil {
		return "", err
	}
	if err := cl.bw.WriteByte('\n'); err != nil {
		return "", err
	}
	if err := cl.bw.Flush(); err != nil {
		return "", err
	}
	return cl.readLine()
}

// readBody reads an n-byte value body plus its terminating LF, reusing
// dst's capacity.
func (cl *Client) readBody(n int, dst []byte) ([]byte, error) {
	if cap(dst) < n {
		dst = make([]byte, n)
	} else {
		dst = dst[:n]
	}
	if _, err := io.ReadFull(cl.br, dst); err != nil {
		return dst, err
	}
	c, err := cl.br.ReadByte()
	if err != nil {
		return dst, err
	}
	if c != '\n' {
		return dst, fmt.Errorf("client: value body not LF-terminated")
	}
	return dst, nil
}

func (cl *Client) readLine() (string, error) {
	line, err := cl.br.ReadString('\n')
	if err != nil {
		return "", err
	}
	line = strings.TrimRight(line, "\r\n")
	switch {
	case line == "-BUSY":
		return "", ErrBusy
	case strings.HasPrefix(line, "-MOVED "):
		return "", &MovedError{Addr: line[len("-MOVED "):]}
	case strings.HasPrefix(line, "-ERR "):
		return "", fmt.Errorf("server: %s", line[len("-ERR "):])
	}
	return line, nil
}

// Ping checks liveness.
func (cl *Client) Ping() error {
	line, err := cl.roundTrip("PING")
	if err != nil {
		return err
	}
	if line != "+PONG" {
		return fmt.Errorf("server: unexpected reply %q to PING", line)
	}
	return nil
}

// do runs the request queued in cl.one as a one-request batch. A -BUSY
// reply comes back as ErrBusy; r.Bytes is scratch until the next call.
func (cl *Client) do() (r Result, err error) {
	cl.res, err = cl.DoBatch(&cl.one, cl.res[:0])
	cl.one.Reset()
	if err != nil {
		return Result{}, err
	}
	if r = cl.res[0]; r.Busy {
		return Result{}, ErrBusy
	}
	return r, nil
}

// doValue is do for the requests whose reply may carry a value (GET,
// PUT, GETEX, SETEX): found reports a value, which the caller owns.
func (cl *Client) doValue() (v []byte, found bool, err error) {
	r, err := cl.do()
	if err != nil || !r.Found {
		return nil, false, err
	}
	return append([]byte{}, r.Bytes...), true, nil
}

// Get fetches key's value bytes; ok reports presence.
func (cl *Client) Get(key uint64) (v []byte, ok bool, err error) {
	cl.one.Get(key)
	return cl.doValue()
}

// Put maps key to val (arbitrary bytes, binary-safe); when the key was
// present the replaced value is returned with existed == true. ErrBusy
// means the store rejected the write (nothing was stored).
func (cl *Client) Put(key uint64, val []byte) (old []byte, existed bool, err error) {
	cl.one.Put(key, val)
	return cl.doValue()
}

// Del removes key, reporting whether it was present.
func (cl *Client) Del(key uint64) (bool, error) {
	cl.one.Del(key)
	r, err := cl.do()
	return r.Found, err
}

// Entry is one key/value row of a SCAN or SNAPSCAN reply. Val is an
// owned copy.
type Entry struct {
	Key uint64
	Val []byte
}

// readScanReply parses a `*<n>` header line plus n `<key> <len>\n<bytes>`
// rows (the reply shape SCAN and SNAPSCAN share). A count below zero, or
// above a positive requested limit, is rejected before anything is sized
// from it.
func (cl *Client) readScanReply(line, verb string, limit int) ([]Entry, error) {
	rest, ok := strings.CutPrefix(line, "*")
	if !ok {
		return nil, fmt.Errorf("server: unexpected reply %q to %s", line, verb)
	}
	n, err := strconv.Atoi(rest)
	if err != nil || n < 0 || limit > 0 && n > limit {
		return nil, fmt.Errorf("server: bad %s count %q", verb, rest)
	}
	// A count sizes at most a default-capped reply up front: without a
	// limit the client cannot bound it.
	ents := make([]Entry, 0, min(n, 4096))
	for i := 0; i < n; i++ {
		row, err := cl.readLine()
		if err != nil {
			return nil, err
		}
		ks, ls, cut := strings.Cut(row, " ")
		if !cut {
			return nil, fmt.Errorf("server: bad %s row %q", verb, row)
		}
		k, err1 := strconv.ParseUint(ks, 10, 64)
		l, err2 := strconv.Atoi(ls)
		if err1 != nil || err2 != nil || l < 0 {
			return nil, fmt.Errorf("server: bad %s row %q", verb, row)
		}
		v, err := cl.readBody(l, nil)
		if err != nil {
			return nil, err
		}
		ents = append(ents, Entry{Key: k, Val: v})
	}
	return ents, nil
}

// Scan returns up to limit entries (weakly consistent; see
// MapHandle.Scan).
func (cl *Client) Scan(limit int) ([]Entry, error) {
	line, err := cl.roundTrip("SCAN " + strconv.Itoa(limit))
	if err != nil {
		return nil, err
	}
	return cl.readScanReply(line, "SCAN", limit)
}

// SnapScan returns up to limit entries read from one point-in-time
// snapshot of the whole keyspace: every row reflects the same instant,
// unlike Scan's weakly consistent walk. ErrBusy means the server's
// snapshot-lease pool was exhausted; retry.
func (cl *Client) SnapScan(limit int) ([]Entry, error) {
	line, err := cl.roundTrip("SNAPSCAN " + strconv.Itoa(limit))
	if err != nil {
		return nil, err
	}
	return cl.readScanReply(line, "SNAPSCAN", limit)
}

// MGet reads up to 8 keys atomically from one point-in-time snapshot
// and returns one Result per key in request order (Found reports
// presence, Bytes the value). ErrBusy means the server shed the request
// (lease pool or shard admission exhausted); it had no effect.
func (cl *Client) MGet(keys ...uint64) ([]Result, error) {
	if len(keys) == 0 || len(keys) > maxMGetKeys {
		return nil, fmt.Errorf("client: MGET takes 1..%d keys, got %d", maxMGetKeys, len(keys))
	}
	req := "MGET"
	for _, k := range keys {
		req += " " + strconv.FormatUint(k, 10)
	}
	line, err := cl.roundTrip(req)
	if err != nil {
		return nil, err
	}
	rest, ok := strings.CutPrefix(line, "*")
	if !ok {
		return nil, fmt.Errorf("server: unexpected reply %q to MGET", line)
	}
	n, err := strconv.Atoi(rest)
	if err != nil || n != len(keys) {
		return nil, fmt.Errorf("server: bad MGET count %q (want %d)", rest, len(keys))
	}
	res := make([]Result, n)
	for i := 0; i < n; i++ {
		row, err := cl.readLine()
		if err != nil {
			return nil, err
		}
		ks, ls, ok := strings.Cut(row, " ")
		if !ok {
			return nil, fmt.Errorf("server: bad MGET row %q", row)
		}
		k, err := strconv.ParseUint(ks, 10, 64)
		if err != nil || k != keys[i] {
			return nil, fmt.Errorf("server: MGET row %q out of order (want key %d)", row, keys[i])
		}
		if ls == "-" {
			continue // miss: no body follows
		}
		l, err := strconv.Atoi(ls)
		if err != nil || l < 0 {
			return nil, fmt.Errorf("server: bad MGET row %q", row)
		}
		v, err := cl.readBody(l, nil)
		if err != nil {
			return nil, err
		}
		res[i] = Result{Bytes: v, Found: true}
	}
	return res, nil
}

// SetEx maps key to val with an expiry TTL (0 = no expiry). Cache mode
// only. The reply shape matches Put; the server evicts under arena
// pressure instead of replying -BUSY.
func (cl *Client) SetEx(key uint64, val []byte, ttl time.Duration) (old []byte, existed bool, err error) {
	cl.one.SetEx(key, val, ttl)
	return cl.doValue()
}

// GetEx fetches key's value, marking it recently used; a non-zero ttl
// also replaces its expiry deadline. Cache mode only.
func (cl *Client) GetEx(key uint64, ttl time.Duration) (v []byte, ok bool, err error) {
	cl.one.GetEx(key, ttl)
	return cl.doValue()
}

// Expire replaces key's expiry deadline (ttl <= 0 expires it
// immediately), reporting whether the key was present and live. Cache
// mode only.
func (cl *Client) Expire(key uint64, ttl time.Duration) (bool, error) {
	cl.one.Expire(key, ttl)
	r, err := cl.do()
	return r.Found, err
}

// CacheStats fetches the server's aggregated cache counters as JSON.
// Cache mode only.
func (cl *Client) CacheStats() ([]byte, error) {
	line, err := cl.roundTrip("CACHESTATS")
	if err != nil {
		return nil, err
	}
	rest, ok := strings.CutPrefix(line, "$")
	if !ok {
		return nil, fmt.Errorf("server: unexpected reply %q to CACHESTATS", line)
	}
	n, err := strconv.Atoi(rest)
	if err != nil || n < 0 {
		return nil, fmt.Errorf("server: bad CACHESTATS length %q", rest)
	}
	body := make([]byte, n+1) // payload plus trailing LF
	if _, err := io.ReadFull(cl.br, body); err != nil {
		return nil, err
	}
	return body[:n], nil
}

// Promote asks the node to take primary ownership of shard (replica
// promotion after its primary died; idempotent if the node is already
// primary). The call blocks until the node has drained its copy of the
// shard's replication log, and returns the last applied seq.
func (cl *Client) Promote(shard int) (uint64, error) {
	line, err := cl.roundTrip("PROMOTE " + strconv.Itoa(shard))
	if err != nil {
		return 0, err
	}
	rest, ok := strings.CutPrefix(line, "+PROMOTED ")
	if !ok {
		return 0, fmt.Errorf("server: unexpected reply %q to PROMOTE", line)
	}
	sh, seq, ok := strings.Cut(rest, " ")
	if !ok || sh != strconv.Itoa(shard) {
		return 0, fmt.Errorf("server: bad PROMOTED frame %q", line)
	}
	return strconv.ParseUint(seq, 10, 64)
}

// --- retry policy ----------------------------------------------------------

// Backoff is a bounded exponential backoff policy with deterministic
// jitter: the pause after failed attempt i is Base<<i capped at Max,
// scaled by a jitter factor in [0.5, 1.0) derived from (Seed, i) alone,
// so two runs with the same seed sleep the same schedule (the chaos
// harnesses depend on that) while different seeds decorrelate clients
// that shed together. The zero value is usable.
type Backoff struct {
	Base     time.Duration // first delay (default 100µs)
	Max      time.Duration // per-delay cap (default 10ms)
	Attempts int           // total tries, including the first (default 8)
	Seed     uint64        // jitter seed; same seed → same schedule
}

func (b Backoff) withDefaults() Backoff {
	if b.Base <= 0 {
		b.Base = 100 * time.Microsecond
	}
	if b.Max <= 0 {
		b.Max = 10 * time.Millisecond
	}
	if b.Attempts <= 0 {
		b.Attempts = 8
	}
	return b
}

// Delay returns the jittered pause after failed attempt i (0-based).
func (b Backoff) Delay(attempt int) time.Duration {
	b = b.withDefaults()
	d := b.Max
	if shifted := b.Base << uint(attempt); attempt < 32 && shifted > 0 && shifted < b.Max {
		d = shifted
	}
	x := mix64(b.Seed + uint64(attempt)*0x9E3779B97F4A7C15 + 1)
	frac := float64(x>>11) / (1 << 53)
	return time.Duration((0.5 + 0.5*frac) * float64(d))
}

// mix64 is the splitmix64 finalizer (same mix the arena and chaos use).
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return x
}

// RetryBusy runs op, retrying with the policy's backoff while it
// returns ErrBusy; any other outcome (success included) is returned as
// is. ErrBusy is returned only once the attempt budget is exhausted.
func RetryBusy(bo Backoff, op func() error) error {
	bo = bo.withDefaults()
	var err error
	for attempt := 0; attempt < bo.Attempts; attempt++ {
		if err = op(); !errors.Is(err, ErrBusy) {
			return err
		}
		if attempt < bo.Attempts-1 {
			time.Sleep(bo.Delay(attempt))
		}
	}
	return err
}

// --- pipelined API ---------------------------------------------------------

// Batch accumulates GET/PUT/DEL requests to be sent as one pipelined
// write. A Batch renders requests into a reusable buffer as they are
// added, so building and sending one allocates nothing in steady state.
// Batches are not safe for concurrent use, but may be reused (Reset)
// across DoBatch calls and across clients.
type Batch struct {
	buf []byte
	ops []byte // one kind byte per request: 'G', 'P', 'D'
}

// Len returns the number of queued requests.
func (b *Batch) Len() int { return len(b.ops) }

// Reset empties the batch, retaining capacity.
func (b *Batch) Reset() {
	b.buf = b.buf[:0]
	b.ops = b.ops[:0]
}

// Get queues a GET.
func (b *Batch) Get(key uint64) {
	b.buf = append(b.buf, "GET "...)
	b.buf = strconv.AppendUint(b.buf, key, 10)
	b.buf = append(b.buf, '\n')
	b.ops = append(b.ops, 'G')
}

// Put queues a PUT: the request header and the value body are rendered
// into the batch buffer together, so the batch owns its copy and the
// caller may reuse val immediately.
func (b *Batch) Put(key uint64, val []byte) {
	b.buf = append(b.buf, "PUT "...)
	b.buf = strconv.AppendUint(b.buf, key, 10)
	b.buf = append(b.buf, ' ')
	b.buf = strconv.AppendInt(b.buf, int64(len(val)), 10)
	b.buf = append(b.buf, '\n')
	b.buf = append(b.buf, val...)
	b.buf = append(b.buf, '\n')
	b.ops = append(b.ops, 'P')
}

// Del queues a DEL.
func (b *Batch) Del(key uint64) {
	b.buf = append(b.buf, "DEL "...)
	b.buf = strconv.AppendUint(b.buf, key, 10)
	b.buf = append(b.buf, '\n')
	b.ops = append(b.ops, 'D')
}

// SetEx queues a SETEX (cache mode). The reply shape matches Put, so
// its Result reads the same: Found reports the key existed, Bytes the
// replaced value.
func (b *Batch) SetEx(key uint64, val []byte, ttl time.Duration) {
	b.buf = append(b.buf, "SETEX "...)
	b.buf = strconv.AppendUint(b.buf, key, 10)
	b.buf = append(b.buf, ' ')
	b.buf = appendTTLMillis(b.buf, ttl)
	b.buf = append(b.buf, ' ')
	b.buf = strconv.AppendInt(b.buf, int64(len(val)), 10)
	b.buf = append(b.buf, '\n')
	b.buf = append(b.buf, val...)
	b.buf = append(b.buf, '\n')
	b.ops = append(b.ops, 'P')
}

// GetEx queues a GETEX (cache mode); its Result reads like Get's.
func (b *Batch) GetEx(key uint64, ttl time.Duration) {
	b.buf = append(b.buf, "GETEX "...)
	b.buf = strconv.AppendUint(b.buf, key, 10)
	b.buf = append(b.buf, ' ')
	b.buf = appendTTLMillis(b.buf, ttl)
	b.buf = append(b.buf, '\n')
	b.ops = append(b.ops, 'G')
}

// Expire queues an EXPIRE (cache mode); Found reports the key was
// present and live.
func (b *Batch) Expire(key uint64, ttl time.Duration) {
	b.buf = append(b.buf, "EXPIRE "...)
	b.buf = strconv.AppendUint(b.buf, key, 10)
	b.buf = append(b.buf, ' ')
	b.buf = appendTTLMillis(b.buf, ttl)
	b.buf = append(b.buf, '\n')
	b.ops = append(b.ops, 'E')
}

// appendTTLMillis renders a TTL into buf (decimal milliseconds).
func appendTTLMillis(buf []byte, ttl time.Duration) []byte {
	if ttl <= 0 {
		return append(buf, '0')
	}
	return strconv.AppendUint(buf, uint64(ttl/time.Millisecond), 10)
}

// Result classifies one pipelined reply. For a GET, Found reports a hit
// and Bytes the value; for a PUT, Found reports that the key existed and
// Bytes the replaced value; for a DEL, Found reports that the key was
// present. Busy means the server shed the request (-BUSY): it had no
// effect and Bytes/Found are meaningless. Bytes is owned by the results
// slice — recycling the slice through DoBatch reuses its capacity.
type Result struct {
	Bytes []byte
	Found bool
	Busy  bool
}

// DoBatch writes every queued request in one flush and reads exactly one
// reply per request, in order, appending to results (pass results[:0] to
// reuse a slice). The round trip allocates nothing once results has
// capacity and each recycled entry's Bytes has capacity for its value. A
// -ERR, -MOVED (as *MovedError) or malformed reply aborts with an error
// and leaves the later requests' replies unread, so the connection stays
// usable only when the failed request was the batch's last. The batch
// itself is untouched - callers Reset and refill it.
func (cl *Client) DoBatch(b *Batch, results []Result) ([]Result, error) {
	if len(b.ops) == 0 {
		return results, nil
	}
	if _, err := cl.bw.Write(b.buf); err != nil {
		return results, err
	}
	if err := cl.bw.Flush(); err != nil {
		return results, err
	}
	for _, kind := range b.ops {
		line, err := cl.br.ReadSlice('\n')
		if err != nil {
			return results, err
		}
		line = line[:len(line)-1]
		if len(line) > 0 && line[len(line)-1] == '\r' {
			line = line[:len(line)-1]
		}
		// Reuse the recycled slice's Bytes capacity at the index this
		// result will land in (the append below then stores over it).
		var scratch []byte
		if idx := len(results); idx < cap(results) {
			scratch = results[:idx+1][idx].Bytes[:0]
		}
		res, err := cl.parseBatchReply(kind, line, scratch)
		if err != nil {
			return results, err
		}
		results = append(results, res)
	}
	return results, nil
}

// parseBatchReply decodes one reply line for a request of the given
// kind, reading the value body that follows +VAL/+OLD replies into
// scratch (capacity reuse; allocation-free once warm).
func (cl *Client) parseBatchReply(kind byte, line, scratch []byte) (Result, error) {
	if len(line) > 0 && line[0] == '-' {
		switch {
		case string(line) == "-BUSY":
			return Result{Bytes: scratch, Busy: true}, nil
		case bytes.HasPrefix(line, []byte("-MOVED ")):
			return Result{}, &MovedError{Addr: string(line[len("-MOVED "):])}
		}
		return Result{}, fmt.Errorf("server: %s", bytes.TrimPrefix(line, []byte("-ERR ")))
	}
	tagged := func(tag string) (uint64, error) {
		if len(line) > len(tag)+1 && string(line[:len(tag)]) == tag && line[len(tag)] == ' ' {
			if v, ok := parseUintBytes(line[len(tag)+1:]); ok {
				return v, nil
			}
		}
		return 0, fmt.Errorf("server: unexpected reply %q (want %s)", line, tag)
	}
	valued := func(tag string) (Result, error) {
		n, err := tagged(tag)
		if err != nil {
			return Result{}, err
		}
		v, err := cl.readBody(int(n), scratch)
		if err != nil {
			return Result{}, err
		}
		return Result{Bytes: v, Found: true}, nil
	}
	switch kind {
	case 'G':
		if string(line) == "+NIL" {
			return Result{Bytes: scratch}, nil
		}
		return valued("+VAL")
	case 'P':
		if string(line) == "+NEW" {
			return Result{Bytes: scratch}, nil
		}
		return valued("+OLD")
	case 'D':
		v, err := tagged("+DEL")
		return Result{Bytes: scratch, Found: v == 1}, err
	case 'E':
		v, err := tagged("+EXP")
		return Result{Bytes: scratch, Found: v == 1}, err
	}
	return Result{}, fmt.Errorf("client: unknown batch op %q", kind)
}

// Stats fetches the server's obs JSON report.
func (cl *Client) Stats() ([]byte, error) {
	line, err := cl.roundTrip("STATS")
	if err != nil {
		return nil, err
	}
	rest, ok := strings.CutPrefix(line, "$")
	if !ok {
		return nil, fmt.Errorf("server: unexpected reply %q to STATS", line)
	}
	n, err := strconv.Atoi(rest)
	if err != nil || n < 0 {
		return nil, fmt.Errorf("server: bad STATS length %q", rest)
	}
	body := make([]byte, n+1) // payload plus trailing LF
	if _, err := io.ReadFull(cl.br, body); err != nil {
		return nil, err
	}
	return body[:n], nil
}
