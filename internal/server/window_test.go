package server

import (
	"bufio"
	"bytes"
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"cdrc/internal/chaos"
	"cdrc/internal/obs"
)

// TestWindowFlushBeforeBlockingRead pins the reader's flush rule: a
// client that sends complete requests and then waits for their replies
// before sending the rest must get those replies, whether the rest is a
// partial request line or a PUT body held back after its header, and
// even when it sent more requests than the connection has slots. If the
// reader kept its open window while blocking in the next line read,
// body read or slot claim, the replies would never come and the read
// deadline fails the case.
func TestWindowFlushBeforeBlockingRead(t *testing.T) {
	cases := []struct {
		name       string
		pipeline   int // MaxPipeline; 0 = default
		head, tail string
		first      []string // replies owed before the tail is sent
		last       []string // replies to the tail's request
	}{
		{
			name:  "partial line",
			head:  "PUT 1 2\nhi\nGET 1\nGE",
			tail:  "T 1\n",
			first: []string{"+NEW", "+VAL 2", "hi"},
			last:  []string{"+VAL 2", "hi"},
		},
		{
			name:  "held body",
			head:  "PUT 1 2\nhi\nGET 1\nPUT 2 5\n",
			tail:  "hello\n",
			first: []string{"+NEW", "+VAL 2", "hi"},
			last:  []string{"+NEW"},
		},
		{
			name:     "ring full",
			pipeline: 4,
			head:     "PUT 1 2\nhi\n" + strings.Repeat("GET 1\n", 7),
			tail:     "DEL 1\n",
			first:    append([]string{"+NEW"}, strings.Split(strings.Repeat("+VAL 2,hi,", 7), ",")[:14]...),
			last:     []string{"+DEL 1"},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := newTestServer(t, Config{Shards: 2, Workers: 2, ExpectedKeys: 64, MaxPipeline: tc.pipeline})
			defer s.Close()
			c, err := net.Dial("tcp", s.Addr())
			if err != nil {
				t.Fatalf("dial: %v", err)
			}
			defer c.Close()
			br := bufio.NewReader(c)
			expect := func(want []string) {
				t.Helper()
				c.SetReadDeadline(time.Now().Add(10 * time.Second))
				for i, w := range want {
					line, err := br.ReadString('\n')
					if err != nil {
						t.Fatalf("reply %d (want %q): %v: the reader held an unflushed window", i, w, err)
					}
					if got := strings.TrimRight(line, "\r\n"); got != w {
						t.Fatalf("reply %d = %q, want %q", i, got, w)
					}
				}
			}
			if _, err := c.Write([]byte(tc.head)); err != nil {
				t.Fatalf("write head: %v", err)
			}
			expect(tc.first)
			if _, err := c.Write([]byte(tc.tail)); err != nil {
				t.Fatalf("write tail: %v", err)
			}
			expect(tc.last)
		})
	}
}

// checkConservation asserts the server's reply identities against the
// client's own tallies at quiescence: every request sent is either a
// worker-bound reply or a shed that never reached a worker, and every
// -BUSY the client saw is counted under exactly one cause.
func checkConservation(t *testing.T, sends, busys int64) {
	t.Helper()
	if !obs.BuildEnabled {
		return
	}
	r := obs.Snapshot()
	reply, queue, lease := r.Counter("server.reply"), r.Counter("server.busy.queue"), r.Counter("server.busy.lease")
	if reply+queue+lease != sends {
		t.Errorf("server.reply %d + busy.queue %d + busy.lease %d != %d sends", reply, queue, lease, sends)
	}
	shed := queue + lease + r.Counter("server.busy.arena") + r.Counter("server.busy.crash") + r.Counter("server.busy.repl")
	if shed != busys {
		t.Errorf("busy counters sum to %d, client saw %d -BUSY", shed, busys)
	}
}

// windowOfPuts sends one 16-request window of PUTs to fresh keys
// 0..15 and returns the replies.
func windowOfPuts(t *testing.T, cl *Client) []Result {
	t.Helper()
	var b Batch
	for k := uint64(0); k < 16; k++ {
		b.Put(k, tb(valFor(k)))
	}
	res, err := cl.DoBatch(&b, nil)
	if err != nil {
		t.Fatalf("DoBatch: %v", err)
	}
	if len(res) != 16 {
		t.Fatalf("16 requests got %d replies", len(res))
	}
	return res
}

// checkLanded reads keys 0..15 back lock-step: exactly the keys for
// which landed reports true hold their value; a shed PUT had no effect.
func checkLanded(t *testing.T, cl *Client, landed func(k uint64) bool) {
	t.Helper()
	for k := uint64(0); k < 16; k++ {
		v, ok, err := cl.Get(k)
		if err != nil {
			t.Fatalf("Get(%d): %v", k, err)
		}
		if want := landed(k); ok != want || (ok && bu(v) != valFor(k)) {
			t.Fatalf("Get(%d) = %d,%v; want present=%v", k, bu(v), ok, want)
		}
	}
}

// TestCrashMidBatchResumes crashes the worker at the k-th request of a
// 16-request window bound for one shard. The crashed request alone
// replies -BUSY, at its own position, and has no effect; the respawned
// worker finishes the rest of the batch, so the other 15 replies are
// correct, and the conservation identities hold at quiescence.
func TestCrashMidBatchResumes(t *testing.T) {
	const k = 9
	// Every fires at hits 0, k+1, 2(k+1), ...: a lone warm-up request
	// takes hit 0, so the window's requests are hits 1..16 and the one at
	// position k is hit k+1.
	chaos.Enable(chaos.Config{
		Seed:        5,
		CrashBudget: 2,
		Faults: map[string]chaos.Fault{
			"server.worker.op": {Every: k + 1, Crash: true},
		},
	})
	defer chaos.Disable()
	obs.Enable()
	defer obs.Disable()

	s := newTestServer(t, Config{Shards: 1, Workers: 1, ExpectedKeys: 256})
	cl := dialTest(t, s)
	defer cl.Close()
	if _, _, err := cl.Get(1000); err != ErrBusy {
		t.Fatalf("warm-up Get = %v, want the schedule's first crash (-BUSY)", err)
	}
	busys := int64(1)
	for i, r := range windowOfPuts(t, cl) {
		switch {
		case i == k && !r.Busy:
			t.Fatalf("reply %d = %+v, want the crash's -BUSY", i, r)
		case i != k && (r.Busy || r.Found):
			t.Fatalf("reply %d = %+v, want +NEW", i, r)
		}
		if r.Busy {
			busys++
		}
	}
	if got := chaos.Crashes(); got != 2 {
		t.Fatalf("%d crashes fired, want 2", got)
	}
	chaos.Disable()
	checkLanded(t, cl, func(key uint64) bool { return key != k })
	cl.Close()
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if live := s.Live(); live != 0 {
		t.Fatalf("Live() = %d after Close, want 0", live)
	}
	checkConservation(t, 1+16+16, busys)
	if c := obs.Snapshot().Counter("server.busy.crash"); obs.BuildEnabled && c != 2 {
		t.Errorf("server.busy.crash = %d, want 2", c)
	}
}

// TestQueueDepthCountsRequests bounds a shard's admission by requests,
// not by the batches they travel in: with the handle stalled, a
// 16-request window to one shard behind QueueDepth 4 runs its first 4
// requests and sheds exactly the other 12, each at its own position. In
// the two-connection case, connection A's stalled request holds the
// shard's only handle and one unit of its depth, so connection B's
// window runs 3 requests and sheds the other 13.
func TestQueueDepthCountsRequests(t *testing.T) {
	chaos.Enable(chaos.Config{
		Seed: 3,
		Faults: map[string]chaos.Fault{
			"server.worker.op": {Every: 1, Sleep: 200 * time.Millisecond},
		},
	})
	defer chaos.Disable()
	obs.Enable()
	defer obs.Disable()

	s := newTestServer(t, Config{Shards: 1, Workers: 1, QueueDepth: 4, ExpectedKeys: 64})
	cl := dialTest(t, s)
	defer cl.Close()
	var busys int64
	for i, r := range windowOfPuts(t, cl) {
		if want := i >= 4; r.Busy != want || (!r.Busy && r.Found) {
			t.Fatalf("reply %d = %+v, want busy=%v", i, r, want)
		}
		if r.Busy {
			busys++
		}
	}
	chaos.Disable()
	checkLanded(t, cl, func(key uint64) bool { return key < 4 })
	cl.Close()
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	checkConservation(t, 16+16, busys)
	if q := obs.Snapshot().Counter("server.busy.queue"); obs.BuildEnabled && q != 12 {
		t.Errorf("server.busy.queue = %d, want 12", q)
	}

	t.Run("two connections", func(t *testing.T) {
		if !obs.BuildEnabled {
			t.Skip("polls the server.queue.0 gauge, which obsoff compiles out")
		}
		chaos.Enable(chaos.Config{
			Seed: 3,
			Faults: map[string]chaos.Fault{
				"server.worker.op": {Every: 1, Sleep: 500 * time.Millisecond},
			},
		})
		defer chaos.Disable()
		obs.Enable()
		defer obs.Disable()

		s := newTestServer(t, Config{Shards: 1, Workers: 1, QueueDepth: 4, ExpectedKeys: 64})
		a, b := dialTest(t, s), dialTest(t, s)
		defer a.Close()
		defer b.Close()
		aErr := make(chan error, 1)
		go func() {
			_, _, err := a.Put(100, tb(100))
			aErr <- err
		}()
		for deadline := time.Now().Add(10 * time.Second); obs.Snapshot().Gauges["server.queue.0"] != 1; {
			if time.Now().After(deadline) {
				t.Fatal("connection A's request never held the shard's handle")
			}
			time.Sleep(time.Millisecond)
		}
		var busys int64
		for i, r := range windowOfPuts(t, b) {
			if want := i >= 3; r.Busy != want || (!r.Busy && r.Found) {
				t.Fatalf("reply %d = %+v, want busy=%v", i, r, want)
			}
			if r.Busy {
				busys++
			}
		}
		if err := <-aErr; err != nil {
			t.Fatalf("connection A's Put: %v", err)
		}
		chaos.Disable()
		checkLanded(t, b, func(key uint64) bool { return key < 3 })
		a.Close()
		b.Close()
		if err := s.Close(); err != nil {
			t.Fatalf("Close: %v", err)
		}
		checkConservation(t, 1+16+16, busys)
		if q := obs.Snapshot().Counter("server.busy.queue"); q != 13 {
			t.Errorf("server.busy.queue = %d, want 13", q)
		}
	})
}

// TestPipelineLargeRepliesBeforeRead pins why a connection keeps a
// writer goroutine beside its reader: a client that writes a whole
// window of large PUTs before it reads any reply must get every reply.
// The second round's replies echo the first round's 64 MiB of values. A
// reader that wrote its own replies would block on the socket while the
// client is still writing, and neither side would read again, so the
// deadline fails the case.
func TestPipelineLargeRepliesBeforeRead(t *testing.T) {
	const n, size = 64, 1 << 20
	s := newTestServer(t, Config{Shards: 2, Workers: 2, ExpectedKeys: 256})
	cl := dialTest(t, s)
	defer cl.Close()
	cl.c.SetDeadline(time.Now().Add(20 * time.Second))
	val := make([]byte, size)
	var b Batch
	var res []Result
	for round := 0; round < 2; round++ {
		b.Reset()
		for k := 0; k < n; k++ {
			for i := range val {
				val[i] = byte(round*n + k)
			}
			b.Put(uint64(k), val)
		}
		var err error
		if res, err = cl.DoBatch(&b, res[:0]); err != nil {
			t.Fatalf("round %d: DoBatch: %v: replies and requests deadlocked", round, err)
		}
		for k, r := range res {
			if r.Busy || r.Found != (round == 1) {
				t.Fatalf("round %d reply %d = busy %v found %v", round, k, r.Busy, r.Found)
			}
			if round == 1 && (len(r.Bytes) != size || bytes.Count(r.Bytes, []byte{byte(k)}) != size) {
				t.Fatalf("round 1 reply %d does not echo round 0's value", k)
			}
		}
	}
	cl.Close()
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if live := s.Live(); live != 0 {
		t.Fatalf("Live() = %d after Close, want 0", live)
	}
}

// TestHandlesBoundPids checks that the pids a server attaches are
// bounded by its handle pool, not by its connections: with one pid per
// shard registry, 16 concurrent pipelined connections share the two
// pooled handles. Attaching per connection would panic with
// "pid: registry full".
func TestHandlesBoundPids(t *testing.T) {
	const conns, rounds = 16, 20
	s := newTestServer(t, Config{Shards: 2, Workers: 2, MaxProcs: 1, ExpectedKeys: 1 << 10})
	var wg sync.WaitGroup
	errs := make(chan error, conns)
	for c := uint64(0); c < conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cl, err := Dial(s.Addr())
			if err != nil {
				errs <- err
				return
			}
			defer cl.Close()
			var b Batch
			var res []Result
			for round := uint64(0); round < rounds; round++ {
				b.Reset()
				for k := c * 100; k < c*100+16; k++ {
					if round%2 == 0 {
						b.Put(k, tb(k<<8|round))
					} else {
						b.Get(k)
					}
				}
				if res, err = cl.DoBatch(&b, res[:0]); err != nil {
					errs <- err
					return
				}
				for i, r := range res {
					if k := c*100 + uint64(i); round%2 == 1 && r.Found && bu(r.Bytes)>>8 != k {
						errs <- fmt.Errorf("GET %d returned key %d's value", k, bu(r.Bytes)>>8)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if live := s.Live(); live != 0 {
		t.Fatalf("Live() = %d after Close, want 0", live)
	}
}
