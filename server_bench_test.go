package cdrc_test

// The server benchmarks live in an external test package because
// internal/server (via collections) depends on the root cdrc package.

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"net"
	"strconv"
	"testing"

	"cdrc/internal/server"
)

// BenchmarkServerPipelined measures the internal/server loopback hot
// path (GET on resident keys) at pipeline depth 1 (lock-step round
// trips, the pre-pipeline behaviour) and depth 16 (the pipelined
// protocol): ns/op is one request's share of the wall clock, and
// -benchmem shows the per-request allocation count, which must be ~0 at
// depth 16 on the warmed path. cmd/cdrc-load drives the same comparison
// at soak scale.
func BenchmarkServerPipelined(b *testing.B) {
	for _, depth := range []int{1, 16} {
		b.Run(fmt.Sprintf("depth=%d", depth), func(b *testing.B) {
			srv, err := server.New(server.Config{Shards: 4, Workers: 4, ExpectedKeys: 1 << 12})
			if err != nil {
				b.Fatalf("server.New: %v", err)
			}
			defer srv.Close()
			cl, err := server.Dial(srv.Addr())
			if err != nil {
				b.Fatalf("Dial: %v", err)
			}
			defer cl.Close()
			const nKeys = 1024
			var vbuf [8]byte
			for k := uint64(0); k < nKeys; k++ {
				binary.LittleEndian.PutUint64(vbuf[:], k*3)
				if _, _, err := cl.Put(k, vbuf[:]); err != nil {
					b.Fatalf("seed Put: %v", err)
				}
			}
			var batch server.Batch
			results := make([]server.Result, 0, depth)
			// Warm the per-connection ring and client buffers.
			for i := 0; i < 4; i++ {
				batch.Reset()
				for j := 0; j < depth; j++ {
					batch.Get(uint64(j))
				}
				if results, err = cl.DoBatch(&batch, results[:0]); err != nil {
					b.Fatalf("warmup DoBatch: %v", err)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; {
				batch.Reset()
				n := depth
				if rem := b.N - i; rem < n {
					n = rem
				}
				for j := 0; j < n; j++ {
					batch.Get(uint64((i + j) % nKeys))
				}
				results, err = cl.DoBatch(&batch, results[:0])
				if err != nil {
					b.Fatalf("DoBatch: %v", err)
				}
				i += n
			}
			b.StopTimer()
			elapsed := b.Elapsed().Seconds()
			if elapsed > 0 {
				b.ReportMetric(float64(b.N)/elapsed/1e3, "kops/s")
			}
		})
	}
}

// BenchmarkServerSnapScan measures one SNAPSCAN 64 round trip over
// loopback against 4 shards holding 8 Ki keys of 3 KiB values, the
// snapshot-scan shape of the service-write-scan workload. The client
// reads the reply with ReadSlice and Discard, so ns/op and -benchmem's
// allocs/op are the server's: how many rows its shard shares resolve and
// how often each reply byte is copied.
func BenchmarkServerSnapScan(b *testing.B) {
	const nKeys, valLen, rows = 8 << 10, 3 << 10, 64
	srv, err := server.New(server.Config{Shards: 4, Workers: 4, ExpectedKeys: nKeys})
	if err != nil {
		b.Fatalf("server.New: %v", err)
	}
	defer srv.Close()
	cl, err := server.Dial(srv.Addr())
	if err != nil {
		b.Fatalf("Dial: %v", err)
	}
	defer cl.Close()
	val := bytes.Repeat([]byte{'v'}, valLen)
	var batch server.Batch
	var results []server.Result
	for k := uint64(0); k < nKeys; k += 16 {
		batch.Reset()
		for j := k; j < k+16; j++ {
			batch.Put(j, val)
		}
		if results, err = cl.DoBatch(&batch, results[:0]); err != nil {
			b.Fatalf("seed DoBatch: %v", err)
		}
	}
	c, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		b.Fatalf("dial: %v", err)
	}
	defer c.Close()
	br := bufio.NewReaderSize(c, 64<<10)
	req := []byte("SNAPSCAN 64\n")
	scan := func() {
		if _, err := c.Write(req); err != nil {
			b.Fatalf("write: %v", err)
		}
		line, err := br.ReadSlice('\n')
		if err != nil || string(line) != "*64\n" {
			b.Fatalf("SNAPSCAN header %q, %v", line, err)
		}
		for i := 0; i < rows; i++ {
			row, err := br.ReadSlice('\n')
			if err != nil {
				b.Fatalf("row %d: %v", i, err)
			}
			n, err := strconv.Atoi(string(row[bytes.LastIndexByte(row, ' ')+1 : len(row)-1]))
			if err != nil || n != valLen {
				b.Fatalf("row %d header %q", i, row)
			}
			if _, err := br.Discard(n + 1); err != nil {
				b.Fatalf("row %d body: %v", i, err)
			}
		}
	}
	for i := 0; i < 16; i++ {
		scan()
	}
	b.SetBytes(rows * valLen)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		scan()
	}
}
