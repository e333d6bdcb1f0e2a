package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"time"
)

// Load shape shared by every workload: a closed loop of nClients clients,
// each sending its ops in windows of windowOps and waiting for every reply
// before the next window (server.Client and collections handles block on
// each reply, so the callers this models are closed-loop by nature).
const (
	nClients  = 2
	windowOps = 16

	// snapEvery is the per-connection cadence of the snapshot reads of a
	// workload with scans: SNAPSCAN 64 and a 4-key MGET every snapEvery
	// ops.
	snapEvery = 1024
	scanRows  = 64
	mgetKeys  = 4

	// streamLen ops are pre-generated per client and replayed cyclically,
	// so key and size draws cost nothing inside the measured loop.
	streamLen = 1 << 18

	// cacheTTL is the SETEX/GETEX expiry of the cache workload.
	cacheTTL = time.Second
)

// opKind is one request type of a generated stream. In cache mode opGet
// is sent as GETEX and opPut as SETEX.
type opKind uint8

const (
	opGet opKind = iota
	opPut
	opDel
)

// op is one generated request: key, value size for writes, and kind.
type op struct {
	key  uint32
	size uint16
	kind opKind
}

// workload is one traffic mix. Every field is fixed here; only the seed
// varies between runs.
type workload struct {
	name string
	why  string

	service bool // over loopback TCP to an in-process server.New
	cache   bool // server in cache mode (SETEX/GETEX, capped arena)
	scans   bool // periodic SNAPSCAN + MGET (service only)

	keys     int
	zipf     bool    // Zipf s=1.1 key popularity; uniform otherwise
	getFrac  float64 // GET (GETEX) share
	putFrac  float64 // PUT (SETEX) share; the rest is DEL
	minVal   int     // value sizes are uniform in [minVal, maxVal]
	maxVal   int
	arenaCap uint64 // per-shard ArenaCapacity (cache mode)
	workers  int    // server worker pool (0 = cdrc-serve's default)
}

// hasDel reports whether the stream deletes keys; without deletes (and
// outside cache mode, where entries expire and get evicted) every GET of
// a preloaded key must hit.
func (w *workload) hasDel() bool { return w.getFrac+w.putFrac < 1 }

// mustHit reports whether a GET miss is a correctness failure.
func (w *workload) mustHit() bool { return !w.cache && !w.hasDel() }

// preloadKeys is how many keys, the hottest (0..n-1), a server set-up
// writes. A cache-mode server gets half its capacity, so its preload
// evicts nothing: an all-insert burst into full shards intermittently
// fails with "cache exhausted" (about 1 set-up in 25), once SETEX's
// evict-and-retry loop gives up. Eviction is left to the measured traffic.
func (w *workload) preloadKeys() int {
	if w.cache {
		return serverShards * int(w.arenaCap) / 2
	}
	return w.keys
}

// workloads are the benchmark's four traffic mixes (README.md says why
// each exists and which layer metrics should move on it).
var workloads = []*workload{
	{
		name: "embedded-read",
		why:  "90/10 GET/PUT of 64 B values on 64 Ki Zipf keys into one shared versioned map with no socket: storage does nearly all the work",
		keys: 1 << 16, zipf: true, getFrac: 0.9, putFrac: 0.1, minVal: 64, maxVal: 64,
	},
	{
		name:    "service-read",
		why:     "the embedded-read op stream over loopback TCP to the pipelined server: the server layer dominates CPU per op",
		service: true,
		keys:    1 << 16, zipf: true, getFrac: 0.9, putFrac: 0.1, minVal: 64, maxVal: 64,
	},
	{
		name:    "service-write-scan",
		why:     "20/70/10 GET/PUT/DEL of 256 B to 6 KiB values on 8 Ki keys with snapshot scans: slab churn, retire/eject and version chains",
		service: true, scans: true,
		keys: 1 << 13, getFrac: 0.2, putFrac: 0.7, minVal: 256, maxVal: 6 << 10,
		// One worker per shard. With two, writes to one key alternate
		// between pids and the versioned map's cross-pid reclamation
		// falls behind without bound (about 290 MiB/s of retained
		// version cells at these value sizes, freed only when the workers
		// detach), which would not fit a small host.
		workers: serverShards,
	},
	{
		name:    "cache-evict",
		why:     "cache mode with a working set 4x the capped arena: GETEX with miss fill and SETEX drive clock eviction and weak-ref upgrade",
		service: true, cache: true, arenaCap: 4096,
		keys: 1 << 16, zipf: true, getFrac: 0.75, putFrac: 0.25, minVal: 256, maxVal: 256,
	},
}

func workloadByName(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// mix64 is the splitmix64 finalizer.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return x
}

// rngFor derives an independent generator for one (seed, workload,
// stream) triple, so the same seed always yields the same inputs.
func rngFor(seed uint64, w *workload, stream int) *rand.Rand {
	h := seed
	for _, c := range []byte(w.name) {
		h = mix64(h ^ uint64(c))
	}
	h = mix64(h ^ uint64(stream+1)*0x9E3779B97F4A7C15)
	return rand.New(rand.NewSource(int64(h)))
}

// genStream generates client's op stream. The result holds streamLen ops
// followed by a copy of the first windowOps, so stream[i:i+windowOps] is
// valid for every i < streamLen.
func genStream(w *workload, seed uint64, client int) []op {
	r := rngFor(seed, w, client)
	var z *rand.Zipf
	if w.zipf {
		z = rand.NewZipf(r, 1.1, 1, uint64(w.keys-1))
	}
	s := make([]op, streamLen, streamLen+windowOps)
	for i := range s {
		var k uint64
		if z != nil {
			k = z.Uint64()
		} else {
			k = uint64(r.Intn(w.keys))
		}
		o := op{key: uint32(k)}
		switch p := r.Float64(); {
		case p < w.getFrac:
			o.kind = opGet
		case p < w.getFrac+w.putFrac:
			o.kind = opPut
			o.size = uint16(w.drawSize(r))
		default:
			o.kind = opDel
		}
		s[i] = o
	}
	return append(s, s[:windowOps]...)
}

// drawSize draws one value length.
func (w *workload) drawSize(r *rand.Rand) int {
	if w.maxVal == w.minVal {
		return w.minVal
	}
	return w.minVal + r.Intn(w.maxVal-w.minVal+1)
}

// preloadSizes draws the value length of every key's preloaded value.
func preloadSizes(w *workload, seed uint64) []uint16 {
	r := rngFor(seed, w, -1)
	sz := make([]uint16, w.keys)
	for i := range sz {
		sz[i] = uint16(w.drawSize(r))
	}
	return sz
}

// mix returns the stream's GET/PUT/DEL shares.
func mix(s []op) (get, put, del float64) {
	var n [3]int
	for _, o := range s[:streamLen] {
		n[o.kind]++
	}
	return float64(n[opGet]) / streamLen, float64(n[opPut]) / streamLen, float64(n[opDel]) / streamLen
}

// Value integrity. Every value leads with an 8-byte tag derived from its
// key (low 16 bits carry a write sequence) followed by a fixed pattern,
// so a reader detects misdirected, torn or recycled bytes from the value
// alone, whichever client wrote it last.

var pattern = func() []byte {
	p := make([]byte, 8<<10)
	for i := range p {
		p[i] = byte(mix64(uint64(i)))
	}
	return p
}()

func valTag(key uint64) uint64 { return mix64(key^0xC0DEC0DEC0DEC0DE) &^ 0xFFFF }

// fillVal renders key's n-byte value into buf, reusing its capacity.
func fillVal(buf []byte, key uint64, seq, n int) []byte {
	if cap(buf) < n {
		buf = make([]byte, n, 8<<10)
	}
	buf = buf[:n]
	binary.LittleEndian.PutUint64(buf, valTag(key)|uint64(seq&0xFFFF))
	copy(buf[8:], pattern[8:n])
	return buf
}

// valOK reports whether v is a value fillVal could have written for key
// under w's size range.
func (w *workload) valOK(v []byte, key uint64) bool {
	if len(v) < w.minVal || len(v) > w.maxVal {
		return false
	}
	return binary.LittleEndian.Uint64(v)&^0xFFFF == valTag(key) && bytes.Equal(v[8:], pattern[8:len(v)])
}
