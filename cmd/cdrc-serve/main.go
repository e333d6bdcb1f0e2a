// cdrc-serve runs the internal/server key→value store as a standalone
// process: a sharded collections.Map behind the line protocol described
// in internal/server/proto.go, with the shard handle pool sized against
// the pid registries and explicit -BUSY backpressure.
//
// Talk to it with cmd/cdrc-load, or by hand:
//
//	$ go run ./cmd/cdrc-serve -addr 127.0.0.1:7070 -obs &
//	$ printf 'PUT 1 100\nGET 1\nSTATS\n' | nc 127.0.0.1 7070
//
// SIGINT/SIGTERM trigger an orderly shutdown: in-flight pipelined
// requests are drained (each claimed ring entry gets its reply or a
// -BUSY before the socket closes) and, in cluster mode, the replication
// logs are replayed to the replicas. The process exits non-zero if the
// storage engine fails to reach full reclamation (Live() != 0).
//
// Cache mode (DESIGN.md §11): -cache turns the store into a TTL cache —
// SETEX/GETEX/EXPIRE/CACHESTATS come online, PUT means SETEX-forever,
// and when -arena-cap is hit writes evict instead of replying -BUSY:
//
//	$ go run ./cmd/cdrc-serve -cache -arena-cap 4096 &
//	$ printf 'SETEX 1 5000 100\nGETEX 1 5000\nCACHESTATS\n' | nc 127.0.0.1 7070
//
// Cluster mode (DESIGN.md §9): start one process per node with the same
// -peers list and a distinct -node-id; each node's -addr must match its
// own entry in -peers. For example, a two-node cluster:
//
//	$ go run ./cmd/cdrc-serve -addr 127.0.0.1:7070 -peers 127.0.0.1:7070,127.0.0.1:7071 -node-id 0 &
//	$ go run ./cmd/cdrc-serve -addr 127.0.0.1:7071 -peers 127.0.0.1:7070,127.0.0.1:7071 -node-id 1 &
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"

	"cdrc/internal/obs"
	"cdrc/internal/server"
)

func main() {
	var (
		addr     = flag.String("addr", "127.0.0.1:7070", "TCP listen address")
		shards   = flag.Int("shards", 4, "map shards (rounded up to a power of two)")
		workers  = flag.Int("workers", 8, "shard handle pool size: threads attached to the store, i.e. pids, split across shards")
		keys     = flag.Int("keys", 1<<16, "expected resident keys across all shards")
		arenaCap = flag.Uint64("arena-cap", 0, "per-shard arena slot cap (0 = unbounded; beyond it PUT replies -BUSY)")
		queue    = flag.Int("queue", 0, "per-shard admission bound in requests (0 = default)")
		pipe     = flag.Int("max-pipeline", 0, "per-connection pipeline window (0 = default 64)")
		debug    = flag.Bool("debug-checks", false, "arm arena use-after-free panics")
		obsOn    = flag.Bool("obs", false, "enable observability (STATS returns live metrics)")
		peers    = flag.String("peers", "", "comma-separated node addresses in node-id order (enables replicated cluster mode)")
		nodeID   = flag.Int("node-id", 0, "this node's index into -peers")
		idle     = flag.Duration("idle-timeout", 0, "close connections idle longer than this (0 = never)")
		cacheOn  = flag.Bool("cache", false, "cache mode: SETEX/GETEX/EXPIRE with TTLs and eviction instead of -BUSY when -arena-cap is hit (DESIGN.md §11)")
		sweep    = flag.Duration("sweep-interval", 0, "cache mode: background expiry sweep period (0 = default 5ms, negative = no sweeper)")
	)
	flag.Parse()

	if *obsOn {
		obs.Enable()
	}
	var peerList []string
	if *peers != "" {
		peerList = strings.Split(*peers, ",")
	}
	srv, err := server.New(server.Config{
		Addr:               *addr,
		Shards:             *shards,
		Workers:            *workers,
		ExpectedKeys:       *keys,
		ArenaCapacity:      *arenaCap,
		QueueDepth:         *queue,
		MaxPipeline:        *pipe,
		DebugChecks:        *debug,
		Peers:              peerList,
		NodeID:             *nodeID,
		IdleTimeout:        *idle,
		CacheMode:          *cacheOn,
		CacheSweepInterval: *sweep,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if len(peerList) > 0 {
		primaries, replicas := 0, 0
		for sh := 0; sh < *shards; sh++ {
			switch *nodeID {
			case server.PrimaryNode(sh, len(peerList)):
				primaries++
			case server.ReplicaNode(sh, len(peerList)):
				replicas++
			}
		}
		fmt.Printf("cdrc-serve: node %d/%d on %s (primary for %d shards, replica for %d)\n",
			*nodeID, len(peerList), srv.Addr(), primaries, replicas)
	} else if *cacheOn {
		fmt.Printf("cdrc-serve: cache mode on %s (shards=%d workers=%d arena-cap=%d obs=%v)\n",
			srv.Addr(), *shards, *workers, *arenaCap, *obsOn)
	} else {
		fmt.Printf("cdrc-serve: listening on %s (shards=%d workers=%d obs=%v)\n",
			srv.Addr(), *shards, *workers, *obsOn)
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	fmt.Println("cdrc-serve: shutting down")
	if err := srv.Close(); err != nil {
		fmt.Fprintf(os.Stderr, "cdrc-serve: %v\n", err)
		os.Exit(1)
	}
	if *obsOn {
		fmt.Print(obs.Snapshot().Text())
	}
	fmt.Println("cdrc-serve: clean shutdown, all nodes reclaimed")
}
