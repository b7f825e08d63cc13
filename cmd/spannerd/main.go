// Command spannerd is the long-running spanner build service: it
// accepts build jobs over HTTP, executes them concurrently on the
// shared CONGEST runtime, streams per-step progress, and drains
// gracefully on SIGTERM — in-flight builds finish or are cancelled at a
// simulated round boundary, never emitting a partial spanner.
//
// Quick start:
//
//	spannerd -addr :8080 &
//	curl -s localhost:8080/v1/jobs -d '{
//	  "graph": {"type": "gnp", "n": 256, "p": 0.0625, "seed": 256, "connected": true},
//	  "eps": 0.3333333333333333, "kappa": 3, "rho": 0.49,
//	  "mode": "distributed"
//	}'
//	curl -s localhost:8080/v1/jobs/j000001          # status + result
//	curl -sN localhost:8080/v1/jobs/j000001/events  # NDJSON step stream
//	curl -s 'localhost:8080/v1/jobs/j000001/query?u=0&v=9'   # one distance
//	printf '{"u":0,"v":9}\n{"u":3,"v":7}\n' |
//	  curl -s localhost:8080/v1/jobs/j000001/query --data-binary @-  # batch
//	curl -s localhost:8080/metrics                  # Prometheus text
//
// With -data-dir the daemon is crash-safe: job lifecycle events are
// journaled and completed spanners snapshotted under the directory, and
// a restart replays them — finished jobs come back with bit-identical
// spanners (and answer queries again), interrupted jobs re-run to the
// same result. Gate traffic on /readyz, which stays 503 until the
// replay finishes:
//
//	spannerd -addr :8080 -data-dir /var/lib/spannerd &
//	kill -9 $!                                      # crash, mid-build or not
//	spannerd -addr :8080 -data-dir /var/lib/spannerd &
//	curl -s localhost:8080/readyz                   # "ready" once recovered
//	curl -s localhost:8080/v1/jobs/j000001          # same job, same fingerprint
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"os"
	"os/signal"
	"syscall"
	"time"

	"nearspan/internal/service"
	"nearspan/internal/store"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintf(os.Stderr, "spannerd: %v\n", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		addr         = flag.String("addr", "127.0.0.1:8080", "listen address")
		queue        = flag.Int("queue", 64, "bounded job queue depth (submissions beyond it get 429)")
		builds       = flag.Int("builds", 2, "concurrent builds")
		schedWorkers = flag.Int("sched-workers", 0, "private scheduler workers (0 = share the process-wide pool)")
		jobTimeout   = flag.Duration("job-timeout", 0, "default per-job wall-clock limit (0 = none)")
		maxTimeout   = flag.Duration("max-job-timeout", 0, "cap on requested per-job timeouts (0 = no cap)")
		drainGrace   = flag.Duration("drain-grace", 10*time.Second, "how long in-flight builds get on SIGTERM before cancellation at a round boundary")
		queryReps    = flag.Int("query-replicas", 0, "query-tier BFS workspaces per finished job (0 = GOMAXPROCS)")
		queryCache   = flag.Int("query-cache", 0, "cached sources per finished job, 4n bytes each (0 = default 64, negative = disabled)")
		dataDir      = flag.String("data-dir", "", "durable state directory: job journal + spanner snapshots, replayed on restart (empty = in-memory only)")
		fsyncMode    = flag.String("fsync", "always", "fsync policy for durable writes: always|never (never trades crash safety for speed)")
	)
	flag.Parse()

	var st *store.Store
	if *dataDir != "" {
		policy, err := store.ParseFsync(*fsyncMode)
		if err != nil {
			return err
		}
		st, err = store.Open(store.Options{Dir: *dataDir, Fsync: policy})
		if err != nil {
			return err
		}
		defer st.Close()
		if damage := st.TailDamage(); damage != nil {
			// A torn tail is the expected signature of a crash mid-append;
			// the intact prefix was recovered and the tear truncated away.
			log.Printf("spannerd: journal tail damage truncated: %v", damage)
		}
		log.Printf("spannerd: durable state in %s (%d journal records, fsync=%s)",
			*dataDir, len(st.Recovered()), *fsyncMode)
	}

	srv := service.New(service.Options{
		QueueDepth:        *queue,
		Builds:            *builds,
		SchedWorkers:      *schedWorkers,
		DefaultTimeout:    *jobTimeout,
		MaxTimeout:        *maxTimeout,
		DrainGrace:        *drainGrace,
		QueryReplicas:     *queryReps,
		QueryCacheSources: *queryCache,
		Store:             st,
	})

	l, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	log.Printf("spannerd: listening on %s (queue %d, builds %d, drain grace %s)",
		l.Addr(), *queue, *builds, *drainGrace)

	// SIGTERM/SIGINT starts the drain: shed new work, finish or cancel
	// in-flight builds at a round boundary, release the pools, exit 0.
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM, os.Interrupt)
	defer stop()
	if err := service.Run(ctx, srv, l); err != nil {
		return err
	}
	log.Printf("spannerd: drained cleanly")
	return nil
}
