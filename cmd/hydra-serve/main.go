// Command hydra-serve exposes a similarity search engine as an HTTP/JSON
// service — the serving front end of the public hydra package, and a proof
// that the library API carries real traffic: the whole binary is built on
// the public surface only.
//
// Usage:
//
//	hydra-serve -data synth.hyd -addr :8080                 # UCR-Suite scan
//	hydra-serve -data synth.hyd -method DSTree -leaf 1000   # build an index, then serve
//	hydra-serve -data synth.hyd -index dstree.hydx          # serve a prebuilt snapshot
//	hydra-serve -data synth.hyd -shard 0/3 -addr :8081      # serve shard 0 of 3
//	hydra-serve -shards :8081,:8082,:8083 -addr :8080       # scatter-gather coordinator
//
// Endpoints:
//
//	POST /query   {"query":[...],"k":1}      one exact k-NN query
//	POST /batch   {"queries":[[...]],"k":1}  a batch; failed queries are isolated
//	POST /ingest  {"series":[[...]]}         durable append (-ingest-dir mode; 200 = acked)
//	GET  /healthz                            liveness + engine/topology facts
//	GET  /readyz                             admission state (503 while draining/degraded)
//	GET  /statusz                            engine + ingestion/WAL counters; per-shard fan-out counters on a coordinator
//
// Every request carries an X-Request-Id (the client's, or a generated one),
// echoed in the response header, JSON error bodies and the access log
// (-access-log=false silences the per-request line).
//
// Both modes run every request under the -timeout per-request deadline (and
// the client-disconnect context), and -max-inflight bounds concurrently
// admitted query requests — excess requests are refused immediately with
// 503 + jittered Retry-After rather than queued into the latency tail.
//
// Single-engine mode: with -partial (the default) a query that overruns its
// deadline answers 200 with the best-so-far matches and "partial":true
// instead of 504; -partial=false restores the hard 504. -shard i/n serves
// only the i-th of n equal slices of the collection, with match IDs
// remapped to full-collection positions — the building block of the
// sharded topology.
//
// Coordinator mode (-shards): the same /query and /batch contract served by
// fanning each request out to N shard servers and merging their top-k
// answers — bit-identical to a single whole-collection engine while every
// shard answers, degrading to merged best-so-far answers marked
// "partial":true (with a per-shard status block) when shards fail, and to
// 503 below the -min-shards quorum. Per-shard calls run under
// -shard-timeout with -shard-retries retries (exponential backoff +
// jitter), hedged duplicates after the shard's observed p99 (-hedge-after),
// and a circuit breaker (-breaker-failures, -breaker-cooldown) fed by a
// background /readyz prober (-probe-interval) that re-admits recovered
// shards.
//
// Durable ingestion (-ingest-dir, single-engine mode with an
// ingest-capable method): POST /ingest appends series through a write-ahead
// log (-wal-sync picks the fsync policy) — a 200 means the batch survives
// kill -9, and the next start replays the log before serving. /statusz
// reports the WAL lag and checkpoint counters.
//
// SIGINT/SIGTERM flip /readyz to 503, drain in-flight requests, then fold
// the WAL into a checkpoint before exit (graceful shutdown). Handler panics
// are recovered, logged, and answered as 500 — one request's failure never
// takes the process down.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"hydra"
)

func main() {
	var (
		dataPath  = flag.String("data", "", "collection file (required except in -shards mode)")
		method    = flag.String("method", "UCR-Suite", "method to build and serve")
		indexPath = flag.String("index", "", "index snapshot to load instead of building")
		addr      = flag.String("addr", ":8080", "listen address")
		timeout   = flag.Duration("timeout", 2*time.Second, "per-request query deadline (0 = none)")
		leafSize  = flag.Int("leaf", 0, "leaf size (0 = paper default scaled to collection)")
		device    = flag.String("device", "hdd", "device profile for reported simulated times: hdd|ssd")
		workers   = flag.Int("workers", 0, "cap on the goroutines one scan query or profile uses (0 = every core, 1 = the paper's serial pass)")
		batchW    = flag.Int("batch-workers", 0, "concurrent queries per /batch request (0 = GOMAXPROCS)")
		inflight  = flag.Int("max-inflight", 0, "max concurrently admitted query requests, in either mode; excess answers 503 (0 = unlimited)")
		partial   = flag.Bool("partial", true, "answer deadline-expired queries with best-so-far results (partial:true) instead of 504")
		accessLog = flag.Bool("access-log", true, "log one access line per request (method, path, status, duration, request ID)")
		shardSpec = flag.String("shard", "", "serve only shard i of n of the collection, as \"i/n\" (match IDs stay global)")
		ingestDir = flag.String("ingest-dir", "", "enable durable ingestion (POST /ingest): WAL + checkpoint directory")
		walSync   = flag.String("wal-sync", "", "WAL fsync policy: \"always\" (default), \"off\", or an interval like \"50ms\"")

		shards       = flag.String("shards", "", "comma-separated shard server addresses; serve as a scatter-gather coordinator instead of one engine")
		minShards    = flag.Int("min-shards", 1, "coordinator: minimum shards that must answer a query; fewer answers 503 instead of a partial merge")
		shardTimeout = flag.Duration("shard-timeout", 500*time.Millisecond, "coordinator: per-attempt deadline for one shard call")
		shardRetries = flag.Int("shard-retries", 2, "coordinator: extra attempts per shard call after the first")
		retryBackoff = flag.Duration("retry-backoff", 20*time.Millisecond, "coordinator: base retry backoff (doubles per retry, plus jitter)")
		hedgeAfter   = flag.Duration("hedge-after", 0, "coordinator: duplicate a slow shard call after this delay (0 = adaptive p99, negative = off)")
		breakerFails = flag.Int("breaker-failures", 3, "coordinator: consecutive failures that open a shard's circuit breaker")
		breakerCool  = flag.Duration("breaker-cooldown", 2*time.Second, "coordinator: open-breaker cooldown before a half-open trial (jittered)")
		probeEvery   = flag.Duration("probe-interval", 250*time.Millisecond, "coordinator: background /readyz probe period feeding the breakers")
	)
	flag.Parse()

	fail := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, "hydra-serve: "+format+"\n", args...)
		os.Exit(1)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if *shards != "" {
		coord := newCoordinator(strings.Split(*shards, ","), coordConfig{
			timeout:       *timeout,
			shardTimeout:  *shardTimeout,
			retries:       *shardRetries,
			retryBackoff:  *retryBackoff,
			hedgeAfter:    *hedgeAfter,
			minShards:     *minShards,
			breakerFails:  *breakerFails,
			breakerCool:   *breakerCool,
			probeInterval: *probeEvery,
			maxInFlight:   *inflight,
			accessLog:     *accessLog,
		})
		go coord.probeLoop(ctx)
		srv := newHTTPServer(*addr, coord.handler())
		errCh := make(chan error, 1)
		go func() { errCh <- srv.ListenAndServe() }()
		fmt.Printf("hydra-serve: coordinator over %d shards on %s (quorum=%d, shard-timeout=%s)\n",
			len(coord.shards), *addr, *minShards, *shardTimeout)
		serveUntilDone(ctx, errCh, srv, coord.startDrain, fail)
		return
	}

	if *dataPath == "" {
		fail("-data is required")
	}
	dev, err := hydra.DeviceByName(*device)
	if err != nil {
		fail("%v", err)
	}
	opts := []hydra.Option{
		hydra.WithDatasetFile(*dataPath),
		hydra.WithDevice(dev),
		hydra.WithWorkers(*workers),
		hydra.WithBatchWorkers(*batchW),
		hydra.WithLeafSize(*leafSize),
	}
	if *partial {
		opts = append(opts, hydra.WithPartialOnDeadline())
	}
	if *ingestDir != "" {
		opts = append(opts, hydra.WithIngestDir(*ingestDir), hydra.WithWALSync(*walSync))
	}
	if *shardSpec != "" {
		index, count, err := parseShardSpec(*shardSpec)
		if err != nil {
			fail("%v", err)
		}
		opts = append(opts, hydra.WithShard(index, count))
	}

	var engine *hydra.Engine
	switch {
	case *indexPath != "":
		engine, err = hydra.LoadIndex(ctx, *indexPath, opts...)
	case *method == "UCR-Suite":
		// The dataset is already configured via WithDatasetFile in opts.
		engine, err = hydra.Open("", opts...)
	default:
		engine, err = hydra.BuildIndex(ctx, *method, opts...)
	}
	if err != nil {
		fail("%v", err)
	}

	app := newServer(engine, *timeout, *inflight)
	app.accessLog = *accessLog
	srv := newHTTPServer(*addr, app.handler())
	errCh := make(chan error, 1)
	go func() { errCh <- srv.ListenAndServe() }()
	placement := ""
	if idx, count, _, sharded := engine.ShardInfo(); sharded {
		placement = fmt.Sprintf(", shard %d/%d", idx, count)
	}
	ingestInfo := ""
	if st, ok := engine.IngestStats(); ok {
		ingestInfo = fmt.Sprintf(", ingest=%s sync=%s recovered=%d", *ingestDir, st.SyncPolicy, st.Recovered)
	}
	fmt.Printf("hydra-serve: %s over %d×%d series on %s (simd=%s, timeout=%s%s%s)\n",
		engine.Method(), engine.Len(), engine.SeriesLen(), *addr, hydra.SIMDBackend(), *timeout, placement, ingestInfo)
	serveUntilDone(ctx, errCh, srv, app.startDrain, fail)

	// Drain-time checkpoint: with the listener down and in-flight requests
	// finished, fold the WAL into a checkpoint so the next start replays
	// nothing. Best effort — a failure leaves the log, which recovery
	// handles; it must not turn a clean drain into a crash.
	if _, ok := engine.IngestStats(); ok {
		if err := engine.Checkpoint(context.Background()); err != nil {
			fmt.Fprintf(os.Stderr, "hydra-serve: drain checkpoint: %v\n", err)
		} else {
			fmt.Fprintln(os.Stderr, "hydra-serve: drain checkpoint written")
		}
		if err := engine.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "hydra-serve: closing ingest log: %v\n", err)
		}
	}
}

// newHTTPServer returns the http.Server both serving modes listen with. A
// client must send its whole request header within 5 s, so one that
// trickles header bytes cannot hold a connection and a goroutine outside
// the admission gate; idle keep-alive connections close after 2 min, and
// headers are capped at 64 KiB.
func newHTTPServer(addr string, h http.Handler) *http.Server {
	return &http.Server{
		Addr:              addr,
		Handler:           h,
		ReadHeaderTimeout: 5 * time.Second,
		IdleTimeout:       2 * time.Minute,
		MaxHeaderBytes:    64 << 10,
	}
}

// serveUntilDone blocks until the listener fails or the signal context
// fires, then runs the graceful drain: not-ready first (/readyz flips to
// 503, new queries are refused), then http.Server.Shutdown over the
// in-flight requests.
func serveUntilDone(ctx context.Context, errCh <-chan error, srv *http.Server, startDrain func(), fail func(string, ...any)) {
	select {
	case err := <-errCh:
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			fail("%v", err)
		}
	case <-ctx.Done():
		fmt.Fprintln(os.Stderr, "hydra-serve: shutting down")
		startDrain()
		drain, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := srv.Shutdown(drain); err != nil {
			fail("shutdown: %v", err)
		}
	}
}

// parseShardSpec parses the -shard "i/n" placement.
func parseShardSpec(spec string) (index, count int, err error) {
	is, ns, ok := strings.Cut(spec, "/")
	if ok {
		var ierr, nerr error
		index, ierr = strconv.Atoi(strings.TrimSpace(is))
		count, nerr = strconv.Atoi(strings.TrimSpace(ns))
		if ierr == nil && nerr == nil && count > 0 && index >= 0 && index < count {
			return index, count, nil
		}
	}
	return 0, 0, fmt.Errorf("bad -shard %q: want \"i/n\" with 0 <= i < n", spec)
}
