package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"net/http"
	"time"

	"hydra"
)

// server is the HTTP front end over one hydra.Engine. It is built entirely
// on the public package — the proof that the library surface carries real
// traffic — and holds no state beyond the engine and the admission gate, so
// one instance serves any number of concurrent requests.
type server struct {
	*gate
	engine  *hydra.Engine
	started time.Time
	// idOffset maps the engine's shard-local match IDs back to positions in
	// the full collection (-shard mode); 0 for a whole-collection engine.
	idOffset int
	// accessLog enables the per-request access log line (on by default;
	// load-test topologies turn it off).
	accessLog bool
	// queryStats / motifStats count the two request families for /statusz:
	// admitted requests, in-flight, and recent p50/p99.
	queryStats endpointStats
	motifStats endpointStats
}

// newServer wires the endpoints: POST /query (one k-NN query), POST /batch
// (many queries, isolated failures), GET /healthz (liveness + engine
// facts), GET /readyz (admission state). maxInFlight bounds concurrently
// admitted query requests; 0 means unlimited. A shard engine (WithShard)
// is served with its match IDs remapped to full-collection positions.
func newServer(e *hydra.Engine, timeout time.Duration, maxInFlight int) *server {
	s := &server{gate: newGate(timeout, maxInFlight), engine: e, started: time.Now()}
	if _, _, offset, sharded := e.ShardInfo(); sharded {
		s.idOffset = offset
	}
	return s
}

func (s *server) handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/query", s.admitted(s.handleQuery))
	mux.HandleFunc("/batch", s.admitted(s.handleBatch))
	mux.HandleFunc("/motif", s.admitted(s.handleMotif))
	mux.HandleFunc("/ingest", s.admitted(s.handleIngest))
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/readyz", s.handleReadyz)
	mux.HandleFunc("/statusz", s.handleStatusz)
	return identify(recovered(mux), s.accessLog)
}

// errorResponse is the JSON body of every refused or failed request that
// does not reach a handler's own response shape. RequestID carries the
// request's identity so a refused client can quote the exact request in a
// bug report or log search.
type errorResponse struct {
	Error     string `json:"error"`
	RequestID string `json:"request_id,omitempty"`
	// Shards carries the coordinator's per-shard outcome block on fan-out
	// failures (quorum refusals), so a refused client sees which shards were
	// down; single-engine servers never set it.
	Shards []shardStatusJSON `json:"shards,omitempty"`
}

// writeError answers a request with a JSON error body carrying the
// request's ID — the one refusal shape of every non-2xx path.
func writeError(w http.ResponseWriter, r *http.Request, status int, msg string) {
	writeJSON(w, status, errorResponse{Error: msg, RequestID: requestID(r)})
}

// retryAfterSpread bounds the jittered Retry-After of refused requests:
// clients are told to come back after 1-3 seconds, each drawing its own
// value, so a refused thundering herd does not re-arrive in lockstep.
const retryAfterSpread = 3

// recovered is the panic boundary shared by the single-engine server and
// the coordinator: a panic escaping any handler (a bug, or an armed
// query/panic faultpoint reaching the single-query path) is logged and
// answered as a 500 JSON error — one request's crash, not the process's.
// The engine holds no per-query mutable state, so serving continues
// unharmed.
func recovered(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		defer func() {
			if p := recover(); p != nil {
				log.Printf("hydra-serve: panic serving %s rid=%s: %v", r.URL.Path, requestID(r), p)
				writeError(w, r, http.StatusInternalServerError, fmt.Sprintf("internal error: %v", p))
			}
		}()
		next.ServeHTTP(w, r)
	})
}

// matchJSON is the wire form of one k-NN answer.
type matchJSON struct {
	ID   int     `json:"id"`
	Dist float64 `json:"dist"`
}

// statsJSON is the wire form of the paper's per-query cost counters, plus
// the answering mode and its guarantee parameters for approximate requests.
type statsJSON struct {
	DistCalcs   int64   `json:"dist_calcs"`
	LBCalcs     int64   `json:"lb_calcs"`
	Examined    int64   `json:"examined"`
	Pruning     float64 `json:"pruning_ratio"`
	SeqOps      int64   `json:"seq_ops"`
	RandOps     int64   `json:"rand_ops"`
	CPUMicros   int64   `json:"cpu_us"`
	SimMicros   int64   `json:"simulated_us"`
	DeviceModel string  `json:"device"`

	NodesVisited int64   `json:"nodes_visited"`
	Mode         string  `json:"mode,omitempty"`
	Epsilon      float64 `json:"epsilon,omitempty"`
	Delta        float64 `json:"delta,omitempty"`
	EarlyStop    string  `json:"early_stop,omitempty"`
}

// approxRequest is the approximate-mode selection shared by /query and
// /batch requests. Empty/zero fields mean the server engine's own mode;
// any set field makes the request fully specify its mode (nothing is
// inherited, so "mode":"exact" forces exactness on any server).
type approxRequest struct {
	// Mode selects the answering mode: "exact", "ng", "delta-eps", "budget"
	// ("" = the server's default).
	Mode string `json:"mode,omitempty"`
	// Epsilon is the "delta-eps" mode's relative distance-error bound ε.
	Epsilon float64 `json:"epsilon,omitempty"`
	// Delta is the "delta-eps" mode's confidence δ ∈ (0, 1]; 0/1 keeps the
	// ε guarantee deterministic.
	Delta float64 `json:"delta,omitempty"`
	// NodeBudget bounds nodes visited ("budget" or "delta-eps" modes).
	NodeBudget int `json:"node_budget,omitempty"`
}

// isZero reports whether the request left every mode field unset.
func (a approxRequest) isZero() bool {
	return a.Mode == "" && a.Epsilon == 0 && a.Delta == 0 && a.NodeBudget == 0
}

// engineFor resolves the engine answering this request: the server's own
// engine when no mode field is set, otherwise one derived for exactly the
// requested mode. Derivation shares the built index — per-request modes
// cost an option parse, not a build.
func (a approxRequest) engineFor(s *server) (*hydra.Engine, error) {
	if a.isZero() {
		return s.engine, nil
	}
	return s.engine.WithQueryOptions(
		hydra.WithApproxMode(a.Mode),
		hydra.WithEpsilon(a.Epsilon),
		hydra.WithDelta(a.Delta),
		hydra.WithNodeBudget(a.NodeBudget),
	)
}

type queryRequest struct {
	Query []float32 `json:"query"`
	K     int       `json:"k"`
	approxRequest
}

type queryResponse struct {
	Matches []matchJSON `json:"matches"`
	Stats   statsJSON   `json:"stats"`
	// Partial marks a degraded answer: the query's deadline expired and
	// Matches holds the best-so-far candidates, not the proven exact top-k.
	// Only ever set when the engine was built with WithPartialOnDeadline
	// (the -partial flag); exact answers omit the field. The coordinator
	// additionally sets it when not every shard answered — the merge is the
	// best-so-far over the shards that did.
	Partial bool `json:"partial,omitempty"`
	// Shards is the coordinator's per-shard outcome block (fan-out state,
	// retries, hedging, breaker state per shard); single-engine servers
	// never set it.
	Shards []shardStatusJSON `json:"shards,omitempty"`
}

type batchRequest struct {
	Queries [][]float32 `json:"queries"`
	K       int         `json:"k"`
	approxRequest
}

// batchResult is one query's outcome inside a batch: Matches on success,
// Error otherwise. Queries are isolated — a failed query never voids its
// siblings' answers (the engine's pinned QueryBatch semantics).
type batchResult struct {
	Matches []matchJSON `json:"matches,omitempty"`
	Error   string      `json:"error,omitempty"`
}

type batchResponse struct {
	Results []batchResult `json:"results"`
	// Partial and Shards mirror queryResponse: coordinator-only degraded-
	// merge marker and per-shard outcome block.
	Partial bool              `json:"partial,omitempty"`
	Shards  []shardStatusJSON `json:"shards,omitempty"`
}

type healthzResponse struct {
	Status    string `json:"status"`
	Method    string `json:"method"`
	Series    int    `json:"series"`
	SeriesLen int    `json:"series_len"`
	SIMD      string `json:"simd"`
	UptimeSec int64  `json:"uptime_sec"`
	// Shard reports this instance's slice of a sharded collection; nil for
	// whole-collection servers.
	Shard *shardInfoJSON `json:"shard,omitempty"`
}

// shardInfoJSON is the placement block a -shard server reports in /healthz.
type shardInfoJSON struct {
	Index  int `json:"index"`
	Count  int `json:"count"`
	Offset int `json:"offset"`
}

func (s *server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, r, http.StatusMethodNotAllowed, "GET only")
		return
	}
	resp := healthzResponse{
		Status:    "ok",
		Method:    s.engine.Method(),
		Series:    s.engine.Len(),
		SeriesLen: s.engine.SeriesLen(),
		SIMD:      hydra.SIMDBackend(),
		UptimeSec: int64(time.Since(s.started).Seconds()),
	}
	if idx, count, offset, sharded := s.engine.ShardInfo(); sharded {
		resp.Shard = &shardInfoJSON{Index: idx, Count: count, Offset: offset}
	}
	writeJSON(w, http.StatusOK, resp)
}

// readyzResponse reports the admission state: whether this instance should
// receive traffic, and how loaded it is (Capacity 0 = unlimited).
type readyzResponse struct {
	Status   string `json:"status"`
	InFlight int    `json:"in_flight"`
	Capacity int    `json:"capacity"`
}

// handleReadyz is the routing signal (distinct from /healthz liveness): 200
// while accepting work, 503 once draining — the first endpoint to go dark
// during shutdown, so balancers stop sending requests that would only be
// refused.
func (s *server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, r, http.StatusMethodNotAllowed, "GET only")
		return
	}
	if s.draining.Load() {
		writeJSON(w, http.StatusServiceUnavailable, readyzResponse{Status: "draining", InFlight: len(s.sem), Capacity: cap(s.sem)})
		return
	}
	writeJSON(w, http.StatusOK, readyzResponse{Status: "ready", InFlight: len(s.sem), Capacity: cap(s.sem)})
}

// ingestRequest is the wire form of POST /ingest: a batch of raw series to
// append durably. The server z-normalizes them like dataset ingestion.
type ingestRequest struct {
	Series [][]float32 `json:"series"`
}

// ingestResponse acknowledges a durable append: when it comes back 200 the
// batch survives kill -9 (per the engine's Append contract and the
// configured -wal-sync policy).
type ingestResponse struct {
	Appended int `json:"appended"`
	Total    int `json:"total"`
}

// handleIngest appends a batch through Engine.Append. It shares the query
// endpoints' admission control (drain and max-in-flight refusals), so an
// overloaded or draining server refuses writes the same honest way it
// refuses reads. Failures are precise: 501 when the server cannot ingest at
// all, 400 for bad input, 500 when the WAL write failed (the batch is
// unacked and recovery will not resurrect it).
func (s *server) handleIngest(w http.ResponseWriter, r *http.Request) {
	req, ok := postBody(w, r, decodeIngest)
	if !ok {
		return
	}
	if _, ok := s.engine.IngestStats(); !ok {
		writeError(w, r, http.StatusNotImplemented, "ingestion not enabled (start with -ingest-dir and an ingest-capable method)")
		return
	}
	if len(req.Series) == 0 {
		writeError(w, r, http.StatusBadRequest, "no series")
		return
	}
	for i, row := range req.Series {
		if len(row) != s.engine.SeriesLen() {
			writeError(w, r, http.StatusBadRequest,
				fmt.Sprintf("series %d has length %d, collection length %d", i, len(row), s.engine.SeriesLen()))
			return
		}
	}
	if err := s.engine.Append(r.Context(), req.Series...); err != nil {
		if errors.Is(err, hydra.ErrIngestUnsupported) {
			writeError(w, r, http.StatusNotImplemented, err.Error())
			return
		}
		writeError(w, r, http.StatusInternalServerError, fmt.Sprintf("append failed (batch not acked): %v", err))
		return
	}
	writeJSON(w, http.StatusOK, ingestResponse{Appended: len(req.Series), Total: s.engine.Len()})
}

// engineStatuszResponse is the single-engine /statusz body (the coordinator
// serves its own fan-out shape on the same path): engine facts plus the
// durable-ingestion counters when -ingest-dir is active.
type engineStatuszResponse struct {
	Method    string           `json:"method"`
	Series    int              `json:"series"`
	UptimeSec int64            `json:"uptime_sec"`
	Ingest    *ingestStatsJSON `json:"ingest,omitempty"`
	// Query counts /query + /batch traffic; Motif counts /motif.
	Query *endpointStatsJSON `json:"query,omitempty"`
	Motif *endpointStatsJSON `json:"motif,omitempty"`
}

// ingestStatsJSON is the wire form of hydra.IngestStats. WALLag* measure
// how far the log has run ahead of the last checkpoint — the number a
// checkpoint cron watches; Checkpoint* measure the checkpoint log those
// checkpoints append to, which only ever grows.
type ingestStatsJSON struct {
	Appended          int64  `json:"appended"`
	Recovered         int64  `json:"recovered"`
	WALLagRecords     int64  `json:"wal_lag_records"`
	WALLagSeries      int64  `json:"wal_lag_series"`
	WALBytes          int64  `json:"wal_bytes"`
	CheckpointRecords int64  `json:"checkpoint_records"`
	CheckpointBytes   int64  `json:"checkpoint_bytes"`
	Syncs             int64  `json:"syncs"`
	Checkpoints       int64  `json:"checkpoints"`
	SyncPolicy        string `json:"sync_policy"`
}

// handleStatusz reports engine state and ingestion/WAL counters; unlike
// /readyz it keeps answering while draining (it is how operators watch the
// drain-time checkpoint land).
func (s *server) handleStatusz(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, r, http.StatusMethodNotAllowed, "GET only")
		return
	}
	resp := engineStatuszResponse{
		Method:    s.engine.Method(),
		Series:    s.engine.Len(),
		UptimeSec: int64(time.Since(s.started).Seconds()),
		Query:     s.queryStats.snapshot(),
		Motif:     s.motifStats.snapshot(),
	}
	if st, ok := s.engine.IngestStats(); ok {
		resp.Ingest = &ingestStatsJSON{
			Appended:          st.Appended,
			Recovered:         st.Recovered,
			WALLagRecords:     st.WALRecords,
			WALLagSeries:      st.WALSeries,
			WALBytes:          st.WALBytes,
			CheckpointRecords: st.CheckpointRecords,
			CheckpointBytes:   st.CheckpointBytes,
			Syncs:             st.Syncs,
			Checkpoints:       st.Checkpoints,
			SyncPolicy:        st.SyncPolicy,
		}
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *server) handleQuery(w http.ResponseWriter, r *http.Request) {
	timing := startTiming()
	req, ok := postBody(w, r, decodeQuery)
	if !ok {
		return
	}
	timing.lap("decode")
	done := s.queryStats.track()
	defer done()
	k := req.K
	if k <= 0 {
		k = 1
	}
	engine, err := req.engineFor(s)
	if err != nil {
		writeError(w, r, http.StatusBadRequest, fmt.Sprintf("bad request: %v", err))
		return
	}
	matches, qs, err := engine.QueryWithStats(r.Context(), req.Query, k)
	if err != nil {
		writeQueryError(w, r, err)
		return
	}
	timing.lap("engine")
	timing.write(w)
	writeJSON(w, http.StatusOK, queryResponse{
		Matches: toMatchJSON(matches, s.idOffset),
		Partial: qs.Partial,
		Stats: statsJSON{
			DistCalcs:   qs.DistCalcs,
			LBCalcs:     qs.LBCalcs,
			Examined:    qs.RawSeriesExamined,
			Pruning:     qs.PruningRatio(),
			SeqOps:      qs.IO.SeqOps,
			RandOps:     qs.IO.RandOps,
			CPUMicros:   qs.CPUTime.Microseconds(),
			SimMicros:   qs.TotalTime(engine.Device()).Microseconds(),
			DeviceModel: engine.Device().Name,

			NodesVisited: qs.NodesVisited,
			Mode:         qs.Mode,
			Epsilon:      qs.Epsilon,
			Delta:        qs.Delta,
			EarlyStop:    qs.EarlyStop,
		},
	})
}

func (s *server) handleBatch(w http.ResponseWriter, r *http.Request) {
	timing := startTiming()
	req, ok := postBody(w, r, decodeBatch)
	if !ok {
		return
	}
	timing.lap("decode")
	done := s.queryStats.track()
	defer done()
	k := req.K
	if k <= 0 {
		k = 1
	}
	engine, err := req.engineFor(s)
	if err != nil {
		writeError(w, r, http.StatusBadRequest, fmt.Sprintf("bad request: %v", err))
		return
	}
	results, errs := engine.QueryBatchErrors(r.Context(), req.Queries, k)
	// An error that voided the whole batch (e.g. the request deadline) is
	// reported at the HTTP level; a batch with any answers returns the
	// per-query split, each failure carrying its own cause.
	if first := firstError(errs); first != nil && allNil(results) {
		writeQueryError(w, r, first)
		return
	}
	resp := batchResponse{Results: make([]batchResult, len(results))}
	for i, m := range results {
		if errs[i] != nil {
			resp.Results[i] = batchResult{Error: errs[i].Error()}
			continue
		}
		resp.Results[i] = batchResult{Matches: toMatchJSON(m, s.idOffset)}
	}
	timing.lap("engine")
	timing.write(w)
	writeJSON(w, http.StatusOK, resp)
}

func firstError(errs []error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// toMatchJSON serializes matches, remapping shard-local IDs to
// full-collection positions by idOffset (0 for whole-collection engines).
func toMatchJSON(matches []hydra.Match, idOffset int) []matchJSON {
	out := make([]matchJSON, len(matches))
	for i, m := range matches {
		out[i] = matchJSON{ID: m.ID + idOffset, Dist: m.Dist}
	}
	return out
}

func allNil(results [][]hydra.Match) bool {
	for _, r := range results {
		if r != nil {
			return false
		}
	}
	return true
}

// maxRequestBytes bounds request bodies (a batch of thousands of length-256
// queries fits comfortably; unbounded bodies do not reach the decoder).
const maxRequestBytes = 64 << 20

func writeQueryError(w http.ResponseWriter, r *http.Request, err error) {
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		writeError(w, r, http.StatusGatewayTimeout, "query deadline exceeded")
	case errors.Is(err, context.Canceled):
		// The client went away; the status is moot but 499-style close-out
		// keeps logs honest.
		writeError(w, r, 499, "request cancelled")
	case errors.Is(err, hydra.ErrQueryPanic), errors.Is(err, hydra.ErrWorkerPanic):
		// A recovered query panic is the server's fault, not the client's.
		writeError(w, r, http.StatusInternalServerError, err.Error())
	default:
		writeError(w, r, http.StatusBadRequest, err.Error())
	}
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	_ = enc.Encode(v)
}
