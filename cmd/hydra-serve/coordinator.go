package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"hydra"
	"hydra/internal/faultpoint"
)

// The coordinator is hydra-serve's scatter-gather mode (-shards): one
// collection split across N shard servers (each started with -shard i/n),
// every query fanned out to all of them over HTTP and the per-shard top-k
// answers merged through hydra.Gather. Because the shards partition the
// collection and each returns its local top-k with globally remapped IDs,
// the merge is bit-identical to a single whole-collection engine whenever
// every shard answers.
//
// The fan-out path is hardened end to end:
//
//   - every shard call runs under its own per-attempt deadline
//     (-shard-timeout) with up to -shard-retries retries under exponential
//     backoff + jitter;
//   - a hedged duplicate is launched when a call outlives the shard's
//     observed p99 latency (-hedge-after 0 = adaptive; a fixed duration
//     pins it; negative disables). First success wins, the loser is
//     cancelled, and the Gather fold-once-per-source rule makes
//     double-counting structurally impossible;
//   - a per-shard circuit breaker (-breaker-failures/-breaker-cooldown)
//     skips shards that keep failing, and a background /readyz prober
//     (-probe-interval) feeds the same breaker so a recovered shard is
//     re-admitted without burning a client request on the discovery;
//   - quorum semantics: if at least -min-shards answered, the merged
//     best-so-far is returned with "partial":true and a per-shard status
//     block; below quorum the query fails 503 + Retry-After;
//   - a query of the wrong length is answered 400 before any shard is
//     called, once the prober has learned the fleet's series length from
//     a shard's /healthz; a batch is refused so when every entry is wrong;
//   - any other request every shard refuses (a 4xx other than 429, e.g. an
//     unknown mode) is relayed as that 4xx, and a refusal never counts
//     against a shard's breaker.
//
// The rpc/* faultpoints (error, slow, drop, flap) are compiled into the
// client-side attempt path — each retry and hedge traverses them
// independently — so the whole degradation ladder is drillable from tests
// and HYDRA_FAULTPOINTS. The background prober deliberately bypasses them:
// drills shape query traffic, while recovery tracks the shard's real
// health, keeping "disarm ⇒ exact answers again" deterministic.
//
// Coordinator stats aggregation: the per-query cost counters of answering
// shards are summed (the coordinator does not recompute derived ratios such
// as pruning, which need whole-collection totals the shards own).

// coordConfig carries the coordinator's fan-out policy, one field per flag.
type coordConfig struct {
	timeout       time.Duration // whole-request deadline (0 = none)
	shardTimeout  time.Duration // per-attempt deadline for one shard call
	retries       int           // extra attempts per shard call after the first
	retryBackoff  time.Duration // base backoff before the first retry
	hedgeAfter    time.Duration // 0 = adaptive p99, <0 = hedging off
	minShards     int           // quorum: fewer answers fail the request
	breakerFails  int           // consecutive failures that open a breaker
	breakerCool   time.Duration // open-breaker cooldown before a half-open trial
	probeInterval time.Duration // background /readyz probe period
	maxInFlight   int           // admitted query requests at once (0 = unlimited)
	accessLog     bool
}

// shardClient is the coordinator's view of one shard server: its address,
// circuit breaker, latency history (for the adaptive hedge delay), and
// cumulative fan-out counters.
type shardClient struct {
	addr string
	hc   *http.Client
	br   *breaker
	lat  *latencyRing

	requests      atomic.Int64 // shard calls attempted (post-breaker)
	failures      atomic.Int64 // shard calls that exhausted every attempt
	retries       atomic.Int64 // retry attempts launched
	hedges        atomic.Int64 // hedged duplicates launched
	probeFailures atomic.Int64 // background probe failures
}

// coordinator is the scatter-gather front end; it embeds the same admission
// gate as the single-engine server.
type coordinator struct {
	*gate
	cfg        coordConfig
	shards     []*shardClient
	started    time.Time
	queryStats endpointStats // /query + /batch traffic for /statusz
	// seriesLen is the fleet's series length, learned from a shard's
	// /healthz by the prober (0 until then). With it, a wrong-length query
	// is refused before any shard is called.
	seriesLen atomic.Int64
}

// newCoordinator builds the shard client pool. Addresses without a scheme
// get "http://"; all clients share one transport so idle connections are
// pooled per shard.
func newCoordinator(addrs []string, cfg coordConfig) *coordinator {
	if cfg.minShards < 1 {
		cfg.minShards = 1
	}
	tr := &http.Transport{MaxIdleConnsPerHost: 64}
	c := &coordinator{gate: newGate(cfg.timeout, cfg.maxInFlight), cfg: cfg, started: time.Now()}
	for i, addr := range addrs {
		addr = strings.TrimRight(strings.TrimSpace(addr), "/")
		if !strings.Contains(addr, "://") {
			addr = "http://" + addr
		}
		c.shards = append(c.shards, &shardClient{
			addr: addr,
			hc:   &http.Client{Transport: tr},
			br:   newBreaker(cfg.breakerFails, cfg.breakerCool, int64(i+1)),
			lat:  &latencyRing{},
		})
	}
	return c
}

func (c *coordinator) handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/query", c.admitted(c.handleQuery))
	mux.HandleFunc("/batch", c.admitted(c.handleBatch))
	mux.HandleFunc("/healthz", c.handleHealthz)
	mux.HandleFunc("/readyz", c.handleReadyz)
	mux.HandleFunc("/statusz", c.handleStatusz)
	return identify(recovered(mux), c.cfg.accessLog)
}

// shardStatusJSON is one shard's outcome inside a coordinator response: how
// the fan-out to it went and where its breaker stands. State is "ok"
// (answered), "failed" (every attempt failed) or "skipped" (breaker open —
// the shard was not asked).
type shardStatusJSON struct {
	Addr    string `json:"addr"`
	State   string `json:"state"`
	Error   string `json:"error,omitempty"`
	Retries int64  `json:"retries,omitempty"`
	Hedged  bool   `json:"hedged,omitempty"`
	Breaker string `json:"breaker"`
}

// scatter fans one request body out to every shard and returns the raw 200
// bodies (nil for shards that failed or were skipped) plus the per-shard
// status block. refusal is set when every shard refused the request itself
// (a 4xx other than 429): it is the first shard's answer, for the handler
// to relay — the request is at fault, not the fleet.
func (c *coordinator) scatter(ctx context.Context, path string, body []byte, rid string) (raws [][]byte, statuses []shardStatusJSON, refusal *shardHTTPError) {
	raws = make([][]byte, len(c.shards))
	statuses = make([]shardStatusJSON, len(c.shards))
	errs := make([]error, len(c.shards))
	var wg sync.WaitGroup
	for i, sc := range c.shards {
		wg.Add(1)
		go func(i int, sc *shardClient) {
			defer wg.Done()
			raws[i], statuses[i], errs[i] = c.callShard(ctx, sc, path, body, rid)
		}(i, sc)
	}
	wg.Wait()
	for i, err := range errs {
		if err == nil || retriable(err) {
			return raws, statuses, nil
		}
		if i == 0 {
			errors.As(err, &refusal)
		}
	}
	return raws, statuses, refusal
}

// callShard runs one shard call end to end: breaker admission, the
// retry/hedge exchange, counter updates, status block. A skipped shard
// returns neither a body nor an error.
func (c *coordinator) callShard(ctx context.Context, sc *shardClient, path string, body []byte, rid string) ([]byte, shardStatusJSON, error) {
	st := shardStatusJSON{Addr: sc.addr}
	if !sc.br.allow(time.Now()) {
		st.State = "skipped"
		st.Error = "circuit breaker open"
		st.Breaker, _ = sc.br.snapshot()
		return nil, st, nil
	}
	sc.requests.Add(1)
	raw, retries, hedged, err := c.exchange(ctx, sc, path, body, rid)
	st.Retries = retries
	st.Hedged = hedged
	if err != nil {
		sc.failures.Add(1)
		st.State = "failed"
		st.Error = err.Error()
	} else {
		st.State = "ok"
	}
	st.Breaker, _ = sc.br.snapshot()
	return raw, st, err
}

// exchange races the primary attempt loop against an optional hedged
// duplicate: the hedge launches when the primary outlives the hedge delay,
// the first success wins and cancels the other copy. Each copy runs its own
// retry loop, so a hedge is a genuinely independent second path to the
// shard, not a shared fate.
func (c *coordinator) exchange(parent context.Context, sc *shardClient, path string, body []byte, rid string) (raw []byte, retries int64, hedged bool, err error) {
	ctx, cancel := context.WithCancel(parent)
	defer cancel()
	var retryCount atomic.Int64
	type res struct {
		raw []byte
		err error
	}
	ch := make(chan res, 2)
	run := func() {
		r, e := c.attempts(ctx, sc, path, body, rid, &retryCount)
		ch <- res{r, e}
	}
	go run()
	var hedgeTimer <-chan time.Time
	if d := c.hedgeDelay(sc); d >= 0 {
		hedgeTimer = time.After(d)
	}
	pending := 1
	var lastErr error
	for {
		select {
		case r := <-ch:
			if r.err == nil {
				return r.raw, retryCount.Load(), hedged, nil
			}
			lastErr = r.err
			if pending--; pending == 0 {
				return nil, retryCount.Load(), hedged, lastErr
			}
		case <-hedgeTimer:
			hedgeTimer = nil
			hedged = true
			sc.hedges.Add(1)
			pending++
			go run()
		}
	}
}

// hedgeDelay resolves when to launch the hedged duplicate for this shard:
// fixed when configured, otherwise the shard's observed p99 (bounded by the
// per-attempt timeout; a quarter of it before any history exists), -1 when
// hedging is off.
func (c *coordinator) hedgeDelay(sc *shardClient) time.Duration {
	switch {
	case c.cfg.hedgeAfter < 0:
		return -1
	case c.cfg.hedgeAfter > 0:
		return c.cfg.hedgeAfter
	}
	d := sc.lat.quantile(0.99)
	if d <= 0 {
		d = c.cfg.shardTimeout / 4
	}
	if c.cfg.shardTimeout > 0 && d > c.cfg.shardTimeout {
		d = c.cfg.shardTimeout
	}
	return d
}

// attempts is one copy's retry loop: up to 1+retries tries, each under its
// own per-attempt deadline, separated by exponential backoff with full
// jitter. Non-retriable failures (a shard's 4xx — resending the same bad
// request cannot succeed) stop the loop early.
func (c *coordinator) attempts(ctx context.Context, sc *shardClient, path string, body []byte, rid string, retryCount *atomic.Int64) ([]byte, error) {
	backoff := c.cfg.retryBackoff
	if backoff <= 0 {
		backoff = time.Millisecond
	}
	var lastErr error
	for attempt := 0; ; attempt++ {
		raw, err := c.attempt(ctx, sc, path, body, rid)
		if err == nil {
			return raw, nil
		}
		lastErr = err
		// A dead exchange context means this copy lost (or the request is
		// over): retrying would only burn attempts against a result nobody
		// will read.
		if !retriable(err) || ctx.Err() != nil || attempt >= c.cfg.retries {
			return nil, lastErr
		}
		retryCount.Add(1)
		sc.retries.Add(1)
		delay := backoff + time.Duration(rand.Int63n(int64(backoff)))
		backoff *= 2
		select {
		case <-ctx.Done():
			return nil, lastErr
		case <-time.After(delay):
		}
	}
}

// attempt is a single HTTP try against the shard under the per-attempt
// deadline. The rpc/* faultpoints fire here, client-side, before the wire —
// each retry and hedge traverses them independently, which is what makes
// the drills exercise the retry/hedge/breaker machinery rather than a
// single shot. Every outcome feeds the breaker; successes also feed the
// latency ring behind adaptive hedging. A shard's refusal of the request
// itself (a non-retriable 4xx) counts as a breaker success: the shard
// answered, so one client's bad requests cannot open the fleet's breakers.
func (c *coordinator) attempt(ctx context.Context, sc *shardClient, path string, body []byte, rid string) ([]byte, error) {
	actx := ctx
	if c.cfg.shardTimeout > 0 {
		var cancel context.CancelFunc
		actx, cancel = context.WithTimeout(ctx, c.cfg.shardTimeout)
		defer cancel()
	}
	start := time.Now()
	raw, err := func() ([]byte, error) {
		if err := faultpoint.Err(faultpoint.RPCError); err != nil {
			return nil, err
		}
		if err := faultpoint.Flap(faultpoint.RPCFlap); err != nil {
			return nil, err
		}
		faultpoint.Delay(faultpoint.RPCSlow)
		if err := faultpoint.Drop(faultpoint.RPCDrop, actx); err != nil {
			return nil, err
		}
		req, err := http.NewRequestWithContext(actx, http.MethodPost, sc.addr+path, bytes.NewReader(body))
		if err != nil {
			return nil, err
		}
		req.Header.Set("Content-Type", "application/json")
		if rid != "" {
			req.Header.Set(requestIDHeader, rid)
		}
		resp, err := sc.hc.Do(req)
		if err != nil {
			return nil, err
		}
		defer resp.Body.Close()
		data, err := io.ReadAll(io.LimitReader(resp.Body, maxRequestBytes))
		if err != nil {
			return nil, err
		}
		if resp.StatusCode != http.StatusOK {
			return nil, &shardHTTPError{status: resp.StatusCode, msg: shardErrMsg(data)}
		}
		return data, nil
	}()
	if err != nil {
		// A cancelled attempt — the losing hedge copy after its sibling won,
		// or the client going away — says nothing about the shard's health;
		// only failures of a still-wanted attempt feed the breaker.
		// (ctx here is the exchange context, cancelled on first success; the
		// per-attempt deadline expiring leaves it live, so real timeouts
		// still count.)
		if !retriable(err) {
			sc.br.success()
		} else if ctx.Err() == nil {
			sc.br.failure(time.Now())
		}
		return nil, err
	}
	sc.br.success()
	sc.lat.add(time.Since(start))
	return raw, nil
}

// shardHTTPError is a non-200 shard answer, carrying the status that
// decides retriability.
type shardHTTPError struct {
	status int
	msg    string
}

func (e *shardHTTPError) Error() string {
	if e.msg == "" {
		return fmt.Sprintf("shard answered %d", e.status)
	}
	return fmt.Sprintf("shard answered %d: %s", e.status, e.msg)
}

// retriable reports whether a failed attempt is worth retrying: network
// errors, timeouts, injected faults and shard 5xx all are; a shard 4xx is
// the request's own fault and would fail identically on every retry.
func retriable(err error) bool {
	var she *shardHTTPError
	if errors.As(err, &she) {
		return she.status >= 500 || she.status == http.StatusTooManyRequests
	}
	return true
}

// shardErrMsg extracts the shard's JSON error message from a non-200 body,
// falling back to a trimmed raw prefix.
func shardErrMsg(data []byte) string {
	var er errorResponse
	if json.Unmarshal(data, &er) == nil && er.Error != "" {
		return er.Error
	}
	s := strings.TrimSpace(string(data))
	if len(s) > 120 {
		s = s[:120]
	}
	return s
}

// handleQuery fans one query out to every shard and merges the per-shard
// top-k through hydra.Gather. All shards answered: the merge is exactly the
// whole-collection answer. Every shard refused the request (a 4xx): the
// first shard's status and message are relayed, without Retry-After. Some
// failed but quorum held: merged best-so-far, "partial":true, per-shard
// status attached. Below quorum: 503 + Retry-After with the status block
// in the error body.
func (c *coordinator) handleQuery(w http.ResponseWriter, r *http.Request) {
	var req queryRequest
	if !readJSON(w, r, &req) {
		return
	}
	done := c.queryStats.track()
	defer done()
	if msg := c.lengthRefusal(req.Query); msg != "" {
		writeError(w, r, http.StatusBadRequest, msg)
		return
	}
	if req.K <= 0 {
		req.K = 1
	}
	body, err := json.Marshal(req)
	if err != nil {
		writeError(w, r, http.StatusBadRequest, fmt.Sprintf("bad request: %v", err))
		return
	}
	ctx, cancel := c.requestContext(r)
	defer cancel()
	raws, statuses, refusal := c.scatter(ctx, "/query", body, requestID(r))
	if refusal != nil {
		writeError(w, r, refusal.status, refusal.msg)
		return
	}

	g := hydra.NewGather(req.K)
	var agg statsJSON
	answered, partial := 0, false
	for i, raw := range raws {
		if raw == nil {
			continue
		}
		var qr queryResponse
		if err := json.Unmarshal(raw, &qr); err != nil {
			statuses[i].State = "failed"
			statuses[i].Error = fmt.Sprintf("bad shard response: %v", err)
			continue
		}
		answered++
		if qr.Partial {
			partial = true
		}
		matches := make([]hydra.Match, len(qr.Matches))
		for j, m := range qr.Matches {
			matches[j] = hydra.Match{ID: m.ID, Dist: m.Dist}
		}
		g.Fold(c.shards[i].addr, matches)
		addStats(&agg, qr.Stats)
	}
	if answered < c.cfg.minShards {
		c.writeQuorumError(w, r, answered, statuses)
		return
	}
	if answered < len(c.shards) {
		partial = true
	}
	writeJSON(w, http.StatusOK, queryResponse{
		Matches: toMatchJSON(g.Results(), 0),
		Partial: partial,
		Stats:   agg,
		Shards:  statuses,
	})
}

// handleBatch fans the whole batch out to every shard and merges each
// query's per-shard answers independently, preserving the single-engine
// batch contract: queries are isolated, one query's failure never voids its
// siblings.
func (c *coordinator) handleBatch(w http.ResponseWriter, r *http.Request) {
	var req batchRequest
	if !readJSON(w, r, &req) {
		return
	}
	done := c.queryStats.track()
	defer done()
	if msg := c.lengthRefusal(req.Queries...); msg != "" {
		writeError(w, r, http.StatusBadRequest, msg)
		return
	}
	if req.K <= 0 {
		req.K = 1
	}
	body, err := json.Marshal(req)
	if err != nil {
		writeError(w, r, http.StatusBadRequest, fmt.Sprintf("bad request: %v", err))
		return
	}
	ctx, cancel := c.requestContext(r)
	defer cancel()
	raws, statuses, refusal := c.scatter(ctx, "/batch", body, requestID(r))
	if refusal != nil {
		writeError(w, r, refusal.status, refusal.msg)
		return
	}

	perShard := make([]*batchResponse, len(raws))
	answered := 0
	for i, raw := range raws {
		if raw == nil {
			continue
		}
		var br batchResponse
		if err := json.Unmarshal(raw, &br); err != nil || len(br.Results) != len(req.Queries) {
			statuses[i].State = "failed"
			statuses[i].Error = "bad shard response: result count mismatch"
			continue
		}
		perShard[i] = &br
		answered++
	}
	if answered < c.cfg.minShards {
		c.writeQuorumError(w, r, answered, statuses)
		return
	}
	results := make([]batchResult, len(req.Queries))
	for qi := range req.Queries {
		g := hydra.NewGather(req.K)
		folded, firstErr := 0, ""
		for i, br := range perShard {
			if br == nil {
				continue
			}
			res := br.Results[qi]
			if res.Error != "" {
				if firstErr == "" {
					firstErr = res.Error
				}
				continue
			}
			matches := make([]hydra.Match, len(res.Matches))
			for j, m := range res.Matches {
				matches[j] = hydra.Match{ID: m.ID, Dist: m.Dist}
			}
			g.Fold(c.shards[i].addr, matches)
			folded++
		}
		if folded == 0 {
			if firstErr == "" {
				firstErr = "no shard answered"
			}
			results[qi] = batchResult{Error: firstErr}
			continue
		}
		results[qi] = batchResult{Matches: toMatchJSON(g.Results(), 0)}
	}
	writeJSON(w, http.StatusOK, batchResponse{
		Results: results,
		Partial: answered < len(c.shards),
		Shards:  statuses,
	})
}

// lengthRefusal returns the 400 message for queries that every shard would
// refuse for their length, so that they are answered before any shard is
// called: every one of them has a length other than the fleet's series
// length. It returns "" until the prober has learned that length, and for
// a batch with any right-length entry — that batch fans out, and the shards
// answer its wrong entries one by one, as a single server does.
func (c *coordinator) lengthRefusal(queries ...[]float32) string {
	want := c.seriesLen.Load()
	if want == 0 || len(queries) == 0 {
		return ""
	}
	for _, q := range queries {
		if int64(len(q)) == want {
			return ""
		}
	}
	return fmt.Sprintf("bad request: query length %d, collection length %d", len(queries[0]), want)
}

// writeQuorumError answers a below-quorum fan-out: 503 with jittered
// Retry-After and the per-shard status block, so the client sees both that
// it should come back and why the quorum failed.
func (c *coordinator) writeQuorumError(w http.ResponseWriter, r *http.Request, answered int, statuses []shardStatusJSON) {
	w.Header().Set("Retry-After", retryAfterJitter(retryAfterSpread))
	writeJSON(w, http.StatusServiceUnavailable, errorResponse{
		Error:     fmt.Sprintf("quorum failed: %d/%d shards answered (min %d)", answered, len(c.shards), c.cfg.minShards),
		RequestID: requestID(r),
		Shards:    statuses,
	})
}

// addStats sums the shard's per-query cost counters into the aggregate;
// identity fields (device, mode) are taken from the first answering shard.
func addStats(agg *statsJSON, s statsJSON) {
	agg.DistCalcs += s.DistCalcs
	agg.LBCalcs += s.LBCalcs
	agg.Examined += s.Examined
	agg.SeqOps += s.SeqOps
	agg.RandOps += s.RandOps
	agg.CPUMicros += s.CPUMicros
	agg.SimMicros += s.SimMicros
	agg.NodesVisited += s.NodesVisited
	if agg.DeviceModel == "" {
		agg.DeviceModel = s.DeviceModel
	}
	if agg.Mode == "" {
		agg.Mode = s.Mode
		agg.Epsilon = s.Epsilon
		agg.Delta = s.Delta
	}
	if agg.EarlyStop == "" {
		agg.EarlyStop = s.EarlyStop
	}
}

// coordHealthzResponse is the coordinator's /healthz body: topology facts
// and how many shards its breakers would currently admit.
type coordHealthzResponse struct {
	Status    string `json:"status"`
	Mode      string `json:"mode"`
	Shards    int    `json:"shards"`
	Available int    `json:"available"`
	MinShards int    `json:"min_shards"`
	UptimeSec int64  `json:"uptime_sec"`
}

func (c *coordinator) available(now time.Time) int {
	n := 0
	for _, sc := range c.shards {
		if sc.br.ready(now) {
			n++
		}
	}
	return n
}

func (c *coordinator) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, r, http.StatusMethodNotAllowed, "GET only")
		return
	}
	writeJSON(w, http.StatusOK, coordHealthzResponse{
		Status:    "ok",
		Mode:      "coordinator",
		Shards:    len(c.shards),
		Available: c.available(time.Now()),
		MinShards: c.cfg.minShards,
		UptimeSec: int64(time.Since(c.started).Seconds()),
	})
}

// handleReadyz reports whether the coordinator can currently meet its
// quorum: 503 while draining or while fewer than -min-shards shards are
// admissible, 200 otherwise.
func (c *coordinator) handleReadyz(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, r, http.StatusMethodNotAllowed, "GET only")
		return
	}
	avail := c.available(time.Now())
	resp := coordHealthzResponse{
		Status:    "ready",
		Mode:      "coordinator",
		Shards:    len(c.shards),
		Available: avail,
		MinShards: c.cfg.minShards,
		UptimeSec: int64(time.Since(c.started).Seconds()),
	}
	switch {
	case c.draining.Load():
		resp.Status = "draining"
		writeJSON(w, http.StatusServiceUnavailable, resp)
	case avail < c.cfg.minShards:
		resp.Status = "degraded"
		writeJSON(w, http.StatusServiceUnavailable, resp)
	default:
		writeJSON(w, http.StatusOK, resp)
	}
}

// statuszResponse is the coordinator's /statusz body: its own query block,
// the one server mode renders, then cumulative fan-out counters and latency
// quantiles per shard — the numbers hydraload records next to its tail
// latencies.
type statuszResponse struct {
	Mode      string             `json:"mode"`
	UptimeSec int64              `json:"uptime_sec"`
	Query     *endpointStatsJSON `json:"query,omitempty"`
	Shards    []shardStatJSON    `json:"shards"`
}

type shardStatJSON struct {
	Addr          string `json:"addr"`
	Breaker       string `json:"breaker"`
	Requests      int64  `json:"requests"`
	Failures      int64  `json:"failures"`
	Retries       int64  `json:"retries"`
	Hedges        int64  `json:"hedges"`
	BreakerOpens  int64  `json:"breaker_opens"`
	ProbeFailures int64  `json:"probe_failures"`
	P50Micros     int64  `json:"p50_us"`
	P99Micros     int64  `json:"p99_us"`
}

func (c *coordinator) handleStatusz(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, r, http.StatusMethodNotAllowed, "GET only")
		return
	}
	resp := statuszResponse{
		Mode:      "coordinator",
		UptimeSec: int64(time.Since(c.started).Seconds()),
		Query:     c.queryStats.snapshot(),
	}
	for _, sc := range c.shards {
		state, opens := sc.br.snapshot()
		resp.Shards = append(resp.Shards, shardStatJSON{
			Addr:          sc.addr,
			Breaker:       state,
			Requests:      sc.requests.Load(),
			Failures:      sc.failures.Load(),
			Retries:       sc.retries.Load(),
			Hedges:        sc.hedges.Load(),
			BreakerOpens:  opens,
			ProbeFailures: sc.probeFailures.Load(),
			P50Micros:     sc.lat.quantile(0.50).Microseconds(),
			P99Micros:     sc.lat.quantile(0.99).Microseconds(),
		})
	}
	writeJSON(w, http.StatusOK, resp)
}

// probeLoop runs the background health prober until ctx is cancelled: at
// start and then every probeInterval, each shard's /readyz is checked and
// the result fed to its breaker. This is the recovery path — an open
// breaker closes the moment a probe succeeds after the cooldown, without
// spending a client request on the half-open trial.
func (c *coordinator) probeLoop(ctx context.Context) {
	t := time.NewTicker(c.cfg.probeInterval)
	defer t.Stop()
	for {
		c.probeOnce(ctx)
		select {
		case <-ctx.Done():
			return
		case <-t.C:
		}
	}
}

// probeOnce checks every shard's /readyz concurrently, and learns the
// fleet's series length from the /healthz of a ready shard while it is
// unknown. Probes bypass the rpc/* faultpoints on purpose: drills shape
// query traffic while recovery follows the shard's real health (see the
// package comment above).
func (c *coordinator) probeOnce(ctx context.Context) {
	var wg sync.WaitGroup
	for _, sc := range c.shards {
		wg.Add(1)
		go func(sc *shardClient) {
			defer wg.Done()
			c.probe(ctx, sc)
		}(sc)
	}
	wg.Wait()
}

func (c *coordinator) probe(ctx context.Context, sc *shardClient) {
	timeout := c.cfg.shardTimeout
	if timeout <= 0 {
		timeout = time.Second
	}
	pctx, cancel := context.WithTimeout(ctx, timeout)
	defer cancel()
	req, err := http.NewRequestWithContext(pctx, http.MethodGet, sc.addr+"/readyz", nil)
	if err != nil {
		return
	}
	resp, err := sc.hc.Do(req)
	if err != nil {
		sc.probeFailures.Add(1)
		sc.br.failure(time.Now())
		return
	}
	_, _ = io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		sc.probeFailures.Add(1)
		sc.br.failure(time.Now())
		return
	}
	sc.br.success()
	if c.seriesLen.Load() == 0 {
		c.learnSeriesLen(pctx, sc)
	}
}

// learnSeriesLen reads the series length from the shard's /healthz. A
// failed read leaves it unknown for the next probe to learn.
func (c *coordinator) learnSeriesLen(ctx context.Context, sc *shardClient) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, sc.addr+"/healthz", nil)
	if err != nil {
		return
	}
	resp, err := sc.hc.Do(req)
	if err != nil {
		return
	}
	defer resp.Body.Close()
	var h healthzResponse
	if resp.StatusCode == http.StatusOK && json.NewDecoder(io.LimitReader(resp.Body, 4096)).Decode(&h) == nil && h.SeriesLen > 0 {
		c.seriesLen.Store(int64(h.SeriesLen))
	}
}

// latencyRing is a fixed-size ring of recent successful-attempt latencies,
// the history behind the adaptive (p99-derived) hedge delay and the
// /statusz quantiles.
type latencyRing struct {
	mu  sync.Mutex
	buf [128]time.Duration
	n   int // filled entries
	i   int // next write position
}

func (l *latencyRing) add(d time.Duration) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.buf[l.i] = d
	l.i = (l.i + 1) % len(l.buf)
	if l.n < len(l.buf) {
		l.n++
	}
}

// quantile returns the q-th latency quantile over the ring (0 before any
// sample).
func (l *latencyRing) quantile(q float64) time.Duration {
	l.mu.Lock()
	s := make([]time.Duration, l.n)
	copy(s, l.buf[:l.n])
	l.mu.Unlock()
	if len(s) == 0 {
		return 0
	}
	sort.Slice(s, func(a, b int) bool { return s[a] < s[b] })
	idx := int(q * float64(len(s)))
	if idx >= len(s) {
		idx = len(s) - 1
	}
	return s[idx]
}
