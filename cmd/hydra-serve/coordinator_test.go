package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"regexp"
	"runtime"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"hydra"
	"hydra/internal/faultpoint"
)

// testShard is one shard server of a test fleet: its engine (for computing
// expectations), its offset into the full collection, an httptest listener,
// and a switch that takes it down (everything answers 503, /readyz
// included, like a draining or dead instance).
type testShard struct {
	engine  *hydra.Engine
	offset  int
	srv     *httptest.Server
	down    atomic.Bool
	lastRID atomic.Value // last X-Request-Id seen (string)
	queries atomic.Int64 // /query and /batch requests received
}

// newTestFleet builds `count` shard servers over equal slices of d.
func newTestFleet(t *testing.T, d *hydra.Dataset, method string, count int) []*testShard {
	t.Helper()
	fleet := make([]*testShard, count)
	for i := 0; i < count; i++ {
		opts := []hydra.Option{hydra.WithData(d), hydra.WithShard(i, count)}
		var e *hydra.Engine
		var err error
		if method == "UCR-Suite" {
			e, err = hydra.Open("", opts...)
		} else {
			e, err = hydra.BuildIndex(context.Background(), method, append(opts, hydra.WithLeafSize(16))...)
		}
		if err != nil {
			t.Fatal(err)
		}
		_, _, offset, _ := e.ShardInfo()
		ts := &testShard{engine: e, offset: offset}
		h := newServer(e, 5*time.Second, 0).handler()
		ts.srv = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			ts.lastRID.Store(r.Header.Get(requestIDHeader))
			if r.URL.Path == "/query" || r.URL.Path == "/batch" {
				ts.queries.Add(1)
			}
			if ts.down.Load() {
				http.Error(w, "down", http.StatusServiceUnavailable)
				return
			}
			h.ServeHTTP(w, r)
		}))
		t.Cleanup(ts.srv.Close)
		fleet[i] = ts
	}
	return fleet
}

// testCoordCfg is a fast, deterministic fan-out policy for tests: hedging
// off, millisecond backoff, short breaker cooldown.
func testCoordCfg() coordConfig {
	return coordConfig{
		timeout:       10 * time.Second,
		shardTimeout:  2 * time.Second,
		retries:       2,
		retryBackoff:  time.Millisecond,
		hedgeAfter:    -1,
		minShards:     1,
		breakerFails:  3,
		breakerCool:   50 * time.Millisecond,
		probeInterval: 5 * time.Millisecond,
	}
}

func fleetCoordinator(fleet []*testShard, cfg coordConfig) *coordinator {
	addrs := make([]string, len(fleet))
	for i, ts := range fleet {
		addrs[i] = ts.srv.URL
	}
	return newCoordinator(addrs, cfg)
}

func postCoordQuery(t *testing.T, h http.Handler, q []float32, k int) (*httptest.ResponseRecorder, queryResponse) {
	t.Helper()
	rec := postJSON(t, h, "/query", queryRequest{Query: q, K: k})
	var resp queryResponse
	if rec.Code == http.StatusOK {
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			t.Fatal(err)
		}
	}
	return rec, resp
}

func assertBitIdentical(t *testing.T, got []matchJSON, want []hydra.Match, label string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d matches, want %d", label, len(got), len(want))
	}
	seen := map[int]bool{}
	for i, m := range got {
		if seen[m.ID] {
			t.Fatalf("%s: duplicate ID %d in merged results", label, m.ID)
		}
		seen[m.ID] = true
		if m.ID != want[i].ID || math.Float64bits(m.Dist) != math.Float64bits(want[i].Dist) {
			t.Fatalf("%s rank %d: got (%d, %x) want (%d, %x)", label, i,
				m.ID, math.Float64bits(m.Dist), want[i].ID, math.Float64bits(want[i].Dist))
		}
	}
}

// TestCoordinatorBitIdentical is the tentpole conformance proof over real
// HTTP: a coordinator over 3 healthy shard servers answers /query and
// /batch bit-identically to one whole-collection engine, for a scan method
// and both index methods.
func TestCoordinatorBitIdentical(t *testing.T) {
	d, err := hydra.Generate("synthetic", 240, 64, 7)
	if err != nil {
		t.Fatal(err)
	}
	queries := hydra.ControlledWorkload(d, 4, 0.3, 11)

	for _, method := range []string{"UCR-Suite", "DSTree", "VA+file"} {
		var whole *hydra.Engine
		if method == "UCR-Suite" {
			whole, err = hydra.Open("", hydra.WithData(d))
		} else {
			whole, err = hydra.BuildIndex(context.Background(), method, hydra.WithData(d), hydra.WithLeafSize(16))
		}
		if err != nil {
			t.Fatal(err)
		}
		fleet := newTestFleet(t, d, method, 3)
		h := fleetCoordinator(fleet, testCoordCfg()).handler()

		const k = 5
		var batch [][]float32
		for qi := 0; qi < queries.Len(); qi++ {
			q := queries.Query(qi)
			batch = append(batch, q)
			want, err := whole.Query(context.Background(), q, k)
			if err != nil {
				t.Fatal(err)
			}
			rec, resp := postCoordQuery(t, h, q, k)
			if rec.Code != http.StatusOK {
				t.Fatalf("%s q%d: status %d: %s", method, qi, rec.Code, rec.Body)
			}
			if resp.Partial {
				t.Fatalf("%s q%d: healthy fleet answered partial", method, qi)
			}
			assertBitIdentical(t, resp.Matches, want, method+" /query")
			if len(resp.Shards) != 3 {
				t.Fatalf("%s q%d: %d shard statuses, want 3", method, qi, len(resp.Shards))
			}
			for _, st := range resp.Shards {
				if st.State != "ok" || st.Breaker != "closed" {
					t.Fatalf("%s q%d: unexpected shard status %+v", method, qi, st)
				}
			}
			if resp.Stats.DistCalcs == 0 {
				t.Fatalf("%s q%d: aggregated stats not populated: %+v", method, qi, resp.Stats)
			}
		}

		rec := postJSON(t, h, "/batch", batchRequest{Queries: batch, K: k})
		if rec.Code != http.StatusOK {
			t.Fatalf("%s /batch: status %d: %s", method, rec.Code, rec.Body)
		}
		var bresp batchResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &bresp); err != nil {
			t.Fatal(err)
		}
		if bresp.Partial || len(bresp.Results) != len(batch) {
			t.Fatalf("%s /batch: partial=%v results=%d", method, bresp.Partial, len(bresp.Results))
		}
		for qi, res := range bresp.Results {
			if res.Error != "" {
				t.Fatalf("%s /batch q%d: %s", method, qi, res.Error)
			}
			want, err := whole.Query(context.Background(), batch[qi], k)
			if err != nil {
				t.Fatal(err)
			}
			assertBitIdentical(t, res.Matches, want, method+" /batch")
		}

		// The coordinator tracks its own latency, in server mode's block:
		// every /query above plus the one /batch.
		srec := httptest.NewRecorder()
		h.ServeHTTP(srec, httptest.NewRequest(http.MethodGet, "/statusz", nil))
		var st statuszResponse
		if err := json.Unmarshal(srec.Body.Bytes(), &st); err != nil {
			t.Fatal(err)
		}
		if st.Query == nil || st.Query.Requests != int64(len(batch)+1) || st.Query.InFlight != 0 || st.Query.P50Micros <= 0 {
			t.Fatalf("%s /statusz query block %+v, want %d drained requests with a p50: %s", method, st.Query, len(batch)+1, srec.Body)
		}
	}
}

// expectedWithout computes the exact merge over the live shards only — the
// best-so-far answer a degraded coordinator must return.
func expectedWithout(t *testing.T, fleet []*testShard, deadIdx int, q []float32, k int) []hydra.Match {
	t.Helper()
	g := hydra.NewGather(k)
	for i, ts := range fleet {
		if i == deadIdx {
			continue
		}
		local, err := ts.engine.Query(context.Background(), q, k)
		if err != nil {
			t.Fatal(err)
		}
		global := make([]hydra.Match, len(local))
		for j, m := range local {
			global[j] = hydra.Match{ID: m.ID + ts.offset, Dist: m.Dist}
		}
		g.Fold(ts.srv.URL, global)
	}
	return g.Results()
}

// TestCoordinatorPartialAndRecovery is the degradation ladder end to end: a
// dead shard turns answers into exact-over-the-survivors with
// partial:true and a status block naming the failure; the breaker opens and
// subsequent queries skip the shard; once the shard is back, one probe
// cycle closes the breaker and answers are whole-collection exact again.
func TestCoordinatorPartialAndRecovery(t *testing.T) {
	d, err := hydra.Generate("synthetic", 240, 64, 9)
	if err != nil {
		t.Fatal(err)
	}
	whole, err := hydra.Open("", hydra.WithData(d))
	if err != nil {
		t.Fatal(err)
	}
	fleet := newTestFleet(t, d, "UCR-Suite", 3)
	// A cooldown far beyond the test's runtime: shard 1's breaker must
	// still be open for the query after the one that opened it. Recovery
	// goes through probeOnce, whose success closes the breaker at once.
	cfg := testCoordCfg()
	cfg.breakerCool = time.Hour
	coord := fleetCoordinator(fleet, cfg)
	h := coord.handler()
	q := d.Series(17)
	const k = 4

	want, err := whole.Query(context.Background(), q, k)
	if err != nil {
		t.Fatal(err)
	}
	rec, resp := postCoordQuery(t, h, q, k)
	if rec.Code != http.StatusOK || resp.Partial {
		t.Fatalf("healthy baseline: status %d partial=%v", rec.Code, resp.Partial)
	}
	assertBitIdentical(t, resp.Matches, want, "healthy baseline")

	// Kill shard 1. Its 503s are retried, exhausted, and counted by the
	// breaker (3 attempts >= breakerFails, so one query opens it).
	fleet[1].down.Store(true)
	rec, resp = postCoordQuery(t, h, q, k)
	if rec.Code != http.StatusOK {
		t.Fatalf("degraded query: status %d: %s", rec.Code, rec.Body)
	}
	if !resp.Partial {
		t.Fatal("degraded query not marked partial")
	}
	if st := resp.Shards[1]; st.State != "failed" || st.Error == "" {
		t.Fatalf("dead shard status: %+v", st)
	}
	assertBitIdentical(t, resp.Matches, expectedWithout(t, fleet, 1, q, k), "degraded merge")

	// The breaker is open now: the next query must skip the shard outright
	// (state "skipped", no attempts burned) and still answer partial.
	rec, resp = postCoordQuery(t, h, q, k)
	if rec.Code != http.StatusOK || !resp.Partial {
		t.Fatalf("breaker-open query: status %d partial=%v", rec.Code, resp.Partial)
	}
	if st := resp.Shards[1]; st.State != "skipped" {
		t.Fatalf("breaker-open shard status: %+v", st)
	}
	assertBitIdentical(t, resp.Matches, expectedWithout(t, fleet, 1, q, k), "breaker-open merge")

	// Shard comes back; one probe cycle closes the breaker and the next
	// query is whole-collection exact again.
	fleet[1].down.Store(false)
	coord.probeOnce(context.Background())
	rec, resp = postCoordQuery(t, h, q, k)
	if rec.Code != http.StatusOK || resp.Partial {
		t.Fatalf("recovered query: status %d partial=%v: %s", rec.Code, resp.Partial, rec.Body)
	}
	assertBitIdentical(t, resp.Matches, want, "recovered")
	for i, st := range resp.Shards {
		if st.State != "ok" {
			t.Fatalf("recovered shard %d status: %+v", i, st)
		}
	}
}

// TestCoordinatorValidatesBeforeFanOut: once the prober has learned the
// fleet's series length from a shard's /healthz, a wrong-length /query and
// a /batch whose every entry has the wrong length are answered 400 by the
// coordinator itself, with no shard request made; a batch with one good
// entry still fans out, and a valid query still gets the exact answer.
func TestCoordinatorValidatesBeforeFanOut(t *testing.T) {
	d, err := hydra.Generate("synthetic", 120, 64, 6)
	if err != nil {
		t.Fatal(err)
	}
	fleet := newTestFleet(t, d, "UCR-Suite", 2)
	coord := fleetCoordinator(fleet, testCoordCfg())
	coord.probeOnce(context.Background())
	if got := coord.seriesLen.Load(); got != 64 {
		t.Fatalf("learned series length %d, want 64", got)
	}
	h := coord.handler()
	shardQueries := func() int64 { return fleet[0].queries.Load() + fleet[1].queries.Load() }

	short := make([]float32, 10)
	for _, b := range []struct {
		path string
		body any
	}{
		{"/query", queryRequest{Query: short, K: 1}},
		{"/batch", batchRequest{Queries: [][]float32{short, make([]float32, 65)}, K: 1}},
	} {
		rec := postJSON(t, h, b.path, b.body)
		if rec.Code != http.StatusBadRequest || !strings.Contains(rec.Body.String(), "collection length 64") {
			t.Fatalf("%s: status %d, want 400 naming the length: %s", b.path, rec.Code, rec.Body)
		}
	}
	if n := shardQueries(); n != 0 {
		t.Fatalf("wrong-length requests cost %d shard requests, want 0", n)
	}

	rec := postJSON(t, h, "/batch", batchRequest{Queries: [][]float32{short, d.Series(3)}, K: 1})
	var br batchResponse
	if rec.Code != http.StatusOK || json.Unmarshal(rec.Body.Bytes(), &br) != nil || len(br.Results) != 2 {
		t.Fatalf("mixed batch: status %d: %s", rec.Code, rec.Body)
	}
	if br.Results[0].Error == "" || len(br.Results[1].Matches) != 1 || br.Results[1].Matches[0].ID != 3 {
		t.Fatalf("mixed batch: %+v", br.Results)
	}
	if n := shardQueries(); n != 2 {
		t.Fatalf("mixed batch made %d shard requests, want one per shard", n)
	}
}

// TestCoordinatorQuorum pins -min-shards: with a full quorum required, one
// dead shard fails the query with 503, a Retry-After header, and the
// per-shard status block in the error body.
func TestCoordinatorQuorum(t *testing.T) {
	d, err := hydra.Generate("synthetic", 120, 32, 4)
	if err != nil {
		t.Fatal(err)
	}
	fleet := newTestFleet(t, d, "UCR-Suite", 3)
	cfg := testCoordCfg()
	cfg.minShards = 3
	cfg.retries = 0
	h := fleetCoordinator(fleet, cfg).handler()
	fleet[2].down.Store(true)

	rec := postJSON(t, h, "/query", queryRequest{Query: d.Series(0), K: 2})
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("below quorum: status %d, want 503: %s", rec.Code, rec.Body)
	}
	if rec.Header().Get("Retry-After") == "" {
		t.Fatal("quorum refusal missing Retry-After")
	}
	var er errorResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &er); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(er.Error, "quorum") || len(er.Shards) != 3 || er.RequestID == "" {
		t.Fatalf("quorum error body: %+v", er)
	}
}

// TestCoordinatorRelaysBadRequest pins that a client's bad request is the
// client's problem: when every shard refuses it (a wrong-length query, an
// unknown mode), the coordinator relays the 400 without Retry-After, no
// breaker opens however often it is sent, and the next valid query gets
// the exact whole-collection answer. A refusal beside a down shard stays a
// 503.
func TestCoordinatorRelaysBadRequest(t *testing.T) {
	d, err := hydra.Generate("synthetic", 120, 64, 6)
	if err != nil {
		t.Fatal(err)
	}
	whole, err := hydra.Open("", hydra.WithData(d))
	if err != nil {
		t.Fatal(err)
	}
	fleet := newTestFleet(t, d, "UCR-Suite", 2)
	h := fleetCoordinator(fleet, testCoordCfg()).handler()

	short := make([]float32, 10)
	bogus := approxRequest{Mode: "bogus"}
	bad := []struct {
		path string
		body any
	}{
		// Three times, the breaker threshold: a refusal counted as a
		// failure would open every breaker.
		{"/query", queryRequest{Query: short, K: 1}},
		{"/query", queryRequest{Query: short, K: 1}},
		{"/query", queryRequest{Query: short, K: 1}},
		{"/query", queryRequest{Query: d.Series(0), K: 1, approxRequest: bogus}},
		{"/batch", batchRequest{Queries: [][]float32{d.Series(0)}, K: 1, approxRequest: bogus}},
	}
	for i, b := range bad {
		rec := postJSON(t, h, b.path, b.body)
		if rec.Code != http.StatusBadRequest || rec.Header().Get("Retry-After") != "" {
			t.Fatalf("bad request %d (%s): status %d, Retry-After %q, want 400 and none: %s",
				i, b.path, rec.Code, rec.Header().Get("Retry-After"), rec.Body)
		}
	}

	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/statusz", nil))
	var sz statuszResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &sz); err != nil {
		t.Fatal(err)
	}
	for _, sh := range sz.Shards {
		if sh.Breaker != "closed" || sh.BreakerOpens != 0 {
			t.Fatalf("after bad requests: shard %s breaker %s, %d opens", sh.Addr, sh.Breaker, sh.BreakerOpens)
		}
	}

	q := d.Series(7)
	want, err := whole.Query(context.Background(), q, 3)
	if err != nil {
		t.Fatal(err)
	}
	qrec, resp := postCoordQuery(t, h, q, 3)
	if qrec.Code != http.StatusOK || resp.Partial {
		t.Fatalf("valid query after bad ones: status %d, partial %v: %s", qrec.Code, resp.Partial, qrec.Body)
	}
	assertBitIdentical(t, resp.Matches, want, "valid /query after bad requests")

	// A mix — one shard refuses, the other is down — is a fleet failure.
	fleet[1].down.Store(true)
	if rec := postJSON(t, h, "/query", queryRequest{Query: short, K: 1}); rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("one shard refusing, one down: status %d, want 503: %s", rec.Code, rec.Body)
	}
}

// TestCoordinatorFaultDrills drives the rpc/* faultpoints through the
// coordinator's client path: transient errors are absorbed by retries,
// blackholes are bounded by the per-attempt deadline and never hang, and a
// flapping shard is ridden out by the retry loop — with exact answers and
// full recovery after disarm in every drill.
func TestCoordinatorFaultDrills(t *testing.T) {
	d, err := hydra.Generate("synthetic", 120, 32, 5)
	if err != nil {
		t.Fatal(err)
	}
	whole, err := hydra.Open("", hydra.WithData(d))
	if err != nil {
		t.Fatal(err)
	}
	q := d.Series(31)
	const k = 3
	want, err := whole.Query(context.Background(), q, k)
	if err != nil {
		t.Fatal(err)
	}

	t.Run("rpc/error retried", func(t *testing.T) {
		defer faultpoint.Reset()
		fleet := newTestFleet(t, d, "UCR-Suite", 3)
		h := fleetCoordinator(fleet, testCoordCfg()).handler()
		faultpoint.ArmN(faultpoint.RPCError, 1)
		rec, resp := postCoordQuery(t, h, q, k)
		if rec.Code != http.StatusOK || resp.Partial {
			t.Fatalf("status %d partial=%v: %s", rec.Code, resp.Partial, rec.Body)
		}
		assertBitIdentical(t, resp.Matches, want, "rpc/error")
		var retries int64
		for _, st := range resp.Shards {
			retries += st.Retries
		}
		if retries != 1 {
			t.Fatalf("one injected error should cost exactly one retry, got %d", retries)
		}
	})

	t.Run("rpc/drop bounded", func(t *testing.T) {
		defer faultpoint.Reset()
		fleet := newTestFleet(t, d, "UCR-Suite", 3)
		cfg := testCoordCfg()
		cfg.shardTimeout = 30 * time.Millisecond
		cfg.retries = 1
		coord := fleetCoordinator(fleet, cfg)
		h := coord.handler()

		faultpoint.Arm(faultpoint.RPCDrop)
		start := time.Now()
		rec, _ := postCoordQuery(t, h, q, k)
		elapsed := time.Since(start)
		if rec.Code != http.StatusServiceUnavailable {
			t.Fatalf("total blackhole: status %d, want 503 quorum failure: %s", rec.Code, rec.Body)
		}
		if elapsed > 2*time.Second {
			t.Fatalf("blackholed query took %s: the per-attempt deadline is not bounding drops", elapsed)
		}

		// Disarm, let the prober re-admit whatever breakers opened, and the
		// fleet is exact again.
		faultpoint.Reset()
		coord.probeOnce(context.Background())
		rec, resp := postCoordQuery(t, h, q, k)
		if rec.Code != http.StatusOK || resp.Partial {
			t.Fatalf("post-drill: status %d partial=%v: %s", rec.Code, resp.Partial, rec.Body)
		}
		assertBitIdentical(t, resp.Matches, want, "post-drop recovery")
	})

	t.Run("rpc/flap ridden out", func(t *testing.T) {
		defer faultpoint.Reset()
		// One shard covering the whole collection keeps the global hit
		// sequence deterministic: attempt 1 fires hit 1 (odd, fails),
		// the retry fires hit 2 (even, passes).
		fleet := newTestFleet(t, d, "UCR-Suite", 1)
		h := fleetCoordinator(fleet, testCoordCfg()).handler()
		faultpoint.Arm(faultpoint.RPCFlap)
		rec, resp := postCoordQuery(t, h, q, k)
		if rec.Code != http.StatusOK || resp.Partial {
			t.Fatalf("status %d partial=%v: %s", rec.Code, resp.Partial, rec.Body)
		}
		assertBitIdentical(t, resp.Matches, want, "rpc/flap")
		if resp.Shards[0].Retries != 1 {
			t.Fatalf("flap should cost exactly one retry, got %+v", resp.Shards[0])
		}
	})
}

// TestCoordinatorHedging pins the hedge path: with every attempt slowed
// past the hedge delay, each shard call launches a duplicate — and the
// answer stays exact with no double-counted matches, because only one
// response per shard is ever folded (first success wins, Gather folds once
// per source).
func TestCoordinatorHedging(t *testing.T) {
	defer faultpoint.Reset()
	d, err := hydra.Generate("synthetic", 120, 32, 6)
	if err != nil {
		t.Fatal(err)
	}
	whole, err := hydra.Open("", hydra.WithData(d))
	if err != nil {
		t.Fatal(err)
	}
	q := d.Series(7)
	const k = 3
	want, err := whole.Query(context.Background(), q, k)
	if err != nil {
		t.Fatal(err)
	}

	fleet := newTestFleet(t, d, "UCR-Suite", 3)
	cfg := testCoordCfg()
	cfg.hedgeAfter = 5 * time.Millisecond
	cfg.retries = 0
	coord := fleetCoordinator(fleet, cfg)
	h := coord.handler()

	faultpoint.ArmDelay(faultpoint.RPCSlow, 40*time.Millisecond)
	rec, resp := postCoordQuery(t, h, q, k)
	if rec.Code != http.StatusOK || resp.Partial {
		t.Fatalf("status %d partial=%v: %s", rec.Code, resp.Partial, rec.Body)
	}
	assertBitIdentical(t, resp.Matches, want, "hedged")
	for i, st := range resp.Shards {
		if !st.Hedged {
			t.Fatalf("shard %d: 40ms slowdown vs 5ms hedge delay did not hedge: %+v", i, st)
		}
	}

	// The counters surface on /statusz.
	req := httptest.NewRequest(http.MethodGet, "/statusz", nil)
	srec := httptest.NewRecorder()
	h.ServeHTTP(srec, req)
	if srec.Code != http.StatusOK {
		t.Fatalf("/statusz: status %d", srec.Code)
	}
	var stat statuszResponse
	if err := json.Unmarshal(srec.Body.Bytes(), &stat); err != nil {
		t.Fatal(err)
	}
	if stat.Mode != "coordinator" || len(stat.Shards) != 3 {
		t.Fatalf("statusz shape: %+v", stat)
	}
	var hedges int64
	for _, s := range stat.Shards {
		hedges += s.Hedges
	}
	if hedges < 3 {
		t.Fatalf("statusz hedges = %d, want >= 3", hedges)
	}
}

// TestCoordinatorHealthAndDrain covers the topology endpoints and the
// graceful-drain admission contract.
func TestCoordinatorHealthAndDrain(t *testing.T) {
	d, err := hydra.Generate("synthetic", 60, 32, 8)
	if err != nil {
		t.Fatal(err)
	}
	fleet := newTestFleet(t, d, "UCR-Suite", 2)
	coord := fleetCoordinator(fleet, testCoordCfg())
	h := coord.handler()

	req := httptest.NewRequest(http.MethodGet, "/healthz", nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	var hz coordHealthzResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &hz); err != nil {
		t.Fatal(err)
	}
	if rec.Code != http.StatusOK || hz.Mode != "coordinator" || hz.Shards != 2 || hz.Available != 2 {
		t.Fatalf("healthz: %d %+v", rec.Code, hz)
	}

	req = httptest.NewRequest(http.MethodGet, "/readyz", nil)
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("readyz before drain: %d", rec.Code)
	}

	coord.startDrain()
	req = httptest.NewRequest(http.MethodGet, "/readyz", nil)
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("readyz while draining: %d", rec.Code)
	}
	qrec := postJSON(t, h, "/query", queryRequest{Query: d.Series(0), K: 1})
	if qrec.Code != http.StatusServiceUnavailable || qrec.Header().Get("Retry-After") == "" {
		t.Fatalf("query while draining: %d, Retry-After %q", qrec.Code, qrec.Header().Get("Retry-After"))
	}
}

// TestRequestIDFlow pins the identity satellite: a client-supplied
// X-Request-Id survives coordinator -> shard -> error body; an absent one
// is generated as 16 hex digits.
func TestRequestIDFlow(t *testing.T) {
	d, err := hydra.Generate("synthetic", 60, 32, 2)
	if err != nil {
		t.Fatal(err)
	}
	fleet := newTestFleet(t, d, "UCR-Suite", 2)
	h := fleetCoordinator(fleet, testCoordCfg()).handler()

	blob, _ := json.Marshal(queryRequest{Query: d.Series(3), K: 1})
	req := httptest.NewRequest(http.MethodPost, "/query", strings.NewReader(string(blob)))
	req.Header.Set(requestIDHeader, "trace-abc-123")
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body)
	}
	if got := rec.Header().Get(requestIDHeader); got != "trace-abc-123" {
		t.Fatalf("response echoes %q, want the client's ID", got)
	}
	for i, ts := range fleet {
		if rid, _ := ts.lastRID.Load().(string); rid != "trace-abc-123" {
			t.Fatalf("shard %d saw request ID %q, want the coordinator-forwarded one", i, rid)
		}
	}

	// Errors carry the ID in the body.
	req = httptest.NewRequest(http.MethodPost, "/query", strings.NewReader("{not json"))
	req.Header.Set(requestIDHeader, "trace-err-9")
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	var er errorResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &er); err != nil {
		t.Fatal(err)
	}
	if rec.Code != http.StatusBadRequest || er.RequestID != "trace-err-9" {
		t.Fatalf("error body: %d %+v", rec.Code, er)
	}

	// Absent ID: one is generated.
	req = httptest.NewRequest(http.MethodGet, "/healthz", nil)
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if got := rec.Header().Get(requestIDHeader); !regexp.MustCompile(`^[0-9a-f]{16}$`).MatchString(got) {
		t.Fatalf("generated request ID %q, want 16 hex digits", got)
	}
}

// TestRetryAfterJitter pins the jittered Retry-After range: every draw
// lands in [1, spread] and the draws are not all identical.
func TestRetryAfterJitter(t *testing.T) {
	seen := map[string]bool{}
	for i := 0; i < 200; i++ {
		v := retryAfterJitter(3)
		n, err := strconv.Atoi(v)
		if err != nil || n < 1 || n > 3 {
			t.Fatalf("draw %q outside [1,3]", v)
		}
		seen[v] = true
	}
	if len(seen) < 2 {
		t.Fatal("200 draws produced a single value: no jitter")
	}
}

// TestBreakerLifecycle pins the state machine directly: threshold opens,
// cooldown admits one half-open trial, trial failure re-opens, trial
// success closes.
func TestBreakerLifecycle(t *testing.T) {
	now := time.Unix(0, 0)
	b := newBreaker(3, 100*time.Millisecond, 1)
	for i := 0; i < 2; i++ {
		b.failure(now)
		if !b.allow(now) {
			t.Fatalf("breaker open after %d/3 failures", i+1)
		}
	}
	b.failure(now)
	if b.allow(now) {
		t.Fatal("breaker still admitting after threshold failures")
	}
	if state, opens := b.snapshot(); state != "open" || opens != 1 {
		t.Fatalf("snapshot after open: %s/%d", state, opens)
	}

	// Cooldown (plus up to 25% jitter) elapses: exactly one trial admitted.
	later := now.Add(200 * time.Millisecond)
	if !b.allow(later) {
		t.Fatal("no half-open trial after cooldown")
	}
	if b.allow(later) {
		t.Fatal("second concurrent half-open trial admitted")
	}
	b.failure(later)
	if b.allow(later) {
		t.Fatal("breaker closed by a failed trial")
	}

	later = later.Add(200 * time.Millisecond)
	if !b.allow(later) {
		t.Fatal("no trial after second cooldown")
	}
	b.success()
	if !b.allow(later) || !b.ready(later) {
		t.Fatal("successful trial did not close the breaker")
	}
}

// allocatedDuring returns the bytes the process allocated while f ran
// (runtime.MemStats.TotalAlloc, which no collection lowers): an upper bound
// on what f grew the heap by.
func allocatedDuring(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// requestSizedAllocLimit bounds what one request with an absurd k may
// allocate: far above what answering it needs, far below what a k-sized
// buffer would take.
const requestSizedAllocLimit = 64 << 20

// TestCoordinatorHugeKBoundedAlloc: the coordinator sizes its gather by
// what the shards answer, not by the k in the body, so /query and /batch
// with k = 2^40 answer every series, exactly, without allocating k of
// anything.
func TestCoordinatorHugeKBoundedAlloc(t *testing.T) {
	d, err := hydra.Generate("synthetic", 200, 64, 3)
	if err != nil {
		t.Fatal(err)
	}
	whole, err := hydra.Open("", hydra.WithData(d))
	if err != nil {
		t.Fatal(err)
	}
	fleet := newTestFleet(t, d, "UCR-Suite", 2)
	h := fleetCoordinator(fleet, testCoordCfg()).handler()
	q := d.Series(17)
	want, err := whole.Query(context.Background(), q, d.Len())
	if err != nil {
		t.Fatal(err)
	}
	const k = 1 << 40
	var rec *httptest.ResponseRecorder
	var resp queryResponse
	if n := allocatedDuring(func() { rec, resp = postCoordQuery(t, h, q, k) }); n >= requestSizedAllocLimit {
		t.Errorf("/query with k=2^40 allocated %d bytes", n)
	}
	if rec.Code != http.StatusOK {
		t.Fatalf("/query with k=2^40: status %d: %s", rec.Code, rec.Body)
	}
	assertBitIdentical(t, resp.Matches, want, "/query k=2^40")

	n := allocatedDuring(func() {
		rec = postJSON(t, h, "/batch", batchRequest{Queries: [][]float32{q, q, q}, K: k})
	})
	if n >= requestSizedAllocLimit {
		t.Errorf("/batch of 3 with k=2^40 allocated %d bytes", n)
	}
	if rec.Code != http.StatusOK {
		t.Fatalf("/batch with k=2^40: status %d: %s", rec.Code, rec.Body)
	}
	var batch batchResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &batch); err != nil {
		t.Fatal(err)
	}
	for i, r := range batch.Results {
		assertBitIdentical(t, r.Matches, want, fmt.Sprintf("/batch[%d] k=2^40", i))
	}
}
