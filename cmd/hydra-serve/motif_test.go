package main

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"hydra"
)

// longWalkServer builds a handler over a planted long-walk engine.
func longWalkServer(t *testing.T) (http.Handler, hydra.Planted) {
	t.Helper()
	ds, pl, err := hydra.GenerateLongWalk(4096, 128, 7)
	if err != nil {
		t.Fatal(err)
	}
	e, err := hydra.Open("", hydra.WithData(ds), hydra.WithWorkers(4))
	if err != nil {
		t.Fatal(err)
	}
	return newServer(e, 30*time.Second, 0).handler(), pl
}

// TestServeMotifRecoversPlanted pins the serving layer's end of the planted
// contract: POST /motif over the generated long walk answers with the
// planted pair first and a discord at the planted anomaly.
func TestServeMotifRecoversPlanted(t *testing.T) {
	h, pl := longWalkServer(t)

	rec := postJSON(t, h, "/motif", motifRequest{M: pl.M, K: 2})
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body)
	}
	var resp motifResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Motifs) != 2 {
		t.Fatalf("got %d motifs, want 2: %s", len(resp.Motifs), rec.Body)
	}
	if resp.Motifs[0].A != pl.MotifA || resp.Motifs[0].B != pl.MotifB {
		t.Fatalf("top motif (%d, %d), planted (%d, %d)", resp.Motifs[0].A, resp.Motifs[0].B, pl.MotifA, pl.MotifB)
	}
	if len(resp.Discords) == 0 {
		t.Fatalf("no discords: %s", rec.Body)
	}
	if d := resp.Discords[0].Index; d < pl.Discord-pl.M || d > pl.Discord+pl.M {
		t.Fatalf("top discord %d, planted near %d", d, pl.Discord)
	}
	if resp.Stats.Windows == 0 || resp.Stats.Pairs == 0 || resp.Stats.ElapsedMicros < 0 {
		t.Fatalf("empty stats block: %+v", resp.Stats)
	}
	if resp.Stats.Workers != 4 {
		t.Fatalf("server -workers not inherited: profile ran with %d", resp.Stats.Workers)
	}
}

// TestServeMotifErrors covers the endpoint's refusal paths: bad window,
// multi-series engine (501), and method filtering.
func TestServeMotifErrors(t *testing.T) {
	h, _ := longWalkServer(t)

	if rec := postJSON(t, h, "/motif", motifRequest{M: 0}); rec.Code != http.StatusBadRequest {
		t.Fatalf("m=0: status %d, want 400", rec.Code)
	}
	if rec := postJSON(t, h, "/motif", motifRequest{M: 1 << 20}); rec.Code != http.StatusBadRequest {
		t.Fatalf("m>n: status %d, want 400", rec.Code)
	}
	req := httptest.NewRequest(http.MethodGet, "/motif", nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusMethodNotAllowed {
		t.Fatalf("GET /motif: status %d, want 405", rec.Code)
	}

	// A multi-series collection cannot be profiled: 501, like /ingest on a
	// non-ingesting engine.
	e, _ := testEngine(t)
	multi := newServer(e, time.Second, 0).handler()
	if rec := postJSON(t, multi, "/motif", motifRequest{M: 16}); rec.Code != http.StatusNotImplemented {
		t.Fatalf("multi-series: status %d, want 501: %s", rec.Code, rec.Body)
	}
}

// TestServeStatuszEndpointCounters pins the /statusz counter satellite:
// query and motif traffic count separately, with requests, in-flight, and
// latency quantiles per family.
func TestServeStatuszEndpointCounters(t *testing.T) {
	h, pl := longWalkServer(t)

	// One motif request and two (failing is fine — they were admitted)
	// query requests.
	if rec := postJSON(t, h, "/motif", motifRequest{M: pl.M, K: 1}); rec.Code != http.StatusOK {
		t.Fatalf("motif: status %d", rec.Code)
	}
	postJSON(t, h, "/query", queryRequest{Query: make([]float32, 4096), K: 1})
	postJSON(t, h, "/query", queryRequest{Query: make([]float32, 4096), K: 1})

	req := httptest.NewRequest(http.MethodGet, "/statusz", nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("/statusz: status %d", rec.Code)
	}
	var st engineStatuszResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	if st.Motif == nil || st.Query == nil {
		t.Fatalf("missing endpoint blocks: %s", rec.Body)
	}
	if st.Motif.Requests != 1 {
		t.Fatalf("motif requests = %d, want 1", st.Motif.Requests)
	}
	if st.Query.Requests != 2 {
		t.Fatalf("query requests = %d, want 2", st.Query.Requests)
	}
	if st.Motif.InFlight != 0 || st.Query.InFlight != 0 {
		t.Fatalf("in-flight should be drained: %s", rec.Body)
	}
	if st.Motif.P50Micros <= 0 || st.Motif.P99Micros < st.Motif.P50Micros {
		t.Fatalf("motif quantiles inconsistent: p50=%d p99=%d", st.Motif.P50Micros, st.Motif.P99Micros)
	}
}

// TestServeMotifHugeKBoundedAlloc: a /motif with k = 2^40 extracts what the
// profile holds without allocating k of anything.
func TestServeMotifHugeKBoundedAlloc(t *testing.T) {
	h, pl := longWalkServer(t)
	var rec *httptest.ResponseRecorder
	n := allocatedDuring(func() { rec = postJSON(t, h, "/motif", motifRequest{M: pl.M, K: 1 << 40}) })
	if n >= requestSizedAllocLimit {
		t.Errorf("/motif with k=2^40 allocated %d bytes", n)
	}
	if rec.Code != http.StatusOK {
		t.Fatalf("/motif with k=2^40: status %d: %s", rec.Code, rec.Body)
	}
	var resp motifResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Motifs) == 0 || len(resp.Discords) == 0 {
		t.Fatalf("k=2^40 extracted %d motifs and %d discords", len(resp.Motifs), len(resp.Discords))
	}
}
