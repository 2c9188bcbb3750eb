package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"hydra"
)

func testEngine(t *testing.T) (*hydra.Engine, *hydra.Dataset) {
	t.Helper()
	d, err := hydra.Generate("synthetic", 400, 64, 3)
	if err != nil {
		t.Fatal(err)
	}
	e, err := hydra.Open("", hydra.WithData(d))
	if err != nil {
		t.Fatal(err)
	}
	return e, d
}

func postJSON(t *testing.T, h http.Handler, path string, body any) *httptest.ResponseRecorder {
	t.Helper()
	blob, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(blob))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

// TestServeQueryMatchesEngine pins the proof the CI smoke also checks over
// real processes: the HTTP answer is the engine's answer, bit for bit.
func TestServeQueryMatchesEngine(t *testing.T) {
	e, d := testEngine(t)
	h := newServer(e, time.Second, 0).handler()
	q := d.Series(11)

	want, err := e.Query(context.Background(), q, 3)
	if err != nil {
		t.Fatal(err)
	}
	rec := postJSON(t, h, "/query", queryRequest{Query: q, K: 3})
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body)
	}
	var resp queryResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Matches) != len(want) {
		t.Fatalf("got %d matches, want %d", len(resp.Matches), len(want))
	}
	for i, m := range resp.Matches {
		if m.ID != want[i].ID || m.Dist != want[i].Dist {
			t.Fatalf("match %d: got %+v want %+v", i, m, want[i])
		}
	}
	if resp.Stats.DistCalcs == 0 || resp.Stats.DeviceModel == "" {
		t.Fatalf("stats not populated: %+v", resp.Stats)
	}
}

// TestServeBatchIsolatesFailures pins the /batch contract: a malformed
// query inside a batch yields a per-entry error while its siblings answer.
func TestServeBatchIsolatesFailures(t *testing.T) {
	e, d := testEngine(t)
	h := newServer(e, time.Second, 0).handler()
	good := d.Series(5)
	bad := []float32{1, 2, 3} // wrong length

	rec := postJSON(t, h, "/batch", batchRequest{Queries: [][]float32{good, bad, good}, K: 1})
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body)
	}
	var resp batchResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Results) != 3 {
		t.Fatalf("got %d results, want 3", len(resp.Results))
	}
	if resp.Results[0].Error != "" || len(resp.Results[0].Matches) != 1 {
		t.Fatalf("query 0 should succeed: %+v", resp.Results[0])
	}
	if resp.Results[1].Error == "" {
		t.Fatalf("query 1 should fail: %+v", resp.Results[1])
	}
	if !strings.Contains(resp.Results[1].Error, "length") {
		t.Fatalf("query 1 should carry its real cause, got %q", resp.Results[1].Error)
	}
	if resp.Results[2].Error != "" || len(resp.Results[2].Matches) != 1 {
		t.Fatalf("query 2 should succeed: %+v", resp.Results[2])
	}
	if resp.Results[0].Matches[0].ID != 5 {
		t.Fatalf("self-query should find series 5: %+v", resp.Results[0].Matches)
	}
}

// TestServeDeadline pins the per-request deadline path: an already-expired
// deadline answers 504, and the engine keeps serving afterwards.
func TestServeDeadline(t *testing.T) {
	e, d := testEngine(t)
	h := newServer(e, time.Nanosecond, 0).handler()
	q := d.Series(0)

	rec := postJSON(t, h, "/query", queryRequest{Query: q, K: 1})
	if rec.Code != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 504: %s", rec.Code, rec.Body)
	}

	// The engine must stay reusable: a fresh server without deadline works.
	rec = postJSON(t, newServer(e, 0, 0).handler(), "/query", queryRequest{Query: q, K: 1})
	if rec.Code != http.StatusOK {
		t.Fatalf("engine not reusable after deadline: status %d", rec.Code)
	}
}

// TestServeHealthz pins the health endpoint's shape.
func TestServeHealthz(t *testing.T) {
	e, _ := testEngine(t)
	h := newServer(e, time.Second, 0).handler()
	req := httptest.NewRequest(http.MethodGet, "/healthz", nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d", rec.Code)
	}
	var resp healthzResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Status != "ok" || resp.Method != "UCR-Suite" || resp.Series != 400 || resp.SeriesLen != 64 {
		t.Fatalf("unexpected healthz: %+v", resp)
	}
}

// TestServeRejectsBadRequests covers the 4xx paths.
func TestServeRejectsBadRequests(t *testing.T) {
	e, _ := testEngine(t)
	h := newServer(e, time.Second, 0).handler()

	req := httptest.NewRequest(http.MethodGet, "/query", nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusMethodNotAllowed {
		t.Fatalf("GET /query: status %d, want 405", rec.Code)
	}

	req = httptest.NewRequest(http.MethodPost, "/query", bytes.NewReader([]byte("{not json")))
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("bad JSON: status %d, want 400", rec.Code)
	}

	rec = postJSON(t, h, "/query", queryRequest{Query: []float32{1, 2}, K: 1})
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("wrong length: status %d, want 400: %s", rec.Code, rec.Body)
	}
}

// TestServeConcurrentQueries hammers one handler from many goroutines —
// the shared-engine concurrency contract under the race detector.
func TestServeConcurrentQueries(t *testing.T) {
	e, d := testEngine(t)
	h := newServer(e, time.Second, 0).handler()
	done := make(chan error, 8)
	for g := 0; g < 8; g++ {
		go func(g int) {
			for i := 0; i < 5; i++ {
				rec := postJSON(t, h, "/query", queryRequest{Query: d.Series((g*5 + i) % d.Len()), K: 2})
				if rec.Code != http.StatusOK {
					done <- fmt.Errorf("status %d", rec.Code)
					return
				}
			}
			done <- nil
		}(g)
	}
	for g := 0; g < 8; g++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}

// TestServeConcurrentQueryStats: the cost block of a /query response is the
// request's own. Two streams of queries run at once against one engine,
// and every response must report the seq_ops and rand_ops the same query
// reports when it runs alone.
func TestServeConcurrentQueryStats(t *testing.T) {
	e, d := testEngine(t)
	h := newServer(e, time.Second, 0).handler()
	const n = 20
	query := func(i int) statsJSON {
		rec := postJSON(t, h, "/query", queryRequest{Query: d.Series(i % d.Len()), K: 2})
		var resp queryResponse
		if rec.Code != http.StatusOK || json.Unmarshal(rec.Body.Bytes(), &resp) != nil {
			t.Errorf("query %d: status %d: %s", i, rec.Code, rec.Body)
		}
		return resp.Stats
	}
	serial := make([]statsJSON, n)
	for i := range serial {
		serial[i] = query(i)
	}
	done := make(chan struct{})
	for stream := 0; stream < 2; stream++ {
		go func() {
			defer func() { done <- struct{}{} }()
			for j := 0; j < n; j++ {
				i := (stream*n/2 + j) % n
				if got := query(i); got.SeqOps != serial[i].SeqOps || got.RandOps != serial[i].RandOps {
					t.Errorf("stream %d query %d: seq_ops %d rand_ops %d, alone %d and %d",
						stream, i, got.SeqOps, got.RandOps, serial[i].SeqOps, serial[i].RandOps)
				}
			}
		}()
	}
	<-done
	<-done
}

// TestServeServerTiming: /query and /batch answers carry Server-Timing —
// decode and engine from a single engine; decode, shards and gather from a
// coordinator — and its phases parse and sum to no more than the handler's
// wall time.
func TestServeServerTiming(t *testing.T) {
	e, d := testEngine(t)
	coord := fleetCoordinator(newTestFleet(t, d, "UCR-Suite", 2), testCoordCfg())
	q := d.Series(4)
	for _, tc := range []struct {
		name   string
		h      http.Handler
		phases []string
	}{
		{"server", newServer(e, time.Second, 0).handler(), []string{"decode", "engine"}},
		{"coordinator", coord.handler(), []string{"decode", "shards", "gather"}},
	} {
		for _, req := range []struct {
			path string
			body any
		}{
			{"/query", queryRequest{Query: q, K: 3}},
			{"/batch", batchRequest{Queries: [][]float32{q, q}, K: 3}},
		} {
			start := time.Now()
			rec := postJSON(t, tc.h, req.path, req.body)
			wall := float64(time.Since(start).Microseconds()) / 1e3
			header := rec.Header().Get("Server-Timing")
			if rec.Code != http.StatusOK {
				t.Fatalf("%s %s: status %d: %s", tc.name, req.path, rec.Code, rec.Body)
			}
			entries := strings.Split(header, ", ")
			if len(entries) != len(tc.phases) {
				t.Fatalf("%s %s: Server-Timing %q, want phases %v", tc.name, req.path, header, tc.phases)
			}
			sum := 0.0
			for i, entry := range entries {
				name, dur, ok := strings.Cut(entry, ";dur=")
				ms, err := strconv.ParseFloat(dur, 64)
				if !ok || err != nil || name != tc.phases[i] || ms < 0 {
					t.Fatalf("%s %s: Server-Timing entry %q, want %s;dur=<ms>", tc.name, req.path, entry, tc.phases[i])
				}
				sum += ms
			}
			if sum > wall {
				t.Errorf("%s %s: phases sum to %.3f ms, more than the %.3f ms wall time", tc.name, req.path, sum, wall)
			}
		}
	}
}
