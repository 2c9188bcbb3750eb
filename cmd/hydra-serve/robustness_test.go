package main

import (
	"encoding/json"
	"errors"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"hydra"
	"hydra/internal/faultpoint"
)

// TestServeOverload pins admission control in both serving modes: with
// every in-flight slot taken, a query request is refused immediately with
// 503 + Retry-After, and admitted again as soon as a slot frees. The
// coordinator honours -max-inflight exactly as a single engine does.
func TestServeOverload(t *testing.T) {
	e, d := testEngine(t)
	q := d.Series(0)
	srv := newServer(e, time.Second, 2)
	cfg := testCoordCfg()
	cfg.maxInFlight = 2
	coord := fleetCoordinator(newTestFleet(t, d, "UCR-Suite", 2), cfg)
	for _, tc := range []struct {
		name string
		gate *gate
		h    http.Handler
	}{
		{"server", srv.gate, srv.handler()},
		{"coordinator", coord.gate, coord.handler()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			// Occupy both slots directly — the deterministic stand-in for two
			// requests parked inside their queries.
			tc.gate.sem <- struct{}{}
			tc.gate.sem <- struct{}{}

			rec := postJSON(t, tc.h, "/query", queryRequest{Query: q, K: 1})
			if rec.Code != http.StatusServiceUnavailable {
				t.Fatalf("overloaded query: status %d, want 503: %s", rec.Code, rec.Body)
			}
			if rec.Header().Get("Retry-After") == "" {
				t.Fatal("overload refusal should carry Retry-After")
			}
			var resp errorResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil || resp.Error == "" {
				t.Fatalf("overload refusal should be a JSON error, got %q (%v)", rec.Body, err)
			}

			// Batch requests share the same admission gate.
			rec = postJSON(t, tc.h, "/batch", batchRequest{Queries: [][]float32{q}, K: 1})
			if rec.Code != http.StatusServiceUnavailable {
				t.Fatalf("overloaded batch: status %d, want 503", rec.Code)
			}

			// Health stays reachable under overload — refusing queries must
			// not make the instance look dead.
			hrec := httptest.NewRecorder()
			tc.h.ServeHTTP(hrec, httptest.NewRequest(http.MethodGet, "/healthz", nil))
			if hrec.Code != http.StatusOK {
				t.Fatalf("healthz under overload: status %d", hrec.Code)
			}

			<-tc.gate.sem // one request finishes
			rec = postJSON(t, tc.h, "/query", queryRequest{Query: q, K: 1})
			if rec.Code != http.StatusOK {
				t.Fatalf("after slot freed: status %d: %s", rec.Code, rec.Body)
			}
		})
	}
}

// TestServeReadyzDrain pins the shutdown sequence: /readyz flips to 503 the
// moment the drain starts and query endpoints refuse new work, while
// liveness stays green.
func TestServeReadyzDrain(t *testing.T) {
	e, d := testEngine(t)
	srv := newServer(e, time.Second, 4)
	h := srv.handler()

	req := httptest.NewRequest(http.MethodGet, "/readyz", nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("readyz before drain: status %d", rec.Code)
	}
	var ready readyzResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &ready); err != nil {
		t.Fatal(err)
	}
	if ready.Status != "ready" || ready.Capacity != 4 || ready.InFlight != 0 {
		t.Fatalf("unexpected readyz: %+v", ready)
	}

	srv.startDrain()

	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/readyz", nil))
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("readyz during drain: status %d, want 503", rec.Code)
	}
	qrec := postJSON(t, h, "/query", queryRequest{Query: d.Series(0), K: 1})
	if qrec.Code != http.StatusServiceUnavailable {
		t.Fatalf("query during drain: status %d, want 503", qrec.Code)
	}
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/healthz", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("healthz during drain: status %d, want 200", rec.Code)
	}
}

// TestServePanicRecovery drills the recovery middleware with the
// query/panic faultpoint: a panicking query answers 500 with a JSON error,
// and the same server keeps answering correctly once the fault clears.
func TestServePanicRecovery(t *testing.T) {
	e, d := testEngine(t)
	h := newServer(e, time.Second, 0).handler()
	q := d.Series(7)

	faultpoint.ArmN(faultpoint.QueryPanic, 1)
	defer faultpoint.Disarm(faultpoint.QueryPanic)
	rec := postJSON(t, h, "/query", queryRequest{Query: q, K: 1})
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("panicking query: status %d, want 500: %s", rec.Code, rec.Body)
	}
	var resp errorResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil || resp.Error == "" {
		t.Fatalf("panic answer should be a JSON error, got %q (%v)", rec.Body, err)
	}

	rec = postJSON(t, h, "/query", queryRequest{Query: q, K: 1})
	if rec.Code != http.StatusOK {
		t.Fatalf("server poisoned after panic: status %d: %s", rec.Code, rec.Body)
	}
	var ok queryResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &ok); err != nil {
		t.Fatal(err)
	}
	if len(ok.Matches) != 1 || ok.Matches[0].ID != 7 {
		t.Fatalf("post-panic answer wrong: %+v", ok.Matches)
	}
}

// TestServePartialOnDeadline pins the degraded-serving contract: an engine
// built with WithPartialOnDeadline answers an expired deadline with 200 and
// "partial":true instead of the hard 504 TestServeDeadline pins for engines
// without the option.
func TestServePartialOnDeadline(t *testing.T) {
	d, err := hydra.Generate("synthetic", 400, 64, 3)
	if err != nil {
		t.Fatal(err)
	}
	e, err := hydra.Open("", hydra.WithData(d), hydra.WithPartialOnDeadline())
	if err != nil {
		t.Fatal(err)
	}
	h := newServer(e, time.Nanosecond, 0).handler()

	rec := postJSON(t, h, "/query", queryRequest{Query: d.Series(0), K: 1})
	if rec.Code != http.StatusOK {
		t.Fatalf("partial query: status %d, want 200: %s", rec.Code, rec.Body)
	}
	var resp queryResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if !resp.Partial {
		t.Fatalf("deadline-expired answer should be marked partial: %s", rec.Body)
	}

	// Without a deadline the same server answers exact, unmarked.
	h = newServer(e, 0, 0).handler()
	rec = postJSON(t, h, "/query", queryRequest{Query: d.Series(0), K: 1})
	if rec.Code != http.StatusOK {
		t.Fatalf("exact query: status %d: %s", rec.Code, rec.Body)
	}
	resp = queryResponse{}
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Partial || len(resp.Matches) != 1 || resp.Matches[0].ID != 0 {
		t.Fatalf("exact answer wrong or mismarked: %s", rec.Body)
	}
}

// TestServeSlowHeaderDisconnected pins the header deadline of
// newHTTPServer: a client that sends part of a request header and then
// stalls is disconnected once ReadHeaderTimeout passes, before any handler
// or admission slot is involved.
func TestServeSlowHeaderDisconnected(t *testing.T) {
	e, _ := testEngine(t)
	srv := newHTTPServer("", newServer(e, time.Second, 0).handler())
	srv.ReadHeaderTimeout = 100 * time.Millisecond
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	t.Cleanup(func() { srv.Close() })

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := io.WriteString(conn, "POST /query HTTP/1.1\r\nHost: hydra\r\n"); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := io.ReadAll(conn); err != nil {
		var ne net.Error
		if errors.As(err, &ne) && ne.Timeout() {
			t.Fatal("connection with a partial header still open after 5s")
		}
	}
}
