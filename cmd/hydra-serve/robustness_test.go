package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"net/http/httptest"
	"net/http/httptrace"
	"os"
	"strings"
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

// TestServeTrickledBodyTimesOut pins that -timeout bounds the body read:
// with -max-inflight 1 -timeout 200ms, a client that sends its headers and
// 16 of 100,000 body bytes and then stalls holds the one admission slot
// only until the deadline, and is answered 408. A well-formed /query gets
// 200 within about a second, with or without the access log, and a second
// request on the same keep-alive connection, sent after the first one's
// deadline has passed, still succeeds.
func TestServeTrickledBodyTimesOut(t *testing.T) {
	e, d := testEngine(t)
	body, err := json.Marshal(queryRequest{Query: d.Series(0), K: 1})
	if err != nil {
		t.Fatal(err)
	}
	log.SetOutput(io.Discard)
	t.Cleanup(func() { log.SetOutput(os.Stderr) })
	for _, accessLog := range []bool{false, true} {
		t.Run(fmt.Sprintf("access-log=%v", accessLog), func(t *testing.T) {
			app := newServer(e, 200*time.Millisecond, 1)
			app.accessLog = accessLog
			srv := newHTTPServer("", app.handler())
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			go srv.Serve(ln)
			t.Cleanup(func() { srv.Close() })
			base := "http://" + ln.Addr().String()

			stalled, err := net.Dial("tcp", ln.Addr().String())
			if err != nil {
				t.Fatal(err)
			}
			defer stalled.Close()
			start := time.Now()
			if _, err := fmt.Fprintf(stalled, "POST /query HTTP/1.1\r\nHost: hydra\r\nContent-Type: application/json\r\nContent-Length: 100000\r\n\r\n%s", `{"query":[0.1,0.`); err != nil {
				t.Fatal(err)
			}
			waitFor(t, "the stalled request to be admitted", func() bool { return len(app.sem) == 1 })

			client := &http.Client{Transport: &http.Transport{}}
			defer client.CloseIdleConnections()
			var conns []bool // GotConn's Reused, per request
			post := func() int {
				ctx := httptrace.WithClientTrace(context.Background(), &httptrace.ClientTrace{
					GotConn: func(info httptrace.GotConnInfo) { conns = append(conns, info.Reused) },
				})
				req, err := http.NewRequestWithContext(ctx, http.MethodPost, base+"/query", bytes.NewReader(body))
				if err != nil {
					t.Fatal(err)
				}
				resp, err := client.Do(req)
				if err != nil {
					t.Fatal(err)
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				return resp.StatusCode
			}
			for status := post(); status != http.StatusOK; status = post() {
				if status != http.StatusServiceUnavailable {
					t.Fatalf("query beside a stalled body: status %d, want 503 then 200", status)
				}
				if time.Since(start) > time.Second {
					t.Fatal("a stalled body still holds the admission slot after 1s")
				}
				time.Sleep(10 * time.Millisecond)
			}
			stalled.SetReadDeadline(time.Now().Add(2 * time.Second))
			if line, err := bufio.NewReader(stalled).ReadString('\n'); err != nil || !strings.Contains(line, " 408 ") {
				t.Fatalf("stalled request answered %q (%v), want 408", line, err)
			}

			// Past the first request's deadline, the same connection serves
			// the next request: its read deadline went with the body.
			time.Sleep(300 * time.Millisecond)
			if status := post(); status != http.StatusOK {
				t.Fatalf("second request on a kept-alive connection: status %d", status)
			}
			if n := len(conns); n < 2 || !conns[n-1] {
				t.Fatalf("second request did not reuse the connection: %v", conns)
			}
		})
	}
}

// TestServePartialAfterBodyRead pins that the read deadline admission sets
// for the body is gone once the body is in. Left in place, it fires in
// net/http's background read of the connection at the instant the query's
// own deadline does, cancels the request context, and a query that
// overruns -timeout can end Canceled (499) instead of with its -partial
// answer. The query here is MASS slowed by the storage/slow-read
// faultpoint past a 50 ms -timeout; the body carries Content-Length, so
// its last bytes and EOF come in one read, and every try must answer 200
// with "partial":true.
func TestServePartialAfterBodyRead(t *testing.T) {
	d, err := hydra.Generate("synthetic", 400, 64, 3)
	if err != nil {
		t.Fatal(err)
	}
	e, err := hydra.BuildIndex(context.Background(), "MASS", hydra.WithData(d), hydra.WithPartialOnDeadline())
	if err != nil {
		t.Fatal(err)
	}
	body, err := json.Marshal(queryRequest{Query: d.Series(0), K: 1})
	if err != nil {
		t.Fatal(err)
	}
	srv := newHTTPServer("", newServer(e, 50*time.Millisecond, 0).handler())
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	t.Cleanup(func() { srv.Close() })
	faultpoint.ArmDelay(faultpoint.StorageSlowRead, 30*time.Millisecond)
	defer faultpoint.Reset()

	client := &http.Client{Transport: &http.Transport{}}
	defer client.CloseIdleConnections()
	for try := 0; try < 10; try++ {
		resp, err := client.Post("http://"+ln.Addr().String()+"/query", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var qr queryResponse
		err = json.NewDecoder(resp.Body).Decode(&qr)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK || err != nil || !qr.Partial {
			t.Fatalf("try %d: status %d, partial %v (%v); want 200 with a partial answer", try, resp.StatusCode, qr.Partial, err)
		}
	}
}

// TestServeDrainInFlight runs serveUntilDone in-process: cancelling the
// serving context while a query is in flight (admitted, its body half
// sent) flips /readyz to 503 and refuses a new /query with 503 and
// Retry-After, while the in-flight query still completes with 200; then
// serveUntilDone returns.
func TestServeDrainInFlight(t *testing.T) {
	e, d := testEngine(t)
	app := newServer(e, 5*time.Second, 4)
	h := app.handler()
	srv := newHTTPServer("", h)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	errCh := make(chan error, 1)
	go func() { errCh <- srv.Serve(ln) }()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	served := make(chan struct{})
	go func() {
		defer close(served)
		serveUntilDone(ctx, errCh, srv, app.startDrain, func(format string, args ...any) { t.Errorf(format, args...) })
	}()

	body, err := json.Marshal(queryRequest{Query: d.Series(9), K: 1})
	if err != nil {
		t.Fatal(err)
	}
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	half := len(body) / 2
	if _, err := fmt.Fprintf(conn, "POST /query HTTP/1.1\r\nHost: hydra\r\nContent-Length: %d\r\n\r\n%s", len(body), body[:half]); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "the query to be admitted", func() bool { return len(app.sem) == 1 })

	cancel()
	waitFor(t, "the drain to start", app.draining.Load)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/readyz", nil))
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("readyz while draining: status %d, want 503", rec.Code)
	}
	rec = postJSON(t, h, "/query", queryRequest{Query: d.Series(9), K: 1})
	if rec.Code != http.StatusServiceUnavailable || rec.Header().Get("Retry-After") == "" {
		t.Fatalf("new query while draining: status %d, Retry-After %q, want 503 with one", rec.Code, rec.Header().Get("Retry-After"))
	}

	if _, err := conn.Write(body[half:]); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	resp, err := http.ReadResponse(bufio.NewReader(conn), nil)
	if err != nil {
		t.Fatal(err)
	}
	var qr queryResponse
	if err := json.NewDecoder(resp.Body).Decode(&qr); err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("in-flight query: status %d (%v), want 200", resp.StatusCode, err)
	}
	if len(qr.Matches) != 1 || qr.Matches[0].ID != 9 {
		t.Fatalf("in-flight query answered %+v, want series 9", qr.Matches)
	}
	select {
	case <-served:
	case <-time.After(5 * time.Second):
		t.Fatal("serveUntilDone did not return after the drain")
	}
}

// waitFor polls cond for up to 2 s.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for start := time.Now(); !cond(); time.Sleep(time.Millisecond) {
		if time.Since(start) > 2*time.Second {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}
