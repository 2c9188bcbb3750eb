package main

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"log"
	"math/big"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"
)

// Request identity, access logging and admission, shared by the
// single-engine server and the coordinator. Every request gets an ID: the client's X-Request-Id
// if it sent one (so a caller's trace survives the hop — the coordinator
// forwards its ID to every shard), a fresh random one otherwise. The ID is
// echoed in the X-Request-Id response header, carried in every JSON error
// body, and printed on the access log line, so one identifier follows a
// query from client to coordinator to shard to log.

// requestIDHeader is the wire header carrying the request ID in both
// directions.
const requestIDHeader = "X-Request-Id"

// ctxKeyRequestID keys the request ID in the request context.
type ctxKeyRequestID struct{}

// newRequestID returns a fresh 16-hex-digit random ID.
func newRequestID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		// crypto/rand failing is a broken platform; serve with a zero ID
		// rather than refuse traffic.
		return "0000000000000000"
	}
	return hex.EncodeToString(b[:])
}

// requestID extracts the request's ID from its context ("" outside the
// identify middleware).
func requestID(r *http.Request) string {
	id, _ := r.Context().Value(ctxKeyRequestID{}).(string)
	return id
}

// statusRecorder captures the status code a handler wrote so the access log
// can report it.
type statusRecorder struct {
	http.ResponseWriter
	status int
}

func (s *statusRecorder) WriteHeader(code int) {
	s.status = code
	s.ResponseWriter.WriteHeader(code)
}

func (s *statusRecorder) Write(b []byte) (int, error) {
	if s.status == 0 {
		s.status = http.StatusOK
	}
	return s.ResponseWriter.Write(b)
}

// Unwrap lets http.ResponseController reach the connection under the
// recorder, for the read deadline admission sets on the body.
func (s *statusRecorder) Unwrap() http.ResponseWriter { return s.ResponseWriter }

// identify is the outermost middleware: it attaches the request ID
// (accepted from the client or freshly generated), echoes it in the
// response header, and with logAccess writes one access log line per
// request — method, path, status, duration, request ID. Load-test
// topologies run without the line (-access-log=false), where per-request
// logging would dominate the tail.
func identify(next http.Handler, logAccess bool) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id := r.Header.Get(requestIDHeader)
		if id == "" {
			id = newRequestID()
		}
		w.Header().Set(requestIDHeader, id)
		r = r.WithContext(context.WithValue(r.Context(), ctxKeyRequestID{}, id))
		if !logAccess {
			next.ServeHTTP(w, r)
			return
		}
		rec := &statusRecorder{ResponseWriter: w}
		start := time.Now()
		next.ServeHTTP(rec, r)
		if rec.status == 0 {
			rec.status = http.StatusOK
		}
		log.Printf("hydra-serve: %s %s %d %s rid=%s", r.Method, r.URL.Path, rec.status,
			time.Since(start).Round(time.Microsecond), id)
	})
}

// gate is the admission state both serving modes embed: the per-request
// deadline (-timeout), the bound on concurrently admitted query requests
// (-max-inflight) and the drain flag.
type gate struct {
	// timeout is the per-request deadline (0 = none), counted from
	// admission: the body read and the query both run under it.
	timeout time.Duration
	// sem holds one slot per admitted request (nil = unlimited): a request
	// that cannot take a slot immediately is refused with 503 + Retry-After
	// instead of queueing, so overload degrades into fast, honest rejections
	// rather than a growing latency tail.
	sem chan struct{}
	// draining flips when shutdown starts: query endpoints and /readyz
	// refuse new work (load balancers stop routing here) while in-flight
	// requests finish under http.Server.Shutdown.
	draining atomic.Bool
}

// newGate returns the admission state for a per-request deadline and an
// in-flight bound; maxInFlight 0 means unlimited.
func newGate(timeout time.Duration, maxInFlight int) *gate {
	g := &gate{timeout: timeout}
	if maxInFlight > 0 {
		g.sem = make(chan struct{}, maxInFlight)
	}
	return g
}

// startDrain marks the gate as draining: query endpoints and /readyz answer
// 503 from here on while already-admitted requests run to completion.
// Called before http.Server.Shutdown so load balancers see the instance go
// not-ready the moment the drain begins.
func (g *gate) startDrain() { g.draining.Store(true) }

// admitted gates a query endpoint: draining refuses outright, and a request
// that cannot take an in-flight slot without waiting is refused with 503 +
// Retry-After — shedding load immediately beats queueing it into a timeout.
// An admitted request runs under the -timeout deadline from here: r's
// context carries it, and so does the connection's read deadline until
// readBody has the body, so a client that trickles its body cannot hold
// the slot past -timeout.
func (g *gate) admitted(next http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if g.draining.Load() {
			w.Header().Set("Retry-After", retryAfterJitter(retryAfterSpread))
			writeError(w, r, http.StatusServiceUnavailable, "draining")
			return
		}
		if g.sem != nil {
			select {
			case g.sem <- struct{}{}:
				defer func() { <-g.sem }()
			default:
				w.Header().Set("Retry-After", retryAfterJitter(retryAfterSpread))
				writeError(w, r, http.StatusServiceUnavailable,
					fmt.Sprintf("overloaded: %d requests in flight", cap(g.sem)))
				return
			}
		}
		if g.timeout > 0 {
			deadline := time.Now().Add(g.timeout)
			if r.Body != http.NoBody {
				// Not every ResponseWriter reaches a connection (a test
				// recorder does not); there is no body read to bound then.
				_ = http.NewResponseController(w).SetReadDeadline(deadline)
			}
			ctx, cancel := context.WithDeadline(r.Context(), deadline)
			defer cancel()
			r = r.WithContext(ctx)
		}
		next(w, r)
	}
}

// serverTiming collects a handler's phases for the Server-Timing response
// header, in milliseconds. Each lap closes the phase running since the
// previous lap, or since the handler started, so the phases are
// contiguous and their sum is at most the handler's wall time.
type serverTiming struct {
	mark   time.Time
	header []byte
}

func startTiming() serverTiming { return serverTiming{mark: time.Now()} }

// lap ends the running phase under name and starts the next one.
func (t *serverTiming) lap(name string) {
	now := time.Now()
	if len(t.header) > 0 {
		t.header = append(t.header, ", "...)
	}
	t.header = append(t.header, name...)
	t.header = append(t.header, ";dur="...)
	// Whole microseconds, rounded down, keep the sum within the wall time.
	t.header = strconv.AppendFloat(t.header, float64(now.Sub(t.mark).Microseconds())/1e3, 'f', 3, 64)
	t.mark = now
}

// write sets the header; call it before the response status is written.
func (t *serverTiming) write(w http.ResponseWriter) {
	w.Header().Set("Server-Timing", string(t.header))
}

// retryAfterJitter returns a randomized Retry-After value in [1, spread]
// seconds. A fixed value would tell every refused client to come back at
// the same instant — synchronized retries that re-create the very overload
// that refused them; the jitter spreads the retry wave out.
func retryAfterJitter(spread int64) string {
	n, err := rand.Int(rand.Reader, big.NewInt(spread))
	if err != nil {
		return "1"
	}
	return strconv.FormatInt(1+n.Int64(), 10)
}
