package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"testing"
	"testing/iotest"
	"time"

	"hydra"
)

// canonicalBodies are request bodies as clients marshal them: a 256-value
// /query, a /batch of 16 with approximate-mode fields, an /ingest of 4.
func canonicalBodies(t testing.TB) map[string][]byte {
	t.Helper()
	d, err := hydra.Generate("synthetic", 16, 256, 1)
	if err != nil {
		t.Fatal(err)
	}
	rows := make([][]float32, 16)
	for i := range rows {
		rows[i] = d.Series(i)
	}
	bodies := map[string][]byte{}
	for path, v := range map[string]any{
		"/query":  queryRequest{Query: d.Series(3), K: 10},
		"/batch":  batchRequest{Queries: rows, K: 10, approxRequest: approxRequest{Mode: "delta-eps", Epsilon: 0.5, Delta: 0.9, NodeBudget: 40}},
		"/ingest": ingestRequest{Series: rows[:4]},
	} {
		blob, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		bodies[path] = blob
	}
	return bodies
}

// edgeBodies are the shapes around the fast path's edges: the ones it takes
// (fast true) and the ones it leaves to encoding/json, accepted or not.
var edgeBodies = []struct {
	path string
	body string
	fast bool
}{
	{"/query", `{"query":[1,-2.5,3e2,4E-3,-0,0.0e+0],"k":3}`, true},
	{"/query", " \t\r\n{ \"query\" : [ 1 , 2 ] , \"k\" : 3 }\n", true},
	{"/query", `{"query":[],"k":0,"mode":"budget","node_budget":7,"epsilon":0.5,"delta":1}`, true},
	{"/query", `{}`, true},
	{"/query", `{"query":[1,2]}  x`, false},  // trailing bytes: encoding/json ignores them
	{"/query", `{"query":[1,2]}{}`, false},   // a second value
	{"/query", `{"K":3,"Query":[1]}`, false}, // case-folded keys
	{"/query", `{"k":1,"k":2,"query":[1]}`, false},
	{"/query", `{"query":[1],"query":[2,3]}`, false},
	{"/query", `{"query":null,"k":null}`, false},
	{"/query", `{"query":[1e39]}`, false},                                    // out of float32 range: refused
	{"/query", `{"query":[1e-50]}`, true},                                    // underflows to 0, as encoding/json takes it
	{"/query", `{"query":[340282356779733661637539395458142568448]}`, false}, // 39 digits, halfway past the largest float32: rounds out of range
	{"/query", `{"query":[34028235677973366163753939545814256844.8]}`, true},
	{"/query", `{"query":[3.4028235e38,-3.4028236e38]}`, false},
	{"/query", `{"query":[01]}`, false},
	{"/query", `{"query":[1.]}`, false},
	{"/query", `{"query":[.5]}`, false},
	{"/query", `{"query":[+1]}`, false},
	{"/query", `{"query":[1,]}`, false},
	{"/query", `{"query":[1 2]}`, false},
	{"/query", `{"query":["1"]}`, false},
	{"/query", `{"query":[1],"k":1.5}`, false},
	{"/query", `{"query":[1],"k":99999999999999999999}`, false},
	{"/query", `{"query":[1],"extra":{"a":[1]}}`, false}, // unknown field: ignored
	{"/query", `{"query":[1],"mode":"\u0062udget"}`, false},
	{"/query", `{"qu\u0065ry":[1]}`, false},
	{"/query", `[1,2]`, false},
	{"/query", ``, false},
	{"/query", `{"query":[1,2]`, false},
	{"/batch", `{"queries":[[1,2],[3,4]],"k":2,"mode":"ng"}`, true},
	{"/batch", `{"queries":[ [ ] , [1] ]}`, true},
	{"/batch", `{"queries":[]}`, true},
	{"/batch", `{"queries":[[1],null]}`, false},
	{"/batch", `{"queries":[1,2]}`, false},
	{"/batch", `{"queries":[[[1]]]}`, false},
	{"/ingest", `{"series":[[1,2,3],[4,5,6]]}`, true},
	{"/ingest", `{"series":[[1]],"k":1}`, false}, // no k on /ingest: ignored
	{"/ingest", `{"series":[[1]],"series":[[2]]}`, false},
}

// TestDecodeAgreesWithEncodingJSON pins the codec's contract on the edge
// bodies and on canonical ones: the fast path takes exactly the shapes it
// claims, and every body decodes to what encoding/json decodes, or is
// refused when encoding/json refuses it.
func TestDecodeAgreesWithEncodingJSON(t *testing.T) {
	cases := edgeBodies
	for path, body := range canonicalBodies(t) {
		cases = append(cases, struct {
			path string
			body string
			fast bool
		}{path, string(body), true})
	}
	for _, c := range cases {
		body := []byte(c.body)
		if fast := takesFastPath(c.path, body); fast != c.fast {
			t.Errorf("%s %.60q: fast path takes it %v, want %v", c.path, c.body, fast, c.fast)
		}
		if msg := disagreement(c.path, body); msg != "" {
			t.Errorf("%s %.60q: %s", c.path, c.body, msg)
		}
	}
}

// FuzzServeRequest is the differential check of the codec against
// encoding/json over /query, /batch and /ingest bodies: both accept or
// both refuse, and accepted values are equal to the bit. What the
// coordinator forwards for a /query or /batch body decodes to the same
// values, and is the client's bytes when the fast path took them.
func FuzzServeRequest(f *testing.F) {
	paths := []string{"/query", "/batch", "/ingest"}
	index := map[string]uint8{"/query": 0, "/batch": 1, "/ingest": 2}
	for _, c := range edgeBodies {
		f.Add(index[c.path], []byte(c.body))
	}
	for path, body := range canonicalBodies(f) {
		f.Add(index[path], body)
	}
	f.Fuzz(func(t *testing.T, path uint8, body []byte) {
		p := paths[int(path)%len(paths)]
		if msg := disagreement(p, body); msg != "" {
			t.Fatalf("%s %q: %s", p, body, msg)
		}
	})
}

// takesFastPath reports whether the fast path decodes body on its own.
func takesFastPath(path string, body []byte) (ok bool) {
	switch path {
	case "/query":
		_, ok = fastQuery(body)
	case "/batch":
		_, ok = fastBatch(body)
	default:
		_, ok = fastIngest(body)
	}
	return ok
}

// disagreement decodes body for path with the codec and with
// encoding/json's streaming decoder, and describes how they differ ("" if
// they agree).
func disagreement(path string, body []byte) string {
	switch path {
	case "/query":
		return compareDecode(body, decodeQuery) + compareForward(body, forwardQuery, fastQuery)
	case "/batch":
		return compareDecode(body, decodeBatch) + compareForward(body, forwardBatch, fastBatch)
	}
	return compareDecode(body, decodeIngest)
}

func compareDecode[T any](body []byte, decode func([]byte) (T, error)) string {
	got, gotErr := decode(body)
	var want T
	wantErr := json.NewDecoder(bytes.NewReader(body)).Decode(&want)
	switch {
	case (gotErr == nil) != (wantErr == nil):
		return "codec error " + errString(gotErr) + ", encoding/json error " + errString(wantErr)
	case gotErr == nil && !bitsEqual(reflect.ValueOf(got), reflect.ValueOf(want)):
		return "values differ"
	}
	return ""
}

// compareForward checks what the coordinator forwards for body: it is
// refused when encoding/json refuses body; otherwise its request is
// encoding/json's, the bytes it sends decode to that request, and they are
// body itself exactly when the fast path takes body.
func compareForward[T any](body []byte, forward func([]byte) (forward[T], error), fast func([]byte) (T, bool)) string {
	got, gotErr := forward(body)
	var want T
	wantErr := json.NewDecoder(bytes.NewReader(body)).Decode(&want)
	if (gotErr == nil) != (wantErr == nil) {
		return "forward error " + errString(gotErr) + ", encoding/json error " + errString(wantErr)
	}
	if gotErr != nil {
		return ""
	}
	var sent T
	if err := json.Unmarshal(got.body, &sent); err != nil {
		return "forwarded bytes do not decode: " + err.Error()
	}
	_, isFast := fast(body)
	switch {
	case !bitsEqual(reflect.ValueOf(got.req), reflect.ValueOf(want)):
		return "forwarded request differs from encoding/json's"
	case !bitsEqual(reflect.ValueOf(sent), reflect.ValueOf(want)):
		return "forwarded bytes decode to other values"
	case isFast != bytes.Equal(got.body, body):
		return fmt.Sprintf("fast path %v, but forwards the client's bytes %v", isFast, !isFast)
	}
	return ""
}

func errString(err error) string {
	if err == nil {
		return "none"
	}
	return err.Error()
}

// bitsEqual compares two decoded requests field by field: floats by their
// bits, so -0 is not 0, and nil slices apart from empty ones.
func bitsEqual(a, b reflect.Value) bool {
	switch a.Kind() {
	case reflect.Float32, reflect.Float64:
		return math.Float64bits(a.Float()) == math.Float64bits(b.Float())
	case reflect.Int:
		return a.Int() == b.Int()
	case reflect.String:
		return a.String() == b.String()
	case reflect.Slice:
		if a.IsNil() != b.IsNil() || a.Len() != b.Len() {
			return false
		}
		for i := 0; i < a.Len(); i++ {
			if !bitsEqual(a.Index(i), b.Index(i)) {
				return false
			}
		}
		return true
	case reflect.Struct:
		for i := 0; i < a.NumField(); i++ {
			if !bitsEqual(a.Field(i), b.Field(i)) {
				return false
			}
		}
		return true
	}
	panic("bitsEqual: unexpected kind " + a.Kind().String())
}

// TestDecodeQueryAllocs pins the codec's allocation budget: reading and
// decoding a canonical 256-value /query allocates the body buffer and the
// []float32 it returns, nothing else.
func TestDecodeQueryAllocs(t *testing.T) {
	body := canonicalBodies(t)["/query"]
	rd := bytes.NewReader(body)
	req := httptest.NewRequest(http.MethodPost, "/query", rd)
	w := &deadlineRecorder{ResponseRecorder: httptest.NewRecorder()}
	allocs := testing.AllocsPerRun(50, func() {
		rd.Reset(body)
		if _, ok := postBody(w, req, decodeQuery); !ok {
			t.Fatal("canonical /query refused")
		}
	})
	if allocs > 2 {
		t.Errorf("reading and decoding a 256-value /query: %.0f allocations, want 2 (body, []float32)", allocs)
	}
}

func BenchmarkDecodeQuery(b *testing.B) {
	benchmarkPostBody(b, "/query", decodeQuery)
}

func BenchmarkDecodeBatch16(b *testing.B) {
	benchmarkPostBody(b, "/batch", decodeBatch)
}

// benchmarkPostBody times what a handler pays to have its request: the
// body read through the cap and the decode.
func benchmarkPostBody[T any](b *testing.B, path string, decode func([]byte) (T, error)) {
	body := canonicalBodies(b)[path]
	rd := bytes.NewReader(body)
	req := httptest.NewRequest(http.MethodPost, path, rd)
	w := &deadlineRecorder{ResponseRecorder: httptest.NewRecorder()}
	b.SetBytes(int64(len(body)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rd.Reset(body)
		if _, ok := postBody(w, req, decode); !ok {
			b.Fatal("refused")
		}
	}
}

// TestReadBodyClearsDeadline: once a body is in, whole, the read deadline
// admission set is cleared, with a declared length or without, so it
// cannot fire in net/http's background read mid-query. The body reader
// returns the last bytes and EOF in one read, as net/http's does for a
// declared length. After a read that failed on the deadline the deadline
// stays, to bound the server's discard of the rest, and the request is
// answered 408.
func TestReadBodyClearsDeadline(t *testing.T) {
	body := canonicalBodies(t)["/query"]
	for _, length := range []int64{int64(len(body)), -1} {
		w := &deadlineRecorder{ResponseRecorder: httptest.NewRecorder(), deadline: time.Now()}
		req := httptest.NewRequest(http.MethodPost, "/query", iotest.DataErrReader(bytes.NewReader(body)))
		req.ContentLength = length
		if _, ok := postBody(w, req, decodeQuery); !ok || !w.deadline.IsZero() {
			t.Errorf("Content-Length %d: decoded %v, read deadline left at %v", length, ok, w.deadline)
		}
	}

	w := &deadlineRecorder{ResponseRecorder: httptest.NewRecorder(), deadline: time.Now()}
	req := httptest.NewRequest(http.MethodPost, "/query", io.MultiReader(bytes.NewReader(body[:16]), iotest.ErrReader(os.ErrDeadlineExceeded)))
	req.ContentLength = int64(len(body))
	if _, ok := postBody(w, req, decodeQuery); ok || w.Code != http.StatusRequestTimeout || w.deadline.IsZero() {
		t.Errorf("body cut by the deadline: decoded %v, status %d, read deadline %v; want refused, 408, deadline kept", ok, w.Code, w.deadline)
	}
}

// deadlineRecorder is a recorder that takes read deadlines, as the
// server's connection does, and keeps the last one set.
type deadlineRecorder struct {
	*httptest.ResponseRecorder
	deadline time.Time
}

func (d *deadlineRecorder) SetReadDeadline(t time.Time) error {
	d.deadline = t
	return nil
}
