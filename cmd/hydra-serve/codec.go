package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"strconv"
	"time"
)

// The request codec, shared by the single-engine server and the
// coordinator. A body is read once, through the maxRequestBytes cap, into
// one buffer; a body that cannot be read whole is refused. The
// float-carrying bodies (/query, /batch, /ingest) then take a fast path for
// the byte shapes clients send: one object of exact-case keys, each at
// most once, standard whitespace, plain numbers and plain ASCII strings,
// nothing after the object. Number arrays are parsed straight into
// []float32 with no reflection: the JSON number grammar is checked, then
// strconv.ParseFloat(s, 32) runs, the call encoding/json itself makes.
// Anything else — escapes, null, case-folded, duplicate or unknown keys,
// an out-of-range number, trailing bytes — goes to encoding/json over the
// same bytes. The fast path never refuses, so what the server accepts and
// refuses, and the values it decodes, are encoding/json's by construction
// (FuzzServeRequest checks the values). The coordinator decodes the same
// way and forwards the client's bytes when the fast path took them
// (forwardQuery, forwardBatch).

// postBody reads and decodes a POST body with decode, answering the request
// itself when ok is false: 405 for another method, 408 when the body did
// not arrive before the request deadline, 400 for a body that could not be
// read whole (one over the cap, a dropped connection) or that decode
// refuses.
func postBody[T any](w http.ResponseWriter, r *http.Request, decode func([]byte) (T, error)) (req T, ok bool) {
	if r.Method != http.MethodPost {
		writeError(w, r, http.StatusMethodNotAllowed, "POST only")
		return req, false
	}
	body, err := readBody(w, r)
	if err == nil {
		req, err = decode(body)
	}
	if err != nil {
		status := http.StatusBadRequest
		if errors.Is(err, os.ErrDeadlineExceeded) {
			status = http.StatusRequestTimeout
		}
		writeError(w, r, status, fmt.Sprintf("bad request: %v", err))
		return req, false
	}
	return req, true
}

// readBody reads r's body to its end through the maxRequestBytes cap.
//
// Admission set a read deadline for the body (gate.admitted). readBody
// clears it right after the read that returns EOF. net/http starts its
// background read of the connection inside that read, and a deadline
// firing there would cancel r.Context() mid-query, turning a -partial
// answer into a 499. net/http clears the deadline itself when it starts
// that read; clearing it here keeps the contract from resting on that.
// After a failed read the deadline stays, so it also bounds net/http's
// discard of the unread body once the handler returns.
func readBody(w http.ResponseWriter, r *http.Request) ([]byte, error) {
	src := http.MaxBytesReader(w, r.Body, maxRequestBytes)
	// A declared length sizes the buffer, plus one byte for the read that
	// returns EOF; a large one only up to 1 MiB, so a client cannot make
	// the server allocate a body it never sends.
	size := int64(512)
	if r.ContentLength > 0 {
		size = min(r.ContentLength+1, 1<<20)
	}
	buf := make([]byte, 0, size)
	for {
		n, err := src.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if err == io.EOF {
			_ = http.NewResponseController(w).SetReadDeadline(time.Time{})
			return buf, nil
		}
		if err != nil {
			return nil, err
		}
		if len(buf) == cap(buf) {
			buf = append(buf, 0)[:len(buf)]
		}
	}
}

// decodeJSON is the fallback: encoding/json's streaming decoder over the
// body. Like a decoder reading the body itself, it ignores what follows
// the first value.
func decodeJSON[T any](body []byte) (T, error) {
	var v T
	err := json.NewDecoder(bytes.NewReader(body)).Decode(&v)
	return v, err
}

// fastQuery, fastBatch and fastIngest run the fast path for one request
// type and report whether it took the body.
func fastQuery(body []byte) (queryRequest, bool) {
	var req queryRequest
	ok := fastDecode(body, fastTarget{key: "query", row: &req.Query, k: &req.K, approx: &req.approxRequest})
	return req, ok
}

func fastBatch(body []byte) (batchRequest, bool) {
	var req batchRequest
	ok := fastDecode(body, fastTarget{key: "queries", rows: &req.Queries, k: &req.K, approx: &req.approxRequest})
	return req, ok
}

func fastIngest(body []byte) (ingestRequest, bool) {
	var req ingestRequest
	ok := fastDecode(body, fastTarget{key: "series", rows: &req.Series})
	return req, ok
}

// decode decodes body by the fast path, or by encoding/json where the fast
// path does not take it.
func decode[T any](body []byte, fast func([]byte) (T, bool)) (T, error) {
	if req, ok := fast(body); ok {
		return req, nil
	}
	return decodeJSON[T](body)
}

func decodeQuery(body []byte) (queryRequest, error)   { return decode(body, fastQuery) }
func decodeBatch(body []byte) (batchRequest, error)   { return decode(body, fastBatch) }
func decodeIngest(body []byte) (ingestRequest, error) { return decode(body, fastIngest) }

// forward is a request as the coordinator decoded it and the bytes it
// sends every shard for it.
type forward[T any] struct {
	req  T
	body []byte
}

// forwarding decodes body as decode does. A body the fast path took is
// forwarded as it is: a shard reads it the same way. Any other body is
// forwarded as the decoded request marshalled again, so whitespace,
// unknown fields and bytes after the value do not travel to every shard
// on every attempt.
func forwarding[T any](body []byte, fast func([]byte) (T, bool)) (forward[T], error) {
	if req, ok := fast(body); ok {
		return forward[T]{req, body}, nil
	}
	req, err := decodeJSON[T](body)
	if err != nil {
		return forward[T]{}, err
	}
	blob, err := json.Marshal(req)
	return forward[T]{req, blob}, err
}

func forwardQuery(body []byte) (forward[queryRequest], error) { return forwarding(body, fastQuery) }
func forwardBatch(body []byte) (forward[batchRequest], error) { return forwarding(body, fastBatch) }

// fastTarget points the fast path at one request type's fields. The number
// array under key lands in row (one array) or rows (an array of them); k
// and approx are nil for a type without the scalar fields, whose keys then
// fall back.
type fastTarget struct {
	key    string
	row    *[]float32
	rows   *[][]float32
	k      *int
	approx *approxRequest
}

// fastDecode parses body into t if it has the canonical shape, and
// reports whether it did. On false t's fields may be partly set; the
// caller discards them.
func fastDecode(body []byte, t fastTarget) bool {
	s := scanner{b: body}
	if !s.skip('{') {
		return false
	}
	if s.skip('}') {
		return s.end()
	}
	var seen uint8
	for {
		key, ok := s.plainString()
		if !ok || !s.skip(':') {
			return false
		}
		s.ws()
		bit, ok := t.field(&s, key)
		if !ok || seen&bit != 0 {
			return false
		}
		seen |= bit
		if s.skip('}') {
			return s.end()
		}
		if !s.skip(',') {
			return false
		}
	}
}

// field parses the value of key into t and returns key's bit for the
// duplicate check; false for a key t does not take or a value outside the
// canonical shape.
func (t fastTarget) field(s *scanner, key []byte) (bit uint8, ok bool) {
	if string(key) == t.key {
		if t.row != nil {
			*t.row, ok = s.floats()
		} else {
			*t.rows, ok = s.floatRows()
		}
		return 1 << 0, ok
	}
	if t.k == nil {
		return 0, false
	}
	switch string(key) {
	case "k":
		*t.k, ok = s.int()
		return 1 << 1, ok
	case "mode":
		var v []byte
		v, ok = s.plainString()
		t.approx.Mode = string(v)
		return 1 << 2, ok
	case "epsilon":
		t.approx.Epsilon, ok = s.float64()
		return 1 << 3, ok
	case "delta":
		t.approx.Delta, ok = s.float64()
		return 1 << 4, ok
	case "node_budget":
		t.approx.NodeBudget, ok = s.int()
		return 1 << 5, ok
	}
	return 0, false
}

// scanner walks a body for the fast path. Every method reports false, with
// the position unspecified, on bytes outside the canonical shape.
type scanner struct {
	b []byte
	i int
}

// ws skips JSON whitespace.
func (s *scanner) ws() {
	for s.i < len(s.b) {
		switch s.b[s.i] {
		case ' ', '\t', '\n', '\r':
			s.i++
		default:
			return
		}
	}
}

// skip consumes c after optional whitespace.
func (s *scanner) skip(c byte) bool {
	s.ws()
	if s.i < len(s.b) && s.b[s.i] == c {
		s.i++
		return true
	}
	return false
}

// end reports whether only whitespace is left.
func (s *scanner) end() bool {
	s.ws()
	return s.i == len(s.b)
}

// plainString consumes a string of printable ASCII without escapes and
// returns its contents, which encoding/json would decode to the same bytes.
func (s *scanner) plainString() ([]byte, bool) {
	if !s.skip('"') {
		return nil, false
	}
	start := s.i
	for ; s.i < len(s.b); s.i++ {
		switch c := s.b[s.i]; {
		case c == '"':
			s.i++
			return s.b[start : s.i-1], true
		case c < 0x20 || c > 0x7e || c == '\\':
			return nil, false
		}
	}
	return nil, false
}

// number consumes one literal of the JSON number grammar,
// -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?, and returns it.
func (s *scanner) number() ([]byte, bool) {
	b, i := s.b, s.i
	digits := func() bool {
		start := i
		for i < len(b) && b[i] >= '0' && b[i] <= '9' {
			i++
		}
		return i > start
	}
	if i < len(b) && b[i] == '-' {
		i++
	}
	if i < len(b) && b[i] == '0' {
		i++
	} else if !digits() {
		return nil, false
	}
	if i < len(b) && b[i] == '.' {
		i++
		if !digits() {
			return nil, false
		}
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		if !digits() {
			return nil, false
		}
	}
	lit := b[s.i:i]
	s.i = i
	return lit, true
}

// int consumes a number and parses it as encoding/json does for an int
// field: base 10, no fraction or exponent, in range.
func (s *scanner) int() (int, bool) {
	lit, ok := s.number()
	if !ok {
		return 0, false
	}
	n, err := strconv.ParseInt(string(lit), 10, strconv.IntSize)
	return int(n), err == nil
}

// float64 consumes a number and parses it as encoding/json does for a
// float64 field.
func (s *scanner) float64() (float64, bool) {
	lit, ok := s.number()
	if !ok {
		return 0, false
	}
	f, err := strconv.ParseFloat(string(lit), 64)
	return f, err == nil
}

// floats consumes an array of numbers and returns them in a []float32
// allocated once at its length, each parsed as encoding/json does for a
// float32: a number out of float32 range falls back, and encoding/json
// refuses it.
func (s *scanner) floats() ([]float32, bool) {
	if !s.skip('[') {
		return nil, false
	}
	// Size the slice by the commas before the next ']'. A wrong count only
	// ever means a body outside the shape, which the strict parse below
	// then refuses. Every element takes a digit and a comma, so a count
	// above half the bytes is no number array; refusing it here keeps the
	// allocation within twice the body.
	end := bytes.IndexByte(s.b[s.i:], ']')
	if end < 0 {
		return nil, false
	}
	seg := s.b[s.i : s.i+end]
	n := 0
	if len(bytes.TrimLeft(seg, " \t\n\r")) > 0 {
		n = bytes.Count(seg, []byte{','}) + 1
	}
	if n > (len(seg)+1)/2 {
		return nil, false
	}
	vals := make([]float32, n)
	for j := range vals {
		if j > 0 && !s.skip(',') {
			return nil, false
		}
		s.ws()
		lit, ok := s.number()
		if !ok {
			return nil, false
		}
		f, err := strconv.ParseFloat(string(lit), 32)
		if err != nil {
			return nil, false
		}
		vals[j] = float32(f)
	}
	return vals, s.skip(']')
}

// floatRows consumes an array of number arrays, each as floats does.
func (s *scanner) floatRows() ([][]float32, bool) {
	if !s.skip('[') {
		return nil, false
	}
	// Size the outer slice by the row breaks before the first "]]", a
	// guess that is exact for the canonical shape and harmless otherwise:
	// each break takes three bytes, so the hint stays within a few times
	// the body.
	hint := 0
	if end := bytes.Index(s.b[s.i:], []byte("]]")); end >= 0 {
		hint = bytes.Count(s.b[s.i:s.i+end], []byte("],[")) + 1
	}
	rows := make([][]float32, 0, hint)
	if s.skip(']') {
		return rows, true
	}
	for {
		row, ok := s.floats()
		if !ok {
			return nil, false
		}
		rows = append(rows, row)
		if s.skip(']') {
			return rows, true
		}
		if !s.skip(',') {
			return nil, false
		}
	}
}
