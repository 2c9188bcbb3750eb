package main

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"hydra"
)

// ingestTestServer builds an ingest-enabled UCR-Suite server over a small
// collection.
func ingestTestServer(t *testing.T, dir string) (*server, *hydra.Dataset) {
	t.Helper()
	d, err := hydra.Generate("synthetic", 200, 64, 5)
	if err != nil {
		t.Fatal(err)
	}
	e, err := hydra.Open("", hydra.WithData(d), hydra.WithIngestDir(dir))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { e.Close() })
	return newServer(e, time.Second, 0), d
}

// TestServeIngest pins the /ingest endpoint contract: a 200 means the batch
// is in the collection (Total grows), queries immediately see it, /statusz
// reports the WAL lag, and bad input is refused precisely.
func TestServeIngest(t *testing.T) {
	s, _ := ingestTestServer(t, t.TempDir())
	h := s.handler()

	row := make([]float32, 64)
	for i := range row {
		row[i] = float32(i%7) - 3
	}
	rec := postJSON(t, h, "/ingest", ingestRequest{Series: [][]float32{row, row}})
	if rec.Code != http.StatusOK {
		t.Fatalf("ingest status %d: %s", rec.Code, rec.Body)
	}
	var resp ingestResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Appended != 2 || resp.Total != 202 {
		t.Fatalf("ingest response %+v, want 2 appended, 202 total", resp)
	}

	// The appended series is query-visible at once: its z-normalized self is
	// its own nearest neighbor at distance 0 (the engine stores appended
	// series z-normalized; NewWorkload normalizes the query identically).
	w, err := hydra.NewWorkload([][]float32{row})
	if err != nil {
		t.Fatal(err)
	}
	qrec := postJSON(t, h, "/query", queryRequest{Query: w.Query(0), K: 1})
	if qrec.Code != http.StatusOK {
		t.Fatalf("query status %d: %s", qrec.Code, qrec.Body)
	}
	var qresp queryResponse
	if err := json.Unmarshal(qrec.Body.Bytes(), &qresp); err != nil {
		t.Fatal(err)
	}
	if len(qresp.Matches) != 1 || qresp.Matches[0].ID < 200 || qresp.Matches[0].Dist != 0 {
		t.Fatalf("query after ingest: %+v, want an appended ID at distance 0", qresp.Matches)
	}

	// /statusz reports the ingestion counters.
	sreq := httptest.NewRequest(http.MethodGet, "/statusz", nil)
	srec := httptest.NewRecorder()
	h.ServeHTTP(srec, sreq)
	if srec.Code != http.StatusOK {
		t.Fatalf("statusz status %d", srec.Code)
	}
	var st engineStatuszResponse
	if err := json.Unmarshal(srec.Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	if st.Ingest == nil || st.Ingest.Appended != 2 || st.Ingest.WALLagSeries != 2 || st.Ingest.SyncPolicy != "always" {
		t.Fatalf("statusz ingest block %+v, want 2 appended/lagged under policy always", st.Ingest)
	}
	// A checkpoint moves the lag into the checkpoint log: one record of the
	// two series behind its 24-byte header (4 + 2 + 1 + 2×64×4 + 4 bytes).
	if err := s.engine.Checkpoint(context.Background()); err != nil {
		t.Fatal(err)
	}
	srec = httptest.NewRecorder()
	h.ServeHTTP(srec, sreq)
	st = engineStatuszResponse{}
	if err := json.Unmarshal(srec.Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	if st.Ingest == nil || st.Ingest.WALLagSeries != 0 || st.Ingest.CheckpointRecords != 1 || st.Ingest.CheckpointBytes != 24+523 {
		t.Fatalf("statusz ingest block after a checkpoint: %+v, want no lag and one 523-byte checkpoint record", st.Ingest)
	}

	// Bad input: wrong length and empty batch refuse with 400, nothing
	// applied.
	if rec := postJSON(t, h, "/ingest", ingestRequest{Series: [][]float32{{1, 2}}}); rec.Code != http.StatusBadRequest {
		t.Fatalf("short series: status %d", rec.Code)
	}
	if rec := postJSON(t, h, "/ingest", ingestRequest{}); rec.Code != http.StatusBadRequest {
		t.Fatalf("empty batch: status %d", rec.Code)
	}
	if s.engine.Len() != 202 {
		t.Fatalf("refused ingests changed the collection: %d", s.engine.Len())
	}
}

// TestServeIngestDisabled: without -ingest-dir the endpoint answers 501 and
// /statusz omits the ingest block.
func TestServeIngestDisabled(t *testing.T) {
	e, d := testEngine(t)
	h := newServer(e, time.Second, 0).handler()
	rec := postJSON(t, h, "/ingest", ingestRequest{Series: [][]float32{d.Series(0)}})
	if rec.Code != http.StatusNotImplemented {
		t.Fatalf("status %d, want 501", rec.Code)
	}
	sreq := httptest.NewRequest(http.MethodGet, "/statusz", nil)
	srec := httptest.NewRecorder()
	h.ServeHTTP(srec, sreq)
	var st engineStatuszResponse
	if err := json.Unmarshal(srec.Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	if st.Ingest != nil {
		t.Fatalf("read-only engine reported ingest block %+v", st.Ingest)
	}
}

// TestServeIngestDraining: a draining server refuses writes like reads —
// admission control covers /ingest.
func TestServeIngestDraining(t *testing.T) {
	s, d := ingestTestServer(t, t.TempDir())
	h := s.handler()
	s.startDrain()
	rec := postJSON(t, h, "/ingest", ingestRequest{Series: [][]float32{d.Series(0)}})
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("draining ingest: status %d, want 503", rec.Code)
	}
	if s.engine.Len() != 200 {
		t.Fatalf("draining ingest applied: %d series", s.engine.Len())
	}
}

// TestServeIngestRecovery closes the loop over a real ingest directory: a
// server appends over HTTP, its engine closes, and a fresh engine over the
// same directory serves the appended series.
func TestServeIngestRecovery(t *testing.T) {
	dir := t.TempDir()
	s, _ := ingestTestServer(t, dir)
	h := s.handler()
	row := make([]float32, 64)
	for i := range row {
		row[i] = float32((i * 13) % 11)
	}
	if rec := postJSON(t, h, "/ingest", ingestRequest{Series: [][]float32{row}}); rec.Code != http.StatusOK {
		t.Fatalf("ingest status %d", rec.Code)
	}
	if err := s.engine.Close(); err != nil {
		t.Fatal(err)
	}

	d, err := hydra.Generate("synthetic", 200, 64, 5)
	if err != nil {
		t.Fatal(err)
	}
	e, err := hydra.Open("", hydra.WithData(d), hydra.WithIngestDir(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	if e.Len() != 201 {
		t.Fatalf("recovered %d series, want 201", e.Len())
	}
	w, err := hydra.NewWorkload([][]float32{row})
	if err != nil {
		t.Fatal(err)
	}
	matches, err := e.Query(context.Background(), w.Query(0), 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(matches) != 1 || matches[0].ID != 200 || matches[0].Dist != 0 {
		t.Fatalf("recovered query: %+v, want ID 200 at distance 0", matches)
	}
}

// TestServeRefusesNonFinite: JSON has no NaN or infinity, and a number past
// the float32 range fails to decode, so a request that would carry a
// non-finite value into /query, /batch or /ingest is answered 400 and
// reaches no engine: nothing is appended.
func TestServeRefusesNonFinite(t *testing.T) {
	s, d := ingestTestServer(t, t.TempDir())
	h := s.handler()
	row := func(v string) string {
		vals := make([]string, d.SeriesLen())
		for i := range vals {
			vals[i] = "0.5"
		}
		vals[9] = v
		return "[" + strings.Join(vals, ",") + "]"
	}
	for _, v := range []string{"NaN", "Infinity", "-Infinity", "1e39", "-1e39"} {
		for _, c := range []struct{ path, body string }{
			{"/query", `{"k":3,"query":` + row(v) + `}`},
			{"/batch", `{"k":3,"queries":[` + row("0.25") + `,` + row(v) + `]}`},
			{"/ingest", `{"series":[` + row(v) + `]}`},
		} {
			req := httptest.NewRequest(http.MethodPost, c.path, strings.NewReader(c.body))
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, req)
			if rec.Code != http.StatusBadRequest {
				t.Errorf("%s with %s: status %d, want 400: %s", c.path, v, rec.Code, rec.Body)
			}
		}
	}
	if st, _ := s.engine.IngestStats(); st.Appended != 0 || s.engine.Len() != d.Len() {
		t.Fatalf("refused ingests appended %d series", st.Appended)
	}
}
