package main

import (
	"errors"
	"fmt"
	"net/http"
	"sync/atomic"
	"time"

	"hydra"
)

// endpointStats counts one endpoint family's traffic for /statusz:
// admitted requests, currently in flight, and recent-latency quantiles.
type endpointStats struct {
	requests atomic.Int64
	inFlight atomic.Int64
	ring     latencyRing
}

// track opens one request's accounting window; the returned func closes it
// and records the latency. Call it exactly once, when the request finishes.
func (es *endpointStats) track() func() {
	es.requests.Add(1)
	es.inFlight.Add(1)
	start := time.Now()
	return func() {
		es.ring.add(time.Since(start))
		es.inFlight.Add(-1)
	}
}

// endpointStatsJSON is the /statusz wire form of one endpoint family's
// counters.
type endpointStatsJSON struct {
	Requests  int64 `json:"requests"`
	InFlight  int64 `json:"in_flight"`
	P50Micros int64 `json:"p50_us"`
	P99Micros int64 `json:"p99_us"`
}

func (es *endpointStats) snapshot() *endpointStatsJSON {
	return &endpointStatsJSON{
		Requests:  es.requests.Load(),
		InFlight:  es.inFlight.Load(),
		P50Micros: es.ring.quantile(0.50).Microseconds(),
		P99Micros: es.ring.quantile(0.99).Microseconds(),
	}
}

// motifRequest is the wire form of POST /motif: profile the server's single
// long series with window length M and extract the top motifs/discords.
type motifRequest struct {
	// M is the window length (required, positive).
	M int `json:"m"`
	// K is how many motif pairs and discords to extract (0 = the default 3).
	K int `json:"k,omitempty"`
	// Exclusion overrides the trivial-match radius; nil keeps the default
	// m/4, an explicit 0 excludes only the self-match.
	Exclusion *int `json:"exclusion,omitempty"`
	// Workers overrides the server engine's cap on the goroutines that walk
	// the profile's diagonals for this request (0 = the server's -workers
	// setting). Results are identical for every cap.
	Workers int `json:"workers,omitempty"`
}

// motifJSON / discordJSON are the wire forms of one extracted motif pair /
// discord.
type motifJSON struct {
	A    int     `json:"a"`
	B    int     `json:"b"`
	Dist float64 `json:"dist"`
}

type discordJSON struct {
	Index int     `json:"index"`
	Dist  float64 `json:"dist"`
}

// motifStatsJSON is the per-request cost block of a /motif answer.
type motifStatsJSON struct {
	Windows       int   `json:"windows"`
	Diagonals     int   `json:"diagonals"`
	Pairs         int64 `json:"pairs"`
	Workers       int   `json:"workers"`
	ElapsedMicros int64 `json:"elapsed_us"`
}

type motifResponse struct {
	Motifs   []motifJSON    `json:"motifs"`
	Discords []discordJSON  `json:"discords"`
	Stats    motifStatsJSON `json:"stats"`
}

// handleMotif answers POST /motif: one matrix-profile computation over the
// server's single long series, behind the same admission control as the
// query endpoints (draining and max-in-flight refuse before any work
// starts). Profiles are heavier than queries — the in-flight bound is the
// knob that keeps a motif burst from starving k-NN traffic.
func (s *server) handleMotif(w http.ResponseWriter, r *http.Request) {
	var req motifRequest
	if !readJSON(w, r, &req) {
		return
	}
	if req.M <= 0 {
		writeError(w, r, http.StatusBadRequest, fmt.Sprintf("bad request: window m must be positive, got %d", req.M))
		return
	}
	done := s.motifStats.track()
	defer done()

	opts := []hydra.Option{}
	if req.K > 0 {
		opts = append(opts, hydra.WithTopK(req.K))
	}
	if req.Exclusion != nil {
		opts = append(opts, hydra.WithExclusionZone(*req.Exclusion))
	}
	if req.Workers != 0 {
		opts = append(opts, hydra.WithWorkers(req.Workers))
	}
	ctx, cancel := s.requestContext(r)
	defer cancel()

	start := time.Now()
	p, err := s.engine.MatrixProfile(ctx, req.M, opts...)
	if err != nil {
		if errors.Is(err, hydra.ErrProfileUnsupported) {
			writeError(w, r, http.StatusNotImplemented, err.Error())
			return
		}
		writeQueryError(w, r, err)
		return
	}
	k := req.K
	if k <= 0 {
		k = 3
	}
	motifs := p.Motifs(k)
	discords := p.Discords(k)
	resp := motifResponse{
		Motifs:   make([]motifJSON, len(motifs)),
		Discords: make([]discordJSON, len(discords)),
		Stats: motifStatsJSON{
			Windows:       p.Stats.Windows,
			Diagonals:     p.Stats.Diagonals,
			Pairs:         p.Stats.Pairs,
			Workers:       p.Stats.Workers,
			ElapsedMicros: time.Since(start).Microseconds(),
		},
	}
	for i, m := range motifs {
		resp.Motifs[i] = motifJSON{A: m.A, B: m.B, Dist: m.Dist}
	}
	for i, d := range discords {
		resp.Discords[i] = discordJSON{Index: d.Index, Dist: d.Dist}
	}
	writeJSON(w, http.StatusOK, resp)
}
