package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"sync"
	"syscall"
	"time"

	"hydra"
)

// Serving workloads: hydra-serve is built from source, spawned on loopback
// ports, driven over HTTP and stopped again; nothing of cmd/hydra-serve is
// imported, the JSON shapes below are its wire contract.

const (
	serveSeries   = 20000 // serve-single: small on purpose, so HTTP+JSON is a large share
	shardedSeries = 40000 // serve-sharded: 20 000 per shard
	// shardedQueries is serve-sharded's list length. Its op_p99_ms is the
	// latency of the list's two or three hardest queries, so across seeds it
	// moved with which queries were drawn (16 % at 256 queries, 6 % at 512).
	shardedQueries = 512
	batchSize      = 16
	readyDeadline  = 30 * time.Second
)

type queryRequest struct {
	Query []float32 `json:"query"`
	K     int       `json:"k"`
}

type batchRequest struct {
	Queries [][]float32 `json:"queries"`
	K       int         `json:"k"`
}

type matchJSON struct {
	ID   int     `json:"id"`
	Dist float64 `json:"dist"`
}

type queryResponse struct {
	Matches []matchJSON `json:"matches"`
	Partial bool        `json:"partial"`
}

type batchResponse struct {
	Results []struct {
		Matches []matchJSON `json:"matches"`
		Error   string      `json:"error"`
	} `json:"results"`
	Partial bool `json:"partial"`
}

// statusz is the part of the coordinator's /statusz the benchmark reads.
type statusz struct {
	Shards []struct {
		Requests     int64 `json:"requests"`
		Retries      int64 `json:"retries"`
		Hedges       int64 `json:"hedges"`
		BreakerOpens int64 `json:"breaker_opens"`
	} `json:"shards"`
}

func toMatches(ms []matchJSON) []hydra.Match {
	out := make([]hydra.Match, len(ms))
	for i, m := range ms {
		out[i] = hydra.Match{ID: m.ID, Dist: m.Dist}
	}
	return out
}

// buildServe compiles cmd/hydra-serve into bench/out/bin. The go tool skips
// the work when the binary is up to date, so only the first run pays.
func buildServe(e *env) (string, error) {
	bin := filepath.Join(e.outDir, "bin", "hydra-serve")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/hydra-serve")
	cmd.Dir = e.root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("building hydra-serve: %v\n%s", err, out)
	}
	return bin, nil
}

// freeAddr returns a loopback address whose port was free a moment ago: it
// binds port 0 and releases it for the server to take.
func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := l.Addr().String()
	return addr, l.Close()
}

// proc is one spawned hydra-serve.
type proc struct {
	cmd  *exec.Cmd
	addr string
	log  *os.File
	done chan struct{} // closed when the process has been waited for
	once sync.Once
}

// startServe spawns bin on a fresh loopback port with args, logging to
// dir/<name>.log, and registers its stop with the run's exit cleanups.
func startServe(e *env, bin, dir, name string, args ...string) (*proc, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	logFile, err := os.Create(filepath.Join(dir, name+".log"))
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, append([]string{"-addr", addr, "-access-log=false"}, args...)...)
	cmd.Stdout, cmd.Stderr = logFile, logFile
	dieWithParent(cmd)
	if err := cmd.Start(); err != nil {
		logFile.Close()
		return nil, fmt.Errorf("starting %s: %w", name, err)
	}
	p := &proc{cmd: cmd, addr: addr, log: logFile, done: make(chan struct{})}
	go func() {
		_ = cmd.Wait() // the exit status of a server we stop ourselves says nothing
		close(p.done)
	}()
	e.onExit(p.stop)
	return p, nil
}

// waitReady polls /readyz until it answers 200, the process dies, or the
// deadline passes.
func (p *proc) waitReady() error {
	deadline := time.Now().Add(readyDeadline)
	for time.Now().Before(deadline) {
		select {
		case <-p.done:
			return fmt.Errorf("hydra-serve on %s exited before becoming ready (see %s)", p.addr, p.log.Name())
		default:
		}
		resp, err := http.Get("http://" + p.addr + "/readyz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	return fmt.Errorf("hydra-serve on %s not ready after %s", p.addr, readyDeadline)
}

// stop ends the process — SIGTERM for a graceful drain, SIGKILL if that
// takes too long — and returns once it has been waited for. Safe to call
// more than once.
func (p *proc) stop() {
	p.once.Do(func() {
		_ = p.cmd.Process.Signal(syscall.SIGTERM) // fails only if it already exited
		select {
		case <-p.done:
		case <-time.After(5 * time.Second):
			_ = p.cmd.Process.Kill()
			<-p.done
		}
		p.log.Close()
	})
}

// lifePeakMB estimates the peak resident set of one server's whole life —
// loading, then serving — from the start-up peaks of the run's set-up
// repetitions of it (the last being the one that went on to serve) and that
// last one's peak after the measured phase. A loading server's peak follows
// its collector's timing (a shard read 100 to 137 MB from one start to the
// next), so one draw of it is not the answer. If serving never took the last
// repetition above its own start-up peak, the estimate is the median start-up
// peak. If it did, final is the level serving reaches, each repetition would
// have peaked at the higher of its start-up peak and that level, and the
// estimate is the median of those.
func lifePeakMB(startPeaks []float64, final float64) float64 {
	if final <= startPeaks[len(startPeaks)-1] {
		return median(startPeaks)
	}
	lives := make([]float64, len(startPeaks))
	for i, s := range startPeaks {
		lives[i] = max(s, final)
	}
	return median(lives)
}

// fleetPeaks collects, per process of a fleet, the start-up peaks of every
// set-up repetition.
type fleetPeaks [][]float64

// ready records the peaks of a fleet that has just become ready.
func (fp *fleetPeaks) ready(fleet ...*proc) {
	if *fp == nil {
		*fp = make(fleetPeaks, len(fleet))
	}
	for i, p := range fleet {
		(*fp)[i] = append((*fp)[i], peakRSSMB(p.cmd.Process.Pid))
	}
}

// lifeMB is the fleet's peak_rss_mb: the sum of its processes' lifePeakMB,
// fleet being the last repetition's, after the measured phase.
func (fp fleetPeaks) lifeMB(fleet ...*proc) float64 {
	var mb float64
	for i, p := range fleet {
		mb += lifePeakMB(fp[i], peakRSSMB(p.cmd.Process.Pid))
	}
	return mb
}

// client is one keep-alive HTTP connection to a server.
type client struct {
	hc   *http.Client
	base string
}

func newClient(addr string) *client {
	return &client{
		hc:   &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1}, Timeout: 30 * time.Second},
		base: "http://" + addr,
	}
}

// post sends body and returns the status and the whole response body.
func (c *client) post(path string, body []byte) (int, []byte, error) {
	resp, err := c.hc.Post(c.base+path, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

// getJSON fetches path into v.
func (c *client) getJSON(path string, v any) error {
	resp, err := c.hc.Get(c.base + path)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: status %d", path, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// httpStats counts what a traced serving run saw on the wire.
type httpStats struct {
	mu                  sync.Mutex
	status5xx, partials int
	reqBytes, respBytes []float64
}

// call is one request as its caller sees it: encode, round trip, decode,
// each its own span under parent. It returns the total latency.
func call(c *client, path string, req, resp any, tr *tracer, parent int64, class string, hs *httpStats) (time.Duration, int, error) {
	start := time.Now()
	sp := tr.begin(parent, class, "json_encode")
	body, err := json.Marshal(req)
	tr.end(sp)
	if err != nil {
		return 0, 0, err
	}
	sp = tr.begin(parent, class, "http_rtt")
	status, raw, err := c.post(path, body)
	tr.end(sp)
	if err != nil {
		return time.Since(start), status, err
	}
	sp = tr.begin(parent, class, "json_decode")
	if status == http.StatusOK {
		err = json.Unmarshal(raw, resp)
	}
	tr.end(sp)
	dur := time.Since(start)
	if hs != nil {
		hs.mu.Lock()
		if status >= 500 {
			hs.status5xx++
		}
		hs.reqBytes = append(hs.reqBytes, float64(len(body)))
		hs.respBytes = append(hs.respBytes, float64(len(raw)))
		hs.mu.Unlock()
	}
	return dur, status, err
}

// queryOp is one POST /query, graded against want. A non-200 status or an
// unrequested partial answer is a failure.
func queryOp(c *client, class string, q []float32, want []hydra.Match, tr *tracer, op int64, hs *httpStats) opResult {
	var resp queryResponse
	dur, status, err := call(c, "/query", &queryRequest{Query: q, K: topK}, &resp, tr, op, class, hs)
	if err != nil || status != http.StatusOK || resp.Partial {
		if hs != nil && resp.Partial {
			hs.mu.Lock()
			hs.partials++
			hs.mu.Unlock()
		}
		return opResult{dur: dur}
	}
	ok, recall := exactResult(toMatches(resp.Matches), want, nil, sameAnswer)
	return opResult{dur: dur, ok: ok, recall: recall}
}

func runServeSingle(e *env) (*result, error) {
	r := newResult("serve-single")
	dir, err := e.workloadDir(r.workload)
	if err != nil {
		return nil, err
	}
	dataPath, snapPath := filepath.Join(dir, "collection.hyd"), filepath.Join(dir, hydra.SnapshotName("ADS+"))
	var qs [][]float32
	var ref [][]hydra.Match
	var inproc *hydra.Engine
	var bin string
	if r.prepareS, err = timed(func() error {
		if bin, err = buildServe(e); err != nil {
			return err
		}
		d, err := genCollection(serveSeries, e.seed)
		if err != nil {
			return err
		}
		qs = genQueries(d, listLen, e.seed)
		if err := d.Save(dataPath); err != nil {
			return err
		}
		// The in-process engine over the same snapshot is both the exact
		// reference and the engine share of the traced overhead figure.
		if inproc, err = hydra.BuildIndex(context.Background(), "ADS+", hydra.WithData(d)); err != nil {
			return err
		}
		if err := inproc.SaveIndex(snapPath); err != nil {
			return err
		}
		if ref, err = referenceAnswers(inproc, qs); err != nil {
			return err
		}
		return checkAgainstNaive(d, qs, ref)
	}); err != nil {
		return nil, err
	}

	// Set-up is exec to /readyz: the server reads the collection and loads
	// the snapshot.
	var srv *proc
	var peaks fleetPeaks
	if err := repeatSetup(r, 7, func() error {
		if srv, err = startServe(e, bin, dir, "server", "-data", dataPath, "-index", snapPath); err != nil {
			return err
		}
		return srv.waitReady()
	}, func() error {
		peaks.ready(srv)
		srv.stop()
		return nil
	}); err != nil {
		return nil, err
	}
	defer srv.stop()
	peaks.ready(srv)

	// Two callers, each on its own keep-alive connection and its own half
	// of the query list: first every query alone, then the same queries in
	// batches of 16.
	const clients = 2
	half := len(qs) / clients
	conns := make([]*client, clients)
	var hs *httpStats // set after the warm-up, so it counts measured requests only
	loop := &closedLoop{classes: []classSpec{{"query", true}, {"batch16", false}}, rounds: make([][]opSpec, clients)}
	for c := range conns {
		conns[c] = newClient(srv.addr)
		for i := 0; i < half; i++ {
			loop.rounds[c] = append(loop.rounds[c], opSpec{class: 0, arg: c*half + i})
		}
		for lo := 0; lo < half; lo += batchSize {
			loop.rounds[c] = append(loop.rounds[c], opSpec{class: 1, arg: c*half + lo})
		}
	}
	var paired struct {
		mu               sync.Mutex
		engineMs, overMs []float64
	}
	loop.do = func(c int, o opSpec, tr *tracer) opResult {
		if o.class == 0 {
			op := tr.begin(0, "query", "op")
			res := queryOp(conns[c], "query", qs[o.arg], ref[o.arg], tr, op, hs)
			if tr != nil {
				// The paired measurement: the same query on the in-process
				// engine, right after its served twin.
				sp := tr.begin(op, "query", "inproc.engine.query")
				start := time.Now()
				_, err := inproc.Query(context.Background(), qs[o.arg], topK)
				eng := time.Since(start)
				tr.end(sp)
				paired.mu.Lock()
				paired.engineMs = append(paired.engineMs, float64(eng.Nanoseconds())/1e6)
				paired.overMs = append(paired.overMs, float64((res.dur-eng).Nanoseconds())/1e6)
				paired.mu.Unlock()
				res.ok = res.ok && err == nil
			}
			tr.end(op)
			return res
		}
		op := tr.begin(0, "batch16", "op")
		var resp batchResponse
		dur, status, err := call(conns[c], "/batch", &batchRequest{Queries: qs[o.arg : o.arg+batchSize], K: topK}, &resp, tr, op, "batch16", hs)
		tr.end(op)
		ok := err == nil && status == http.StatusOK && !resp.Partial && len(resp.Results) == batchSize
		for i := 0; ok && i < batchSize; i++ {
			ok = resp.Results[i].Error == "" && sameAnswer(toMatches(resp.Results[i].Matches), ref[o.arg+i])
		}
		return opResult{dur: dur, ok: ok, recall: math.NaN()}
	}
	loop.warm(r)
	if e.trace {
		hs = &httpStats{}
	}
	measure(e, r, loop)
	r.rssMB = peaks.lifeMB(srv)
	if !e.trace {
		return r, nil
	}

	r.layers["server.rtt_p50_ms.query"] = median(r.tr.durationsMs("http_rtt", "query"))
	r.layers["server.rtt_p50_ms.batch16"] = median(r.tr.durationsMs("http_rtt", "batch16"))
	r.layers["server.engine_p50_ms"] = median(paired.engineMs)
	r.layers["server.overhead_p50_ms"] = median(paired.overMs)
	r.layers["server.json_req_encode_us"] = median(r.tr.durationsMs("json_encode", "query")) * 1e3
	r.layers["server.json_resp_decode_us"] = median(r.tr.durationsMs("json_decode", "query")) * 1e3
	r.layers["server.req_bytes"] = median(hs.reqBytes)
	r.layers["server.resp_bytes"] = median(hs.respBytes)
	r.layers["server.ready_s"] = median(r.setupS)
	r.layers["server.status_5xx"] = float64(hs.status5xx)
	r.layers["server.partials"] = float64(hs.partials)
	r.layers["server.rss_mb"] = r.rssMB

	// What a /batch of 64 gains from two batch workers, in-process.
	seq, err := inproc.WithQueryOptions(hydra.WithBatchWorkers(1))
	if err != nil {
		return nil, err
	}
	par, err := inproc.WithQueryOptions(hydra.WithBatchWorkers(2))
	if err != nil {
		return nil, err
	}
	batchS := func(eng *hydra.Engine) (float64, error) {
		var runs []float64
		for lo := 0; lo+64 <= len(qs); lo += 64 {
			s, err := timed(func() error {
				_, err := eng.QueryBatch(context.Background(), qs[lo:lo+64], topK)
				return err
			})
			if err != nil {
				return 0, err
			}
			runs = append(runs, s)
		}
		return median(runs), nil
	}
	seqS, err := batchS(seq)
	if err != nil {
		return nil, err
	}
	parS, err := batchS(par)
	if err != nil {
		return nil, err
	}
	r.layers["hydra.batch_speedup_w2"] = seqS / parS
	return r, nil
}

func runServeSharded(e *env) (*result, error) {
	r := newResult("serve-sharded")
	dir, err := e.workloadDir(r.workload)
	if err != nil {
		return nil, err
	}
	dataPath := filepath.Join(dir, "collection.hyd")
	var qs [][]float32
	var ref [][]hydra.Match
	var bin string
	if r.prepareS, err = timed(func() error {
		if bin, err = buildServe(e); err != nil {
			return err
		}
		d, err := genCollection(shardedSeries, e.seed)
		if err != nil {
			return err
		}
		qs = genQueries(d, shardedQueries, e.seed)
		if err := d.Save(dataPath); err != nil {
			return err
		}
		// Sharded must equal single: the reference is one engine over the
		// whole file.
		whole, err := hydra.BuildIndex(context.Background(), "ADS+", hydra.WithData(d))
		if err != nil {
			return err
		}
		if ref, err = referenceAnswers(whole, qs); err != nil {
			return err
		}
		return checkAgainstNaive(d, qs, ref)
	}); err != nil {
		return nil, err
	}

	// Set-up is exec of the first shard to the coordinator's /readyz: both
	// shards read the file and build their half, then the coordinator
	// starts with every default (hedging, retries, breaker) in place.
	var fleet []*proc
	var peaks fleetPeaks
	stopFleet := func() error {
		for _, p := range fleet {
			p.stop()
		}
		fleet = nil
		return nil
	}
	defer stopFleet()
	if err := repeatSetup(r, 7, func() error {
		for i := 0; i < 2; i++ {
			p, err := startServe(e, bin, dir, fmt.Sprintf("shard%d", i), "-data", dataPath, "-method", "ADS+", "-shard", fmt.Sprintf("%d/2", i))
			if err != nil {
				return err
			}
			fleet = append(fleet, p)
		}
		for _, p := range fleet {
			if err := p.waitReady(); err != nil {
				return err
			}
		}
		coord, err := startServe(e, bin, dir, "coordinator", "-shards", fleet[0].addr+","+fleet[1].addr)
		if err != nil {
			return err
		}
		fleet = append(fleet, coord)
		return coord.waitReady()
	}, func() error {
		peaks.ready(fleet...)
		return stopFleet()
	}); err != nil {
		return nil, err
	}
	peaks.ready(fleet...)
	coord := newClient(fleet[2].addr)
	shards := []*client{newClient(fleet[0].addr), newClient(fleet[1].addr)}

	// One caller: a request keeps the coordinator or both shards busy, never
	// three processes on two cores.
	var hs *httpStats // set after the warm-up, so it counts measured requests only
	var slowestMs, overMs []float64
	loop := &closedLoop{
		classes: []classSpec{{"query", true}},
		rounds:  [][]opSpec{roundOf(0, len(qs))},
		do: func(_ int, o opSpec, tr *tracer) opResult {
			op := tr.begin(0, "query", "op")
			res := queryOp(coord, "query", qs[o.arg], ref[o.arg], tr, op, hs)
			if tr != nil {
				// The same query sent to each shard directly: the slowest
				// one is the floor under the coordinator's latency.
				var slowest time.Duration
				for i, sc := range shards {
					sp := tr.begin(op, "query", fmt.Sprintf("shard[%d].rtt", i))
					var resp queryResponse
					d, status, err := call(sc, "/query", &queryRequest{Query: qs[o.arg], K: topK}, &resp, nil, 0, "", nil)
					tr.end(sp)
					res.ok = res.ok && err == nil && status == http.StatusOK
					slowest = max(slowest, d)
				}
				slowestMs = append(slowestMs, float64(slowest.Nanoseconds())/1e6)
				overMs = append(overMs, float64((res.dur-slowest).Nanoseconds())/1e6)
			}
			tr.end(op)
			return res
		},
	}
	loop.warm(r)
	var before statusz
	if e.trace {
		hs = &httpStats{}
		if err := coord.getJSON("/statusz", &before); err != nil {
			return nil, err
		}
	}
	measure(e, r, loop)
	r.rssMB = peaks.lifeMB(fleet...)
	if !e.trace {
		return r, nil
	}

	var after statusz
	if err := coord.getJSON("/statusz", &after); err != nil {
		return nil, err
	}
	var requests, hedges, retries, opens float64
	for i := range after.Shards {
		requests += float64(after.Shards[i].Requests - before.Shards[i].Requests)
		hedges += float64(after.Shards[i].Hedges - before.Shards[i].Hedges)
		retries += float64(after.Shards[i].Retries - before.Shards[i].Retries)
		opens += float64(after.Shards[i].BreakerOpens - before.Shards[i].BreakerOpens)
	}
	// /statusz counted both phases of the traced run; hs saw one request to
	// the coordinator per operation of each.
	coordQueries := float64(len(hs.reqBytes))
	r.layers["coordinator.rtt_p50_ms"] = median(r.tr.durationsMs("http_rtt", "query"))
	r.layers["coordinator.slowest_shard_p50_ms"] = median(slowestMs)
	r.layers["coordinator.overhead_p50_ms"] = median(overMs)
	r.layers["coordinator.shard_requests_per_query"] = requests / coordQueries
	r.layers["coordinator.hedges"] = hedges
	r.layers["coordinator.retries"] = retries
	r.layers["coordinator.breaker_opens"] = opens
	r.layers["coordinator.ready_s"] = median(r.setupS)
	r.layers["coordinator.rss_mb"] = peakRSSMB(fleet[2].cmd.Process.Pid)
	probeGather(r, ref)
	return r, nil
}
