// Package faultpoint implements the suite's fault-injection framework:
// named failpoints compiled permanently into the I/O, persistence and query
// paths, disarmed (and nearly free — one atomic load) in production, and
// armed programmatically by the conformance tests or via the
// HYDRA_FAULTPOINTS environment variable for whole-process fault drills.
//
// A failpoint is identified by a stable "layer/kind" name (see the Point
// constants). Arming selects how it fires:
//
//   - Arm(name) fires on every hit until disarmed;
//   - ArmN(name, n) fires on the next n hits, then disarms itself;
//   - ArmDelay(name, d) fires on every hit with an attached delay (the
//     slow-I/O points sleep for d instead of failing).
//
// The instrumented code declares what a firing means by choosing the check
// helper: Err returns a typed *Error (transient I/O failure), ShortRead
// truncates a reader (torn snapshot), Delay sleeps (slow device),
// MaybePanic panics (crashed worker), ChurnAllocs allocates garbage
// (allocation pressure), Drop blocks until the attempt's deadline (network
// blackhole), Flap fails every other hit (flapping dependency). Every
// injected fault is typed — errors wrap
// ErrInjected, panics carry *Error — so the conformance suite can prove
// that faults surface as typed errors, never as hangs or silent wrong
// answers.
//
// Environment arming (applied once at process start) uses a comma-separated
// list: "name" arms unlimited, "name=3" arms for three hits,
// "name=50ms" arms with a 50 ms delay. Example:
//
//	HYDRA_FAULTPOINTS='persist/read-error=1,storage/slow-read=5ms' hydra-serve ...
//
// All functions are safe for concurrent use; the disarmed fast path is a
// single atomic load shared by every point, cheap enough for per-block use
// inside query loops.
package faultpoint

import (
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// The failpoints threaded through the suite. Names are stable public
// contract ("layer/kind"): tests, HYDRA_FAULTPOINTS values and the
// ARCHITECTURE.md failpoint map all refer to them.
const (
	// PersistReadError makes the snapshot decoder fail with a transient
	// (non-corruption) I/O error before reading anything — the
	// NFS-blip/EIO class of failure the load retry loop absorbs.
	PersistReadError = "persist/read-error"
	// PersistShortRead truncates the snapshot stream after a few bytes, so
	// decoding fails with the typed persist.ErrTruncated — the torn-file
	// class of corruption that triggers quarantine.
	PersistShortRead = "persist/short-read"
	// PersistSlowIO delays the snapshot decoder by the armed duration
	// before it starts reading (default 10ms).
	PersistSlowIO = "persist/slow-io"
	// StorageSlowRead delays bulk reads from the simulated series file
	// (Cursor.Range — MASS's block scan) by the armed duration per firing
	// (default 10ms).
	StorageSlowRead = "storage/slow-read"
	// ScanWorkerPanic panics inside a parallel-scan worker goroutine; the
	// scan must recover it into the typed core.ErrWorkerPanic.
	ScanWorkerPanic = "scan/worker-panic"
	// ScanAllocPressure allocates a transient ~8 MB of garbage inside scan
	// workers, forcing GC churn mid-query; answers must stay bit-identical.
	ScanAllocPressure = "scan/alloc-pressure"
	// QueryPanic panics at the top of the instrumented query runner —
	// above every per-worker recovery — exercising the per-query panic
	// isolation of Engine.QueryBatch and the serve handlers.
	QueryPanic = "query/panic"
	// RPCError fails a coordinator→shard request with a typed injected
	// error before it leaves the client — the connection-refused/EIO class
	// of network failure the retry loop absorbs.
	RPCError = "rpc/error"
	// RPCSlow delays a coordinator→shard request by the armed duration
	// before sending (default 10ms) — the slow-shard drill behind hedging.
	RPCSlow = "rpc/slow"
	// RPCDrop blackholes a coordinator→shard request: the attempt blocks
	// until its own deadline expires, like a dropped packet with no RST.
	// The per-try timeout bounds the hang, so a drill degrades latency
	// without ever hanging the query.
	RPCDrop = "rpc/drop"
	// RPCFlap makes a coordinator→shard request fail on every other hit —
	// the flapping-shard drill that exercises breaker half-open churn.
	RPCFlap = "rpc/flap"
	// WALShortWrite truncates a WAL record write partway through the frame
	// and fails the append — the torn-write class of crash the recovery
	// scan must repair by truncating the tail.
	WALShortWrite = "wal/short-write"
	// WALSyncError fails the fsync after a WAL record write with a typed
	// injected error — the dying-disk class of failure an append must
	// surface as an error (the record is not acked durable).
	WALSyncError = "wal/sync-error"
	// WALTornTail writes a syntactically valid frame header with a
	// truncated payload and fails the append — the torn-tail drill: the
	// next open must detect the partial record and truncate it instead of
	// failing recovery.
	WALTornTail = "wal/torn-tail"
	// WALSlowFsync delays the WAL fsync by the armed duration (default
	// 10ms) — the slow-disk drill behind fsync-policy latency testing.
	WALSlowFsync = "wal/slow-fsync"
)

// ErrInjected is the sentinel every injected fault error wraps;
// errors.Is(err, faultpoint.ErrInjected) identifies a fault-drill failure
// wherever it surfaces.
var ErrInjected = errors.New("faultpoint: injected fault")

// Error is the typed error (and panic value) carrying the firing point's
// name. It wraps ErrInjected.
type Error struct {
	// Point is the name of the failpoint that fired.
	Point string
}

// Error implements the error interface.
func (e *Error) Error() string { return fmt.Sprintf("faultpoint: injected fault at %s", e.Point) }

// Unwrap makes errors.Is(err, ErrInjected) hold for every injected error.
func (e *Error) Unwrap() error { return ErrInjected }

// defaultDelay is the sleep applied by delay-style points armed without an
// explicit duration.
const defaultDelay = 10 * time.Millisecond

// point is the armed state of one failpoint.
type point struct {
	remaining int64 // hits left to fire; <0 = unlimited
	delay     time.Duration
}

var (
	mu     sync.Mutex
	points = map[string]*point{}
	hits   = map[string]*atomic.Int64{}
	// armed counts currently armed points: the shared fast path. Every
	// check helper returns immediately while it is zero, so disarmed
	// failpoints cost one atomic load on the hot paths they instrument.
	armed atomic.Int64
)

func arm(name string, remaining int64, delay time.Duration) {
	mu.Lock()
	defer mu.Unlock()
	if _, ok := points[name]; !ok {
		armed.Add(1)
	}
	points[name] = &point{remaining: remaining, delay: delay}
}

// Arm arms the named failpoint to fire on every hit until Disarm or Reset.
func Arm(name string) { arm(name, -1, defaultDelay) }

// ArmN arms the named failpoint to fire on the next n hits, then disarm
// itself. n <= 0 disarms.
func ArmN(name string, n int) {
	if n <= 0 {
		Disarm(name)
		return
	}
	arm(name, int64(n), defaultDelay)
}

// ArmDelay arms the named failpoint to fire on every hit with the given
// attached delay (honored by the Delay-style points).
func ArmDelay(name string, d time.Duration) { arm(name, -1, d) }

// Disarm disarms the named failpoint. Hit counts are preserved until Reset.
func Disarm(name string) {
	mu.Lock()
	defer mu.Unlock()
	if _, ok := points[name]; ok {
		delete(points, name)
		armed.Add(-1)
	}
}

// Reset disarms every failpoint and zeroes all hit counters — the test
// cleanup hook.
func Reset() {
	mu.Lock()
	defer mu.Unlock()
	armed.Add(-int64(len(points)))
	points = map[string]*point{}
	hits = map[string]*atomic.Int64{}
}

// Hits reports how many times the named failpoint has fired since the last
// Reset.
func Hits(name string) int64 {
	mu.Lock()
	defer mu.Unlock()
	if h, ok := hits[name]; ok {
		return h.Load()
	}
	return 0
}

// Fire reports whether the named failpoint fires at this hit, consuming one
// firing from an ArmN budget (the n+1-th hit no longer fires) and counting
// the hit. Disarmed points never fire and cost one atomic load.
func Fire(name string) bool {
	return fire(name) != nil
}

// fire returns the armed state when the point fires at this hit, nil
// otherwise.
func fire(name string) *point {
	if armed.Load() == 0 {
		return nil
	}
	mu.Lock()
	defer mu.Unlock()
	p, ok := points[name]
	if !ok {
		return nil
	}
	if p.remaining == 0 {
		return nil
	}
	if p.remaining > 0 {
		p.remaining--
		if p.remaining == 0 {
			delete(points, name)
			armed.Add(-1)
		}
	}
	h, ok := hits[name]
	if !ok {
		h = &atomic.Int64{}
		hits[name] = h
	}
	h.Add(1)
	return p
}

// Err returns the typed injected error when the named failpoint fires, nil
// otherwise — the check the error-style points (PersistReadError) compile
// into their read paths.
func Err(name string) error {
	if fire(name) == nil {
		return nil
	}
	return &Error{Point: name}
}

// Delay sleeps for the armed duration when the named failpoint fires — the
// slow-I/O check. The sleep is bounded by the armed duration, so a drill
// degrades latency without ever hanging.
func Delay(name string) {
	if p := fire(name); p != nil {
		time.Sleep(p.delay)
	}
}

// MaybePanic panics with a typed *Error when the named failpoint fires —
// the crashed-worker drill. Recovery layers identify injected panics by
// asserting the *Error type (or formatting it, which names the point).
func MaybePanic(name string) {
	if fire(name) != nil {
		panic(&Error{Point: name})
	}
}

// Drop blackholes the caller until ctx expires when the named failpoint
// fires, then returns ctx.Err() wrapped around the typed injected error —
// the dropped-packet drill. A caller without a deadline would hang exactly
// like a real blackhole, so the instrumented paths only check Drop where a
// per-attempt timeout is already in force. Returns nil when disarmed.
func Drop(name string, ctx context.Context) error {
	if fire(name) == nil {
		return nil
	}
	<-ctx.Done()
	return fmt.Errorf("%w: %w", &Error{Point: name}, ctx.Err())
}

// Flap returns the typed injected error on the 1st, 3rd, 5th, ... firing of
// the named failpoint and nil on the even ones — a deterministically
// flapping dependency: alternating failure and recovery, the pattern that
// churns a circuit breaker through open/half-open/closed.
func Flap(name string) error {
	if fire(name) == nil {
		return nil
	}
	mu.Lock()
	odd := hits[name].Load()%2 == 1
	mu.Unlock()
	if odd {
		return &Error{Point: name}
	}
	return nil
}

// churnSink keeps the allocation-pressure garbage alive across one firing
// so the compiler cannot elide it.
var churnSink atomic.Pointer[[]byte]

// ChurnAllocs allocates ~8 MB of transient garbage when the named failpoint
// fires, forcing allocator and GC pressure mid-query; the next firing drops
// the previous allocation.
func ChurnAllocs(name string) {
	if fire(name) != nil {
		garbage := make([]byte, 8<<20)
		for i := 0; i < len(garbage); i += 4096 {
			garbage[i] = byte(i)
		}
		churnSink.Store(&garbage)
	}
}

// ShortRead wraps r so only the first 64 bytes are readable when the named
// failpoint fires; otherwise r is returned unchanged. Decoders downstream
// observe a cleanly truncated stream — the torn-snapshot drill.
func ShortRead(name string, r io.Reader) io.Reader {
	if fire(name) == nil {
		return r
	}
	return io.LimitReader(r, 64)
}

// Armed reports whether the named failpoint is currently armed (it may
// still have firings left). Primarily a test helper.
func Armed(name string) bool {
	if armed.Load() == 0 {
		return false
	}
	mu.Lock()
	defer mu.Unlock()
	_, ok := points[name]
	return ok
}

// EnvVar is the environment variable consulted at process start for
// whole-process fault drills.
const EnvVar = "HYDRA_FAULTPOINTS"

func init() {
	armFromEnv(os.Getenv(EnvVar))
}

// armFromEnv parses and applies an EnvVar value: a comma-separated list of
// "name", "name=count" or "name=duration" entries. Malformed entries are
// ignored (a fault drill must never take the process down by itself).
func armFromEnv(spec string) {
	for _, entry := range strings.Split(spec, ",") {
		entry = strings.TrimSpace(entry)
		if entry == "" {
			continue
		}
		name, val, ok := strings.Cut(entry, "=")
		if !ok {
			Arm(name)
			continue
		}
		if n, err := strconv.Atoi(val); err == nil {
			ArmN(name, n)
			continue
		}
		if d, err := time.ParseDuration(val); err == nil {
			ArmDelay(name, d)
		}
	}
}
