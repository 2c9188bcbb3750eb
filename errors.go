package hydra

import (
	"errors"
	"io/fs"

	"hydra/internal/core"
	"hydra/internal/persist"
	"hydra/internal/wal"
)

// The failure taxonomy of the public API. Every error an engine returns is
// either a context error (ctx.Err() passed through), one of these sentinels
// (wrapped, so match with errors.Is), or an input-validation error whose
// message names the bad argument. Callers route on the class, not the text:
// corrupt-snapshot errors mean rebuild (or let WithRebuildFallback do it),
// mismatch means wrong dataset, panic errors mean report a bug — the engine
// itself stays usable.
var (
	// ErrSnapshotMagic: the file is not a hydra snapshot at all.
	ErrSnapshotMagic = persist.ErrMagic
	// ErrSnapshotVersion: a hydra snapshot, but from an incompatible format
	// version. Not corruption — rebuild with the current binary.
	ErrSnapshotVersion = persist.ErrVersion
	// ErrSnapshotChecksum: a section's CRC does not match — bit rot or a
	// torn write.
	ErrSnapshotChecksum = persist.ErrChecksum
	// ErrSnapshotTruncated: the file ends mid-structure.
	ErrSnapshotTruncated = persist.ErrTruncated
	// ErrSnapshotCorrupt: the bytes are intact per CRC but structurally
	// invalid (impossible lengths, unknown section).
	ErrSnapshotCorrupt = persist.ErrCorrupt
	// ErrSnapshotMismatch: the snapshot is intact but was built over
	// different data than the configured dataset (shape or fingerprint
	// disagreement).
	ErrSnapshotMismatch = core.ErrSnapshotMismatch
	// ErrUnknownMethod: a method name no registered implementation answers
	// to (BuildIndex argument, or a snapshot naming a method this binary
	// does not have).
	ErrUnknownMethod = core.ErrUnknownMethod
	// ErrWorkerPanic: a parallel-scan worker goroutine panicked; the panic
	// was recovered at the worker boundary and the query failed typed. The
	// engine holds no cross-query state and stays usable.
	ErrWorkerPanic = core.ErrWorkerPanic
	// ErrQueryPanic: a query panicked and the panic was recovered at a
	// query-isolation boundary (QueryBatch workers, QueryStream's goroutine,
	// the serving handlers). Sibling queries and the engine are unaffected.
	ErrQueryPanic = errors.New("hydra: query panicked")
	// ErrApproxUnsupported: a non-exact query mode (WithApproxMode) against a
	// method that only answers exact queries. The five methods with
	// lower-bounding index structures — ADS+, DSTree, iSAX2+, SFA, VA+file —
	// answer every mode; the scans and exact-only trees do not.
	ErrApproxUnsupported = core.ErrApproxUnsupported
	// ErrIngestUnsupported: durable ingestion (WithIngestDir, Engine.Append)
	// against a method without incremental-insert support. UCR-Suite, ADS+,
	// iSAX2+ and DSTree ingest; the other methods are build-once.
	ErrIngestUnsupported = core.ErrIngestUnsupported
	// ErrIngestCorrupt: the ingest directory is damaged in a way that is not
	// a torn tail — intact records lie beyond a damaged one in the
	// checkpoint log or the write-ahead log, or the records leave a gap.
	// Opening the engine fails and leaves both files as they were; dropping
	// acked series to get past it is an operator's decision, never
	// recovery's.
	ErrIngestCorrupt = wal.ErrCorrupt
	// ErrIngestMismatch: the ingest directory's checkpoint log was written
	// over a different base collection (count or data fingerprint) than the
	// configured dataset. The files are intact; the context is wrong.
	ErrIngestMismatch = wal.ErrBinding
)

// IsCorruptSnapshot reports whether err means the snapshot file itself is
// damaged — wrong magic, failed checksum, truncation, or structural
// corruption. These are the errors for which quarantining the file and
// rebuilding is the right response; version skew and dataset mismatch are
// deliberately excluded (the file is fine, the context is wrong).
func IsCorruptSnapshot(err error) bool {
	return errors.Is(err, ErrSnapshotMagic) ||
		errors.Is(err, ErrSnapshotChecksum) ||
		errors.Is(err, ErrSnapshotTruncated) ||
		errors.Is(err, ErrSnapshotCorrupt)
}

// permanentLoadError reports whether a snapshot load failure cannot be cured
// by retrying: the file is corrupt, incompatible, for other data, names an
// unknown method, or does not exist. Everything else (an I/O error from the
// filesystem, an injected fault) is treated as transient and retried.
func permanentLoadError(err error) bool {
	return IsCorruptSnapshot(err) ||
		errors.Is(err, ErrSnapshotVersion) ||
		errors.Is(err, ErrSnapshotMismatch) ||
		errors.Is(err, ErrUnknownMethod) ||
		errors.Is(err, fs.ErrNotExist)
}
