// Atomic file helpers shared by every durable artifact the suite writes:
// index snapshots (core.SaveSnapshotFile) and hydra-bench's BENCH json both
// go through write-then-rename, so a crash mid-write can never leave a
// truncated file under the final name — later runs see either the previous
// complete artifact or the new one, nothing in between. Quarantine is the
// counterpart for files that turned out corrupt on read: rename-aside
// preserves the evidence while clearing the path for a rebuilt replacement.

package persist

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// AtomicWrite writes a file at path by streaming fill into a temporary
// sibling and renaming it into place only after a successful close: readers
// never observe a partial file, and a crash leaves at most a *.tmp behind.
// Parent directories are created as needed. On any error the temporary file
// is removed and path is untouched.
//
// AtomicWrite guarantees atomicity against process crash, not durability
// against power loss: the data and the rename may still sit in the page
// cache when it returns.
func AtomicWrite(path string, perm os.FileMode, fill func(io.Writer) error) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	tmp := path + TempExt
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, perm)
	if err != nil {
		return err
	}
	if err := fill(f); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return err
	}
	return nil
}

// WriteFileAtomic is AtomicWrite for a prepared byte slice — the
// os.WriteFile shape with the write-then-rename guarantee.
func WriteFileAtomic(path string, data []byte, perm os.FileMode) error {
	return AtomicWrite(path, perm, func(w io.Writer) error {
		_, err := w.Write(data)
		return err
	})
}

// SyncDir fsyncs the directory at dir, making renames and file creations
// inside it durable — the step that pins a directory entry, where a plain
// file fsync pins only the file's bytes.
func SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	serr := d.Sync()
	if cerr := d.Close(); serr == nil {
		serr = cerr
	}
	return serr
}

// TempExt is the suffix of AtomicWrite's in-flight temporary files; a
// process dying between create and rename leaves one behind.
const TempExt = ".tmp"

// QuarantineExt is the suffix appended to a snapshot file set aside by
// Quarantine. A quarantined snapshot is never loaded again (no loader looks
// for the extension); it stays on disk for diagnosis until swept.
const QuarantineExt = ".quarantined"

// Quarantine renames a corrupt snapshot aside to path+QuarantineExt,
// replacing any earlier quarantined copy, and returns the new name. The
// original path is free afterwards, so a rebuild can reseed it.
func Quarantine(path string) (string, error) {
	qpath := path + QuarantineExt
	if err := os.Rename(path, qpath); err != nil {
		return "", fmt.Errorf("persist: quarantining %s: %w", path, err)
	}
	return qpath, nil
}

// Quarantine hygiene defaults: SweepQuarantined callers that pass zero get
// these bounds. Evidence older than a week has been diagnosed or never will
// be, and a handful of recent corpses is all a postmortem needs — beyond
// that, repeated corruption would turn the quarantine into a disk leak.
const (
	// DefaultQuarantineKeep is how many quarantined files a directory
	// retains (newest first) when SweepQuarantined is called with keep <= 0.
	DefaultQuarantineKeep = 4
	// DefaultQuarantineAge is the retention age applied when SweepQuarantined
	// is called with maxAge <= 0.
	DefaultQuarantineAge = 7 * 24 * time.Hour
)

// SweepQuarantined caps the accumulation of *.quarantined files in dir:
// files older than maxAge are removed, and of the remainder only the keep
// newest (by modification time) survive. Zero maxAge/keep select the
// package defaults. It returns how many files were removed. A missing or
// unreadable directory is not an error — the sweep is hygiene, not a
// load-bearing step, and must never fail a start on its own.
func SweepQuarantined(dir string, maxAge time.Duration, keep int) int {
	if maxAge <= 0 {
		maxAge = DefaultQuarantineAge
	}
	if keep <= 0 {
		keep = DefaultQuarantineKeep
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0
	}
	type aged struct {
		path string
		mod  time.Time
	}
	var files []aged
	cutoff := time.Now().Add(-maxAge)
	removed := 0
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), QuarantineExt) {
			continue
		}
		path := filepath.Join(dir, e.Name())
		info, err := e.Info()
		if err != nil {
			continue
		}
		if info.ModTime().Before(cutoff) {
			if os.Remove(path) == nil {
				removed++
			}
			continue
		}
		files = append(files, aged{path: path, mod: info.ModTime()})
	}
	if len(files) > keep {
		sort.Slice(files, func(i, j int) bool { return files[i].mod.After(files[j].mod) })
		for _, f := range files[keep:] {
			if os.Remove(f.path) == nil {
				removed++
			}
		}
	}
	return removed
}
