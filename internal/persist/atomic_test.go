package persist

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"testing"
	"time"
)

func TestAtomicWriteCreatesDirsAndFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "a", "b", "out.json")
	if err := WriteFileAtomic(path, []byte("hello\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "hello\n" {
		t.Fatalf("got %q", got)
	}
	if _, err := os.Stat(path + ".tmp"); !errors.Is(err, os.ErrNotExist) {
		t.Fatal("temporary file left behind after success")
	}
}

func TestAtomicWriteReplacesWholeFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "out")
	if err := WriteFileAtomic(path, []byte("a long first version"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := WriteFileAtomic(path, []byte("v2"), 0o644); err != nil {
		t.Fatal(err)
	}
	got, _ := os.ReadFile(path)
	if string(got) != "v2" {
		t.Fatalf("stale bytes survived the rewrite: %q", got)
	}
}

// TestAtomicWriteFailedFillLeavesTargetUntouched pins the crash-safety
// contract: a fill that errors mid-stream removes the temporary and leaves
// the previous file bit-identical.
func TestAtomicWriteFailedFillLeavesTargetUntouched(t *testing.T) {
	path := filepath.Join(t.TempDir(), "out")
	if err := WriteFileAtomic(path, []byte("good"), 0o644); err != nil {
		t.Fatal(err)
	}
	boom := errors.New("boom")
	err := AtomicWrite(path, 0o644, func(w io.Writer) error {
		w.Write([]byte("partial garbage"))
		return boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	got, _ := os.ReadFile(path)
	if string(got) != "good" {
		t.Fatalf("failed write damaged the target: %q", got)
	}
	if _, err := os.Stat(path + ".tmp"); !errors.Is(err, os.ErrNotExist) {
		t.Fatal("temporary file left behind after failure")
	}
}

func TestSyncDir(t *testing.T) {
	if err := SyncDir(t.TempDir()); err != nil {
		t.Fatalf("SyncDir on a real directory: %v", err)
	}
	if err := SyncDir(filepath.Join(t.TempDir(), "missing")); err == nil {
		t.Fatal("SyncDir on a missing directory succeeded")
	}
}

func TestQuarantineRenamesAside(t *testing.T) {
	path := filepath.Join(t.TempDir(), "idx.hydx")
	if err := os.WriteFile(path, []byte("corrupt"), 0o644); err != nil {
		t.Fatal(err)
	}
	qpath, err := Quarantine(path)
	if err != nil {
		t.Fatal(err)
	}
	if qpath != path+QuarantineExt {
		t.Fatalf("qpath = %q", qpath)
	}
	if _, err := os.Stat(path); !errors.Is(err, os.ErrNotExist) {
		t.Fatal("original path should be free after quarantine")
	}
	got, err := os.ReadFile(qpath)
	if err != nil || string(got) != "corrupt" {
		t.Fatalf("quarantined bytes not preserved: %q (%v)", got, err)
	}

	// A second quarantine of a newer corrupt file replaces the old evidence.
	if err := os.WriteFile(path, []byte("corrupt2"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Quarantine(path); err != nil {
		t.Fatal(err)
	}
	got, _ = os.ReadFile(qpath)
	if string(got) != "corrupt2" {
		t.Fatalf("quarantine should replace earlier copy: %q", got)
	}
}

func TestQuarantineMissingFileErrors(t *testing.T) {
	if _, err := Quarantine(filepath.Join(t.TempDir(), "absent")); err == nil {
		t.Fatal("quarantining a missing file should error")
	}
}

// TestSweepQuarantinedCapsCountAndAge pins the quarantine hygiene bounds:
// stale files go by age, the newest `keep` survive the count cap, and
// non-quarantine files are never touched.
func TestSweepQuarantinedCapsCountAndAge(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, age time.Duration) string {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte("x"), 0o644); err != nil {
			t.Fatal(err)
		}
		mod := time.Now().Add(-age)
		if err := os.Chtimes(path, mod, mod); err != nil {
			t.Fatal(err)
		}
		return path
	}
	stale := write("old.hydx"+QuarantineExt, 40*24*time.Hour)
	var fresh []string
	for i := 0; i < 6; i++ {
		// Newer files get larger i: f5 is the newest.
		fresh = append(fresh, write(fmt.Sprintf("f%d.hydx%s", i, QuarantineExt), time.Duration(6-i)*time.Hour))
	}
	keepMe := write("live.hydx", 99*24*time.Hour) // not quarantined: never swept

	removed := SweepQuarantined(dir, 0, 3)
	if removed != 4 { // the stale one + 3 beyond the count cap
		t.Fatalf("removed %d files, want 4", removed)
	}
	if _, err := os.Stat(stale); !os.IsNotExist(err) {
		t.Fatal("stale quarantined file survived")
	}
	for i, path := range fresh {
		_, err := os.Stat(path)
		if i < 3 && !os.IsNotExist(err) {
			t.Fatalf("older file f%d should be swept by the count cap", i)
		}
		if i >= 3 && err != nil {
			t.Fatalf("newest file f%d swept: %v", i, err)
		}
	}
	if _, err := os.Stat(keepMe); err != nil {
		t.Fatal("sweep touched a non-quarantined file")
	}

	// A missing directory is a no-op, not an error path.
	if n := SweepQuarantined(filepath.Join(dir, "nope"), 0, 0); n != 0 {
		t.Fatalf("sweep of missing dir removed %d", n)
	}
}
