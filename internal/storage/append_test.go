package storage

import (
	"sync"
	"testing"

	"hydra/internal/series"
)

func appendFixture(n, length int) (*SeriesFile, *Counters) {
	c := &Counters{}
	data := make([]series.Series, n)
	for i := range data {
		s := make(series.Series, length)
		for j := range s {
			s[j] = float32(i*length + j)
		}
		data[i] = s
	}
	return NewSeriesFile(data, c), c
}

func TestSeriesFileAppend(t *testing.T) {
	const length = 8
	f, c := appendFixture(3, length)
	before := c.Snapshot()

	batch := make([]float32, 2*length)
	for i := range batch {
		batch[i] = float32(1000 + i)
	}
	if first := f.Append(batch); first != 3 {
		t.Fatalf("first index %d, want 3", first)
	}
	if f.Len() != 5 {
		t.Fatalf("Len %d, want 5", f.Len())
	}
	// The appended values are readable bit-exact, and the whole extent is
	// still one contiguous flat range.
	for i := 0; i < 2*length; i++ {
		if got := f.Peek(3 + i/length)[i%length]; got != batch[i] {
			t.Fatalf("appended value %d = %v, want %v", i, got, batch[i])
		}
	}
	cur := f.Cursor()
	flat := cur.Range(0, 5)
	if len(flat) != 5*length {
		t.Fatalf("range over grown file: %d values", len(flat))
	}
	// The append was charged as one sequential write.
	d := c.Snapshot().Sub(before)
	if d.SeqBytes < int64(len(batch))*BytesPerValue {
		t.Fatalf("append charged %d seq bytes, want >= %d", d.SeqBytes, len(batch)*BytesPerValue)
	}

	// Growth across many batches stays correct (copy-on-grow plus in-place).
	for k := 0; k < 50; k++ {
		one := make([]float32, length)
		for j := range one {
			one[j] = float32(k)
		}
		f.Append(one)
	}
	if f.Len() != 55 {
		t.Fatalf("Len %d after growth, want 55", f.Len())
	}
	if got := f.Peek(54)[0]; got != 49 {
		t.Fatalf("last appended series starts with %v, want 49", got)
	}
	if got := f.Peek(0)[0]; got != 0 {
		t.Fatalf("base series corrupted: %v", got)
	}
}

func TestSeriesFileAppendValidation(t *testing.T) {
	f, _ := appendFixture(2, 8)
	for _, bad := range [][]float32{nil, make([]float32, 7), make([]float32, 9)} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("append of %d values did not panic", len(bad))
				}
			}()
			f.Append(bad)
		}()
	}
}

// TestSeriesFileAppendConcurrentReaders drives appends against concurrent
// readers under the race detector: every reader must observe a consistent
// (arena, count) pair — lengths in range, values intact.
func TestSeriesFileAppendConcurrentReaders(t *testing.T) {
	const length = 16
	f, _ := appendFixture(4, length)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				n := f.Len()
				if n < 4 {
					t.Errorf("Len shrank to %d", n)
					return
				}
				cur := f.Cursor()
				if cur.Len() < n {
					t.Errorf("cursor pinned %d series, Len was %d", cur.Len(), n)
					return
				}
				flat := cur.Range(0, n)
				if len(flat) != n*length {
					t.Errorf("Range(0,%d) returned %d values", n, len(flat))
					return
				}
				s := f.Peek(n - 1)
				if len(s) != length {
					t.Errorf("Peek returned %d values", len(s))
					return
				}
				for i := 0; i < cur.Len(); i += 7 {
					if len(cur.Read(i)) != length {
						t.Errorf("Read(%d) returned a short series", i)
						return
					}
				}
			}
		}()
	}
	batch := make([]float32, length)
	for i := 0; i < 200; i++ {
		for j := range batch {
			batch[j] = float32(i)
		}
		f.Append(batch)
	}
	close(stop)
	wg.Wait()
	if f.Len() != 204 {
		t.Fatalf("Len %d, want 204", f.Len())
	}
}

func TestNewArenaCap(t *testing.T) {
	a := NewArenaCap(10, 100)
	if len(a) != 10 || cap(a) < 100 {
		t.Fatalf("len=%d cap=%d, want 10/>=100", len(a), cap(a))
	}
	if NewArenaCap(0, 0) != nil {
		t.Fatal("empty arena not nil")
	}
	b := NewArenaCap(5, 3) // cap below len is raised to len
	if len(b) != 5 || cap(b) < 5 {
		t.Fatalf("len=%d cap=%d, want 5/>=5", len(b), cap(b))
	}
}
