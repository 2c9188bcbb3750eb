package dataset

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"os"
)

// File format: a small header followed by raw little-endian float32 values.
//
//	magic   [4]byte  "HYD1"
//	count   uint32   number of series
//	length  uint32   points per series
//	name    uint16-prefixed UTF-8 string
//	values  count*length float32
const magic = "HYD1"

// Save writes the collection to w in the suite's binary format.
func (d *Dataset) Save(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(magic); err != nil {
		return err
	}
	hdr := []any{uint32(d.Len()), uint32(d.SeriesLen()), uint16(len(d.Name))}
	for _, v := range hdr {
		if err := binary.Write(bw, binary.LittleEndian, v); err != nil {
			return err
		}
	}
	if _, err := bw.WriteString(d.Name); err != nil {
		return err
	}
	buf := make([]byte, 4)
	for _, s := range d.Series {
		for _, v := range s {
			binary.LittleEndian.PutUint32(buf, math.Float32bits(float32(v)))
			if _, err := bw.Write(buf); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}

// load reads a collection previously written by Save, given size, the number
// of bytes r holds (-1 when unknown). A header whose payload fits in size is
// allocated for at once; any other grows with the data actually read.
func load(r io.Reader, size int64) (*Dataset, error) {
	br := bufio.NewReader(r)
	head := make([]byte, 4)
	if _, err := io.ReadFull(br, head); err != nil {
		return nil, fmt.Errorf("dataset: reading magic: %w", err)
	}
	if string(head) != magic {
		return nil, fmt.Errorf("dataset: bad magic %q", head)
	}
	var count, length uint32
	var nameLen uint16
	if err := binary.Read(br, binary.LittleEndian, &count); err != nil {
		return nil, err
	}
	if err := binary.Read(br, binary.LittleEndian, &length); err != nil {
		return nil, err
	}
	if err := binary.Read(br, binary.LittleEndian, &nameLen); err != nil {
		return nil, err
	}
	name := make([]byte, nameLen)
	if _, err := io.ReadFull(br, name); err != nil {
		return nil, err
	}
	// Per-field caps as before, plus a product cap that keeps the arena
	// size computable on any platform without rejecting anything the suite
	// can actually hold in memory (2^40 values = 4 TiB of float32).
	const maxSeries = 1 << 28
	const maxValues = 1 << 40
	product := uint64(count) * uint64(length)
	if count > maxSeries || length > maxSeries || product > maxValues || product > uint64(math.MaxInt) {
		return nil, fmt.Errorf("dataset: implausible header count=%d length=%d", count, length)
	}
	// Decode into one flat backing that grows with the data actually read
	// (append doubling), so a hostile header claiming terabytes fails with
	// a short-read error after the real payload ends instead of forcing the
	// full claimed allocation up front — unless the file is known to hold
	// the whole payload, which then needs no growth copies. The loaded
	// collection still has the contiguous layout, so wrapping it in a
	// simulated file later aliases instead of copying. (Large Go
	// allocations are page-aligned, which subsumes the arena's 64-byte
	// alignment for any collection where the alignment matters.)
	total := int(product)
	startCap := min(total, 1<<20)
	if payload := size - int64(14+len(name)); payload >= 0 && uint64(payload) >= 4*product {
		startCap = total
	}
	flat := make([]float32, 0, startCap)
	buf := make([]byte, 4*length)
	for i := 0; i < int(count); i++ {
		if _, err := io.ReadFull(br, buf); err != nil {
			return nil, fmt.Errorf("dataset: reading series %d: %w", i, err)
		}
		for j := 0; j < int(length); j++ {
			flat = append(flat, math.Float32frombits(binary.LittleEndian.Uint32(buf[4*j:])))
		}
	}
	return FromFlat(string(name), flat, int(count), int(length)), nil
}

// SaveFile writes the collection to the named file.
func (d *Dataset) SaveFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := d.Save(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// LoadFile reads a collection from the named file.
func LoadFile(path string) (*Dataset, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return nil, err
	}
	return load(f, fi.Size())
}

// SaveFile writes the workload to the named file (same format; queries are
// stored as a dataset).
func (w *Workload) SaveFile(path string) error {
	d := &Dataset{Name: w.Name, Series: w.Queries}
	return d.SaveFile(path)
}

// LoadWorkloadFile reads a workload from the named file.
func LoadWorkloadFile(path string) (*Workload, error) {
	d, err := LoadFile(path)
	if err != nil {
		return nil, err
	}
	return &Workload{Name: d.Name, Queries: d.Series}, nil
}
