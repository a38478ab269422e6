// Package extio is the external-memory substrate for the paper's
// I/O-efficient algorithms (Section 4): fixed-size record files with
// block-granular, counted I/O, buffered sequential readers and writers,
// and a deduplicating external merge sort with a bounded memory budget.
//
// The cost model follows Aggarwal & Vitter as the paper does: reading or
// writing N records costs scan(N) = ceil(N/B) I/Os where B is the block
// size in records. Counters make the model observable so benchmarks can
// report I/O counts alongside wall-clock time.
package extio

import (
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"sync/atomic"
)

// RecordBytes is the on-disk size of one Record.
const RecordBytes = 12

// Record is a fixed-size triple. Label files store (owner, pivot, dist)
// or (pivot, owner, dist) in (K1, K2, V) depending on the sort order;
// adjacency files store (vertex, neighbor, weight).
type Record struct {
	K1, K2 int32
	V      uint32
}

// Less orders records by (K1, K2, V).
func Less(a, b Record) bool {
	if a.K1 != b.K1 {
		return a.K1 < b.K1
	}
	if a.K2 != b.K2 {
		return a.K2 < b.K2
	}
	return a.V < b.V
}

// Counter tallies block transfers. Safe for concurrent use.
type Counter struct {
	reads  atomic.Int64
	writes atomic.Int64
}

// Reads returns the number of block reads.
func (c *Counter) Reads() int64 { return c.reads.Load() }

// Writes returns the number of block writes.
func (c *Counter) Writes() int64 { return c.writes.Load() }

// Total returns reads + writes.
func (c *Counter) Total() int64 { return c.Reads() + c.Writes() }

func (c *Counter) addRead() {
	if c != nil {
		c.reads.Add(1)
	}
}

func (c *Counter) addWrite() {
	if c != nil {
		c.writes.Add(1)
	}
}

// Config carries the external-memory parameters.
type Config struct {
	// BlockRecords is B: records per block. Must be >= 1.
	BlockRecords int
	// MemoryRecords is M: records the algorithm may hold in memory.
	// Must be >= 2*BlockRecords.
	MemoryRecords int
	// Dir is the directory for temporary files.
	Dir string
	// Counter receives I/O tallies; may be nil.
	Counter *Counter
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.BlockRecords < 1 {
		return fmt.Errorf("extio: BlockRecords %d < 1", c.BlockRecords)
	}
	if c.MemoryRecords < 2*c.BlockRecords {
		return fmt.Errorf("extio: MemoryRecords %d < 2*BlockRecords %d", c.MemoryRecords, 2*c.BlockRecords)
	}
	return nil
}

// Writer appends records to a file, flushing in whole blocks and counting
// one write I/O per flushed block.
type Writer struct {
	f     *os.File
	buf   []byte
	used  int
	block int
	cfg   Config
	count int64
	err   error
}

// NewWriter creates (truncates) path.
func NewWriter(path string, cfg Config) (*Writer, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	return &Writer{
		f:     f,
		buf:   make([]byte, cfg.BlockRecords*RecordBytes),
		block: cfg.BlockRecords * RecordBytes,
		cfg:   cfg,
	}, nil
}

// Append adds one record.
func (w *Writer) Append(r Record) error {
	if w.err != nil {
		return w.err
	}
	binary.LittleEndian.PutUint32(w.buf[w.used:], uint32(r.K1))
	binary.LittleEndian.PutUint32(w.buf[w.used+4:], uint32(r.K2))
	binary.LittleEndian.PutUint32(w.buf[w.used+8:], r.V)
	w.used += RecordBytes
	w.count++
	if w.used == w.block {
		return w.flush()
	}
	return nil
}

func (w *Writer) flush() error {
	if w.used == 0 {
		return nil
	}
	if _, err := w.f.Write(w.buf[:w.used]); err != nil {
		w.err = err
		return err
	}
	w.cfg.Counter.addWrite()
	w.used = 0
	return nil
}

// Count returns the number of records appended so far.
func (w *Writer) Count() int64 { return w.count }

// Close flushes the tail block and closes the file.
func (w *Writer) Close() error {
	if err := w.flush(); err != nil {
		w.f.Close()
		return err
	}
	return w.f.Close()
}

// Reader streams records from a file block by block, counting one read
// I/O per block fetched.
type Reader struct {
	f     *os.File
	buf   []byte
	have  int
	pos   int
	cfg   Config
	err   error
	eof   bool
	count int64
}

// NewReader opens path for sequential scanning.
func NewReader(path string, cfg Config) (*Reader, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	return &Reader{
		f:   f,
		buf: make([]byte, cfg.BlockRecords*RecordBytes),
		cfg: cfg,
	}, nil
}

// Next returns the next record; ok is false at end of file or error.
func (r *Reader) Next() (rec Record, ok bool) {
	if r.err != nil {
		return Record{}, false
	}
	if r.pos == r.have {
		if r.eof {
			return Record{}, false
		}
		n, err := io.ReadFull(r.f, r.buf)
		if err == io.ErrUnexpectedEOF || err == io.EOF {
			r.eof = true
		} else if err != nil {
			r.err = err
			return Record{}, false
		}
		if n == 0 {
			return Record{}, false
		}
		if n%RecordBytes != 0 {
			r.err = fmt.Errorf("extio: truncated record in %s", r.f.Name())
			return Record{}, false
		}
		r.cfg.Counter.addRead()
		r.have = n
		r.pos = 0
	}
	rec.K1 = int32(binary.LittleEndian.Uint32(r.buf[r.pos:]))
	rec.K2 = int32(binary.LittleEndian.Uint32(r.buf[r.pos+4:]))
	rec.V = binary.LittleEndian.Uint32(r.buf[r.pos+8:])
	r.pos += RecordBytes
	r.count++
	return rec, true
}

// Err reports a read error, if any.
func (r *Reader) Err() error { return r.err }

// Count returns records consumed so far.
func (r *Reader) Count() int64 { return r.count }

// Close closes the underlying file.
func (r *Reader) Close() error { return r.f.Close() }

// WriteAll writes records to path and returns the count.
func WriteAll(path string, cfg Config, recs []Record) error {
	w, err := NewWriter(path, cfg)
	if err != nil {
		return err
	}
	for _, r := range recs {
		if err := w.Append(r); err != nil {
			w.Close()
			return err
		}
	}
	return w.Close()
}

// ReadAll loads an entire record file; intended for tests and small files.
func ReadAll(path string, cfg Config) ([]Record, error) {
	r, err := NewReader(path, cfg)
	if err != nil {
		return nil, err
	}
	defer r.Close()
	var out []Record
	for {
		rec, ok := r.Next()
		if !ok {
			break
		}
		out = append(out, rec)
	}
	return out, r.Err()
}
