// Package diskidx answers queries from a saved v2 index image (the file
// hopdb-build -o and Index.Save write) by reading only the two label rows
// a query needs, keeping the perm and offset tables in memory. This is
// the query path behind the paper's "Disk query time" column (Table 6):
// the labels never have to be resident, so graphs whose labels exceed RAM
// remain queryable. Open validates the image's preamble with the parser
// every heap and mmap open runs (label.ParseFlatPreamble).
//
// Reads are counted in blocks of BlockBytes so benchmarks can report the
// I/O cost alongside wall-clock time, and an optional LRU label cache
// models the effect of a small query-time buffer pool.
//
// A DiskIndex is safe for concurrent use: queries go through ReadAt on a
// shared file handle, the I/O counter is atomic, and the label cache is
// mutex-guarded. Throughput callers should give each worker its own
// Scratch so repeated queries reuse their read buffers instead of
// allocating per label row.
package diskidx

import (
	"os"
	"sync"
	"sync/atomic"

	"repro/internal/graph"
	"repro/internal/label"
	"repro/internal/lru"
)

// Write freezes x and saves it as the v2 image that Open serves (and
// that every other open regime reads too).
func Write(path string, x *label.Index) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := label.Freeze(x).Write(f); err != nil {
		f.Close()
		os.Remove(path)
		return err
	}
	return f.Close()
}

// Options tunes the reader.
type Options struct {
	// BlockBytes is the I/O accounting granularity (default 4096).
	BlockBytes int
	// CacheLabels is the number of label lists kept in an LRU cache
	// (0 disables caching).
	CacheLabels int
}

// DiskIndex answers distance queries from a v2 image on disk.
type DiskIndex struct {
	f        *os.File
	directed bool
	weighted bool
	n        int32
	perm     []int32
	// outOff and inOff are the image's offset tables, in entries; row v
	// of a side is entries [off[v], off[v+1]) of that side's section.
	outOff  []int64
	inOff   []int64
	outBase int64
	inBase  int64
	opt     Options

	ios   atomic.Int64
	cache *lruCache
}

// Open opens the v2 image at path for querying. The header, perm and
// offset tables are read and validated (8 bytes per vertex per side stay
// resident); label entries stay on disk. A whole index only: shard,
// compact and retired-format images are refused by name.
func Open(path string, opt Options) (*DiskIndex, error) {
	if opt.BlockBytes <= 0 {
		opt.BlockBytes = 4096
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	fi, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	size := fi.Size()
	h, outOff, inOff, err := label.ParseFlatPreamble(size, func(off, n int64) ([]byte, error) {
		b := make([]byte, n)
		_, err := f.ReadAt(b, off)
		return b, err
	}, false)
	if err != nil {
		f.Close()
		return nil, err
	}
	d := &DiskIndex{
		f:        f,
		directed: h.Directed,
		weighted: h.Weighted,
		n:        h.N,
		perm:     h.Perm,
		outOff:   outOff,
		inOff:    inOff,
		opt:      opt,
	}
	// The entry sections fill the rest of the image: out, then in.
	d.outBase = size - 8*d.Entries()
	d.inBase = d.outBase
	if d.directed {
		d.inBase += 8 * outOff[d.n]
	}
	if opt.CacheLabels > 0 {
		d.cache = newLRU(opt.CacheLabels)
	}
	return d, nil
}

// N returns the vertex count.
func (d *DiskIndex) N() int32 { return d.n }

// Directed reports the indexed graph's directedness.
func (d *DiskIndex) Directed() bool { return d.directed }

// Weighted reports whether the indexed graph had explicit weights.
func (d *DiskIndex) Weighted() bool { return d.weighted }

// Entries returns the total number of stored label entries. O(1): the
// offset tables are resident.
func (d *DiskIndex) Entries() int64 {
	total := d.outOff[d.n]
	if d.directed {
		total += d.inOff[d.n]
	}
	return total
}

// SizeBytes returns the on-disk size of the label entry sections.
func (d *DiskIndex) SizeBytes() int64 { return 8 * d.Entries() }

// IOs returns the number of block reads performed so far.
func (d *DiskIndex) IOs() int64 { return d.ios.Load() }

// ResetIOs zeroes the I/O counter.
func (d *DiskIndex) ResetIOs() { d.ios.Store(0) }

// Close releases the file handle.
func (d *DiskIndex) Close() error { return d.f.Close() }

// Scratch holds reusable read buffers for repeated queries. Passing the
// same Scratch to DistanceScratch keeps a query loop at O(1)
// steady-state allocations (when the label cache is disabled; cached
// rows must own their memory and are always freshly allocated). A
// Scratch must not be shared between concurrent queries: give each worker
// its own.
type Scratch struct {
	raw [2][]byte
	// rows are the entry views of raw, which the next query overwrites.
	rows [2][]label.Entry
}

// loadLabel fetches one label row from disk (or cache). slot selects
// which scratch buffer to read into (0 = out side, 1 = in side) so one
// query's two rows coexist; sc == nil allocates fresh. Every row read
// from disk passes label.CheckRow before it is used or cached: the open
// validated only the preamble and offsets, so a damaged entry is an
// error naming its side and owner, never a wrong answer.
func (d *DiskIndex) loadLabel(out bool, v int32, sc *Scratch, slot int) ([]label.Entry, error) {
	key := int64(v) << 1
	if out {
		key |= 1
	}
	if d.cache != nil {
		if l, ok := d.cache.get(key); ok {
			return l, nil
		}
	}
	offs, base := d.inOff, d.inBase
	if out {
		offs, base = d.outOff, d.outBase
	}
	start := base + 8*offs[v]
	length := 8 * (offs[v+1] - offs[v])
	if length == 0 {
		return nil, nil
	}
	// A cached row outlives the call, so it never aliases the scratch.
	own := sc == nil || d.cache != nil
	var buf []byte
	if own {
		buf = make([]byte, length)
	} else {
		if int64(cap(sc.raw[slot])) < length {
			sc.raw[slot] = make([]byte, length)
		}
		buf = sc.raw[slot][:length]
	}
	if _, err := d.f.ReadAt(buf, start); err != nil {
		return nil, err
	}
	// Block-granular accounting: how many BlockBytes-sized blocks does
	// the byte range [start, start+length) touch?
	bb := int64(d.opt.BlockBytes)
	d.ios.Add((start+length-1)/bb - start/bb + 1)
	l := label.EntriesView(buf)
	side := "Lin"
	if out {
		side = "Lout"
	}
	if err := label.CheckRow(side, v, l); err != nil {
		return nil, err
	}
	if !own {
		sc.rows[slot] = l
		return l, nil
	}
	if d.cache != nil {
		d.cache.put(key, l)
	}
	return l, nil
}

// Distance answers a point-to-point query in original vertex ids.
func (d *DiskIndex) Distance(s, t int32) (uint32, error) {
	return d.DistanceScratch(s, t, nil)
}

// DistanceScratch is Distance reusing sc's buffers for the disk reads,
// so batch-serving callers avoid two allocations per query. sc may be
// nil; it must not be shared across concurrent calls.
func (d *DiskIndex) DistanceScratch(s, t int32, sc *Scratch) (uint32, error) {
	if s < 0 || t < 0 || s >= d.n || t >= d.n {
		return graph.Infinity, nil
	}
	if d.perm != nil {
		s, t = d.perm[s], d.perm[t]
	}
	if s == t {
		return 0, nil
	}
	outS, err := d.loadLabel(true, s, sc, 0)
	if err != nil {
		return 0, err
	}
	inT, err := d.loadLabel(false, t, sc, 1)
	if err != nil {
		return 0, err
	}
	return label.MergeDistance(outS, inT, s, t), nil
}

// lruCache is a mutex-guarded LRU over label lists (the shared
// internal/lru core plus locking), so a cached DiskIndex can serve
// concurrent queries (e.g. a batch sharded across workers, or a query
// server).
type lruCache struct {
	// mu guards c on the per-query lookup path: every concurrent reader
	// serializes here, so the section must stay a map touch.
	//hopdb:lockscope
	mu sync.Mutex
	c  *lru.Cache[int64, []label.Entry]
}

func newLRU(capacity int) *lruCache {
	return &lruCache{c: lru.New[int64, []label.Entry](capacity)}
}

func (c *lruCache) get(key int64) ([]label.Entry, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.c.Get(key)
}

func (c *lruCache) put(key int64, val []label.Entry) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.c.Put(key, val)
}
