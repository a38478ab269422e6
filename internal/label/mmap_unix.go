//go:build unix

package label

import (
	"fmt"
	"os"
	"syscall"
)

// MmapFlat memory-maps a v2 flat index file read-only and parses the
// mapping with ParseFlat, so the label arrays alias the mapping: loading
// is O(1) allocations and O(1) copied bytes regardless of index size,
// and the index serves from the page cache with O(1) heap. After the one
// sequential validation scan (which warms the page cache) the OS keeps
// labels paged on demand. The file must not be truncated or rewritten in
// place while it is mapped; replace it by rename. Call Close to unmap.
// (On a big-endian host ParseFlat decodes the sections to the heap, and
// the mapping is merely held until Close.)
func MmapFlat(path string) (*FlatIndex, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return nil, err
	}
	size := st.Size()
	if size == 0 {
		return nil, fmt.Errorf("label: flat image truncated (0 bytes)")
	}
	if int64(int(size)) != size {
		return nil, fmt.Errorf("label: index file too large to map (%d bytes)", size)
	}
	data, err := syscall.Mmap(int(f.Fd()), 0, int(size), syscall.PROT_READ, syscall.MAP_SHARED)
	if err != nil {
		return nil, fmt.Errorf("label: mmap %s: %w", path, err)
	}
	x, err := ParseFlat(data)
	if err != nil {
		syscall.Munmap(data)
		return nil, err
	}
	x.mapped = data
	return x, nil
}

// Close releases the backing mmap, if any. The index must not be queried
// afterwards. Close is a no-op on heap-backed indexes.
func (f *FlatIndex) Close() error {
	if f.mapped == nil {
		return nil
	}
	data := f.mapped
	f.mapped = nil
	f.OutOffsets, f.OutEntries = nil, nil
	f.InOffsets, f.InEntries = nil, nil
	f.Perm = nil
	return syscall.Munmap(data)
}
