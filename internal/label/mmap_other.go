//go:build !unix

package label

// MmapFlat degrades to a single-read load (LoadFlatFile) on platforms
// without a mmap syscall wrapper.
func MmapFlat(path string) (*FlatIndex, error) {
	return LoadFlatFile(path)
}

// Close is a no-op on heap-backed indexes.
func (f *FlatIndex) Close() error { return nil }
