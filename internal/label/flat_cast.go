package label

// The in-place view of the v2 flat format: on a little-endian host the
// file's CSR sections already have the in-memory layout of []int32,
// []int64 and []Entry, so ParseFlat reinterprets aligned sections of its
// input instead of decoding them, and FlatIndex.Write emits each array's
// memory in one write. This is the only file in the module that imports
// unsafe (TestUnsafeConfined in internal/analysis holds it to that).

import "unsafe"

// Entry must stay exactly 8 bytes with no padding for the on-disk layout
// and the in-place view to be valid.
var _ [8]byte = [unsafe.Sizeof(Entry{})]byte{}

// hostLittleEndian reports whether in-memory integer layout matches the
// file format; when false, the casts fall back to an allocating decode.
var hostLittleEndian = func() bool {
	var x uint16 = 1
	return *(*byte)(unsafe.Pointer(&x)) == 1
}()

// int32Bytes returns p's memory as raw little-endian bytes when the
// host layout matches the file format (zero copy), else (nil, false).
func int32Bytes(p []int32) ([]byte, bool) {
	if !hostLittleEndian || len(p) == 0 {
		return nil, false
	}
	return unsafe.Slice((*byte)(unsafe.Pointer(&p[0])), len(p)*4), true
}

func int64Bytes(p []int64) ([]byte, bool) {
	if !hostLittleEndian || len(p) == 0 {
		return nil, false
	}
	return unsafe.Slice((*byte)(unsafe.Pointer(&p[0])), len(p)*8), true
}

func entryBytes(p []Entry) ([]byte, bool) {
	if !hostLittleEndian || len(p) == 0 {
		return nil, false
	}
	return unsafe.Slice((*byte)(unsafe.Pointer(&p[0])), len(p)*8), true
}

// castInt32s reinterprets little-endian bytes as []int32 aliasing b,
// copying (decodeInt32s) only when the host byte order or b's alignment
// rules out the in-place view.
func castInt32s(b []byte) []int32 {
	if len(b) == 0 {
		return nil
	}
	if hostLittleEndian && uintptr(unsafe.Pointer(&b[0]))%unsafe.Alignof(int32(0)) == 0 {
		return unsafe.Slice((*int32)(unsafe.Pointer(&b[0])), len(b)/4)
	}
	return decodeInt32s(b)
}

func castInt64s(b []byte) []int64 {
	if len(b) == 0 {
		return nil
	}
	if hostLittleEndian && uintptr(unsafe.Pointer(&b[0]))%unsafe.Alignof(int64(0)) == 0 {
		return unsafe.Slice((*int64)(unsafe.Pointer(&b[0])), len(b)/8)
	}
	return decodeInt64s(b)
}

func castEntries(b []byte) []Entry {
	if len(b) == 0 {
		return nil
	}
	if hostLittleEndian && uintptr(unsafe.Pointer(&b[0]))%unsafe.Alignof(Entry{}) == 0 {
		return unsafe.Slice((*Entry)(unsafe.Pointer(&b[0])), len(b)/8)
	}
	return decodeEntries(b)
}
