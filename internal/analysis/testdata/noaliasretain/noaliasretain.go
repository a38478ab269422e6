// Package noaliasretain is the golden fixture for the noaliasretain
// analyzer. The readonly cases run against the real label.FlatIndex and
// dynamic.Epoch types from the default configuration; the scratch and
// sink cases use the fixture-local types the test registers alongside
// the defaults.
package noaliasretain

import (
	"repro/internal/dynamic"
	"repro/internal/label"
)

type holder struct {
	entries []label.Entry
	m       map[int32][]label.Entry
}

// scratch mimics diskidx.Scratch: reusable per-worker buffers.
type scratch struct {
	raw [2][]byte
}

// cache mimics a retention sink; the test registers cache.put.
type cache struct{}

func (c *cache) put(k int64, v []byte) { _, _ = k, v }

func readOK(f *label.FlatIndex, v int32) uint32 {
	out := f.Out(v)
	if len(out) == 0 {
		return 0
	}
	return out[0].Dist
}

func writeBad(f *label.FlatIndex, v int32) {
	out := f.Out(v)
	out[0] = label.Entry{} // want "write into mmap/epoch-aliasing slice out"
}

func writeField(f *label.FlatIndex) {
	f.OutEntries[0] = label.Entry{} // want "write into mmap/epoch-aliasing slice f.OutEntries"
}

func writeElemField(f *label.FlatIndex, v int32) {
	out := f.Out(v)
	out[0].Dist = 7 // want "write into mmap/epoch-aliasing slice out"
}

// epochWriteBad patches rows resolved from a published epoch in place —
// what label.Insert and label.RemovePivots do to their argument. The
// row is the base's or a shared overlay row; either way readers of this
// and earlier epochs are merging over it. The maintenance engine clones
// the row first (Epoch.own) and only ever writes the clone.
func epochWriteBad(e *dynamic.Epoch, v int32, drop []bool) {
	row := e.In(v)
	row[0].Dist = 1 // want "write into mmap/epoch-aliasing slice row"
	kept := e.Out(v)[:0]
	for _, x := range e.Out(v) {
		if !drop[x.Pivot] {
			kept = append(kept, x) // want "append into mmap/epoch-aliasing slice kept"
		}
	}
}

func epochRetainBad(h *holder, e *dynamic.Epoch, v int32) {
	h.entries = e.Out(v) // want "stored in a field or collection"
}

// epochCloneOK is the own step: a fresh copy may be written and kept.
func epochCloneOK(h *holder, e *dynamic.Epoch, v int32) {
	row := append([]label.Entry(nil), e.Out(v)...)
	row[0].Dist = 1
	h.entries = row
}

func retainBad(h *holder, f *label.FlatIndex, v int32) {
	h.entries = f.Out(v) // want "stored in a field or collection"
	es := f.In(v)
	h.m[v] = es // want "stored in a field or collection"
}

func copyBad(f *label.FlatIndex) {
	es := f.OutEntries
	copy(es, es) // want "copy into mmap/epoch-aliasing slice es"
}

func sendBad(ch chan []label.Entry, f *label.FlatIndex, v int32) {
	ch <- f.Out(v) // want "sent over a channel"
}

func compositeBad(f *label.FlatIndex, v int32) *holder {
	return &holder{
		entries: f.Out(v), // want "stored in a composite literal"
	}
}

func ownedOK() []label.Entry {
	f := &label.FlatIndex{}
	es := f.OutEntries
	es = append(es, label.Entry{})
	return es
}

func scratchSink(s *scratch, c *cache) {
	b := s.raw[0]
	c.put(1, b) // want "inserted into cache via cache.put"
}

// ScratchReturn leaks a reusable buffer across the package boundary.
func ScratchReturn(s *scratch) []byte {
	return s.raw[0] // want "returned from exported ScratchReturn"
}

func scratchReturnUnexportedOK(s *scratch) []byte {
	return s.raw[1]
}

func suppressedRetain(h *holder, f *label.FlatIndex, v int32) {
	//hopdb:ignore noaliasretain the holder is epoch-scoped and dropped on swap
	h.entries = f.Out(v)
}
