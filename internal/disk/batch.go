// batch.go — the optional vectored face of a Store.
//
// The fill workers and write-behind coalesce adjacent blocks
// into runs; a backend that can retire a run in one operation exposes
// BatchStore and gets handed the whole run. Backends that can't (or test
// wrappers that deliberately don't) are driven block-at-a-time by the
// ReadBatch/WriteBatch helpers, so callers never branch on the concrete
// store type.

package disk

// BlockSpan names one block of a batched store request. A batch is a
// flat list of spans plus a parallel list of BlockSize buffers; the
// store decides which spans actually land adjacent on media.
type BlockSpan struct {
	File int32
	Blk  int32
}

// BatchStore is the optional vectored interface a Store may implement.
// Both methods take parallel slices (len(specs) == len(bufs)) and
// return a per-span error slice of the same length, nil entries meaning
// success. A batch is not atomic: some spans may succeed while others
// fail, and callers must consult every entry.
type BatchStore interface {
	// ReadBlocks fills dsts[i] (len BlockSize) with the contents of
	// specs[i]. Unwritten blocks read as zeros, like ReadBlock.
	ReadBlocks(specs []BlockSpan, dsts [][]byte) []error
	// WriteBlocks persists srcs[i] (len BlockSize) as specs[i]'s
	// contents; a nil srcs[i] discards specs[i], like WriteBlock. When
	// one batch names the same block twice, the later span wins, matching
	// sequential WriteBlock calls.
	WriteBlocks(specs []BlockSpan, srcs [][]byte) []error
}

// ReadBatch reads a batch through s, using the vectored path when s
// implements BatchStore and a per-block ReadBlock loop otherwise. The
// fallback keeps plain Store implementations (and counting test
// wrappers) semantically identical to the batched path.
func ReadBatch(s Store, specs []BlockSpan, dsts [][]byte) []error {
	if bs, ok := s.(BatchStore); ok {
		return bs.ReadBlocks(specs, dsts)
	}
	errs := make([]error, len(specs))
	for i, sp := range specs {
		errs[i] = s.ReadBlock(sp.File, sp.Blk, dsts[i])
	}
	return errs
}

// WriteBatch writes a batch through s, vectored when possible, looped
// otherwise.
func WriteBatch(s Store, specs []BlockSpan, srcs [][]byte) []error {
	if bs, ok := s.(BatchStore); ok {
		return bs.WriteBlocks(specs, srcs)
	}
	errs := make([]error, len(specs))
	for i, sp := range specs {
		errs[i] = s.WriteBlock(sp.File, sp.Blk, srcs[i])
	}
	return errs
}

// Discard returns specs to the never-written state through s's write
// path, as one batch: the blocks read as zeros again and the backend may
// release their space. It reports the first span that failed. This is
// the one place that writes the encoding down (a nil source, see Store);
// everything between here and the backend only passes it on.
func Discard(s Store, specs []BlockSpan) error {
	for _, err := range WriteBatch(s, specs, make([][]byte, len(specs))) {
		if err != nil {
			return err
		}
	}
	return nil
}
