package disk

import (
	"bytes"
	"fmt"
	"math/rand"
	"sync"
	"testing"
)

// The model test's shape: each of modelWorkers goroutines owns
// modelFiles file ids of modelBlocks blocks and runs modelOps random
// operations on them.
const (
	modelWorkers = 4
	modelFiles   = 3
	modelBlocks  = 8
	modelOps     = 100
)

// TestStoreModel is the storage contract as one model: on every backend,
// seeded random sequences of ReadBlock, WriteBlock, ReadBlocks and
// WriteBlocks — batches with runs, blocks named twice and discards, some
// covering a whole file — leave the store agreeing with a plain map
// after every operation. The workers run at once on disjoint file ids,
// so the backends' locking is under test too (make race-discard).
func TestStoreModel(t *testing.T) {
	ids := make([]int32, modelWorkers*modelFiles)
	for i := range ids {
		ids[i] = int32(i + 1)
	}
	for _, seed := range []int64{1, 2, 3, 4} {
		for _, be := range storeBackends(t, ids...) {
			t.Run(fmt.Sprintf("%s/seed=%d", be.name, seed), func(t *testing.T) {
				var wg sync.WaitGroup
				for w := 0; w < modelWorkers; w++ {
					wg.Add(1)
					go func() {
						defer wg.Done()
						m := storeModel{t: t, s: be.s, rng: rand.New(rand.NewSource(seed*modelWorkers + int64(w))),
							first: int32(w*modelFiles + 1), blocks: make(map[BlockSpan][]byte)}
						m.run(fmt.Sprintf("seed %d worker %d", seed, w))
					}()
				}
				wg.Wait()
			})
		}
	}
}

// storeModel is one worker: its files, first to first+modelFiles-1, and
// what the store must hold for them — a block absent from blocks reads
// as zeros.
type storeModel struct {
	t      *testing.T
	s      Store
	rng    *rand.Rand
	first  int32
	blocks map[BlockSpan][]byte
	seq    int      // writes made, stamped into each source
	dsts   [][]byte // read buffers, reused
}

// run makes modelOps operations and checks every block after each; it
// reports the first disagreement with t.Errorf, as it runs on its own
// goroutine, and stops there.
func (m *storeModel) run(who string) {
	for op := 0; op < modelOps; op++ {
		var what string
		var err error
		switch m.rng.Intn(4) {
		case 0:
			sp := m.span()
			what = fmt.Sprintf("ReadBlock %v", sp)
			err = m.check(sp)
		case 1:
			sp, src := m.span(), m.source()
			what = fmt.Sprintf("WriteBlock %v (nil %v)", sp, src == nil)
			if err = m.s.WriteBlock(sp.File, sp.Blk, src); err == nil {
				m.apply(sp, src)
			}
		case 2:
			specs := m.batch()
			what = fmt.Sprintf("ReadBlocks %v", specs)
			err = m.checkBatch(specs)
		case 3:
			specs, srcs := m.writeBatch()
			what = fmt.Sprintf("WriteBlocks %v (nil %v)", specs, nilMask(srcs))
			for i, e := range WriteBatch(m.s, specs, srcs) {
				if e != nil {
					err = fmt.Errorf("span %d: %w", i, e)
					break
				}
				m.apply(specs[i], srcs[i])
			}
		}
		if err == nil {
			err = m.checkBatch(m.all())
		}
		if err != nil {
			m.t.Errorf("%s, op %d, %s: %v", who, op, what, err)
			return
		}
	}
}

// span is a random block of the worker's files.
func (m *storeModel) span() BlockSpan {
	return BlockSpan{m.first + int32(m.rng.Intn(modelFiles)), int32(m.rng.Intn(modelBlocks))}
}

// source is a fresh block stamped with the write's sequence number, or,
// one time in four, nil: a discard.
func (m *storeModel) source() []byte {
	if m.rng.Intn(4) == 0 {
		return nil
	}
	m.seq++
	src := bytes.Repeat([]byte{byte(m.seq)}, BlockSize)
	m.rng.Read(src[:16])
	return src
}

// batch is one or two runs of adjacent blocks, a block of it named again
// half the time, and the whole shuffled a time in four.
func (m *storeModel) batch() []BlockSpan {
	var specs []BlockSpan
	for r := 0; r < 1+m.rng.Intn(2); r++ {
		sp := m.span()
		for n := 1 + m.rng.Intn(5); n > 0 && sp.Blk < modelBlocks; n-- {
			specs = append(specs, sp)
			sp.Blk++
		}
	}
	if m.rng.Intn(2) == 0 {
		specs = append(specs, specs[m.rng.Intn(len(specs))])
	}
	if m.rng.Intn(4) == 0 {
		m.rng.Shuffle(len(specs), func(i, j int) { specs[i], specs[j] = specs[j], specs[i] })
	}
	return specs
}

// writeBatch is a batch with its sources or, one time in six, the
// discard of a whole file, as a remove sends it.
func (m *storeModel) writeBatch() ([]BlockSpan, [][]byte) {
	if m.rng.Intn(6) == 0 {
		f := m.span().File
		specs := make([]BlockSpan, modelBlocks)
		for i := range specs {
			specs[i] = BlockSpan{f, int32(i)}
		}
		return specs, make([][]byte, len(specs))
	}
	specs := m.batch()
	srcs := make([][]byte, len(specs))
	for i := range srcs {
		srcs[i] = m.source()
	}
	return specs, srcs
}

// all is every block of the worker's files, in order.
func (m *storeModel) all() []BlockSpan {
	specs := make([]BlockSpan, 0, modelFiles*modelBlocks)
	for f := m.first; f < m.first+modelFiles; f++ {
		for b := int32(0); b < modelBlocks; b++ {
			specs = append(specs, BlockSpan{f, b})
		}
	}
	return specs
}

func (m *storeModel) apply(sp BlockSpan, src []byte) {
	if src == nil {
		delete(m.blocks, sp)
	} else {
		m.blocks[sp] = src
	}
}

// junk is n read buffers full of a byte no read should leave behind.
func (m *storeModel) junk(n int) [][]byte {
	for len(m.dsts) < n {
		m.dsts = append(m.dsts, make([]byte, BlockSize))
	}
	for _, dst := range m.dsts[:n] {
		copy(dst, junkBlock)
	}
	return m.dsts[:n]
}

var junkBlock = bytes.Repeat([]byte{0xee}, BlockSize)

// check reads sp with ReadBlock and compares it with the model.
func (m *storeModel) check(sp BlockSpan) error {
	dst := m.junk(1)[0]
	if err := m.s.ReadBlock(sp.File, sp.Blk, dst); err != nil {
		return err
	}
	return m.compare(sp, dst)
}

// checkBatch reads specs in one ReadBatch and compares each with the
// model.
func (m *storeModel) checkBatch(specs []BlockSpan) error {
	dsts := m.junk(len(specs))
	for i, err := range ReadBatch(m.s, specs, dsts) {
		if err == nil {
			err = m.compare(specs[i], dsts[i])
		}
		if err != nil {
			return fmt.Errorf("reading %v: %w", specs[i], err)
		}
	}
	return nil
}

func (m *storeModel) compare(sp BlockSpan, got []byte) error {
	want := m.blocks[sp]
	if want == nil {
		want = zeroBlock[:]
	}
	if !bytes.Equal(got, want) {
		return fmt.Errorf("%v reads %x…, want %x…", sp, got[:20], want[:20])
	}
	return nil
}

func nilMask(srcs [][]byte) []bool {
	mask := make([]bool, len(srcs))
	for i, src := range srcs {
		mask[i] = src == nil
	}
	return mask
}
