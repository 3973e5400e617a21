package main

import "encoding/binary"

// Block contents are a pure function of (file index, block, write
// generation), so any response can be checked without remembering what
// was written. A block is eight 1 KB segments; each segment carries its
// own generation in its first word and a hash of (file, block, segment,
// generation, word index) in the other 127, so a segment rewritten by a
// 1 KB write verifies on its own beside seven older ones.
const (
	blockBytes   = 8192
	segBytes     = 1024
	segsPerBlock = blockBytes / segBytes
	wordsPerSeg  = segBytes / 8
)

func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	return x ^ x>>31
}

// wordAt is word i of segment seg of block (file, blk) at generation gen.
func wordAt(file int, blk int32, seg int, gen uint32, i int) uint64 {
	if i == 0 {
		return uint64(gen)
	}
	h := mix64(uint64(uint32(file))<<32 | uint64(uint32(blk)))
	return mix64(h ^ uint64(gen)<<10 ^ uint64(seg)<<7 ^ uint64(i))
}

// fillSeg writes one whole segment into dst[:segBytes].
func fillSeg(dst []byte, file int, blk int32, seg int, gen uint32) {
	for i := 0; i < wordsPerSeg; i++ {
		binary.LittleEndian.PutUint64(dst[i*8:], wordAt(file, blk, seg, gen, i))
	}
}

// fillBlock writes a whole block, every segment at generation gen.
func fillBlock(dst []byte, file int, blk int32, gen uint32) {
	for seg := 0; seg < segsPerBlock; seg++ {
		fillSeg(dst[seg*segBytes:], file, blk, seg, gen)
	}
}

// byteAt is the byte at position pos of block (file, blk) with every
// segment at generation 1 — the content app_mix writes, whose transcript
// offsets and sizes follow no segment boundary.
func byteAt(file int, blk int32, pos int) byte {
	w := wordAt(file, blk, pos/segBytes, 1, pos%segBytes/8)
	return byte(w >> (8 * (pos % 8)))
}

// fillRange writes the generation-1 bytes of [off, off+len(dst)).
func fillRange(dst []byte, file int, blk int32, off int) {
	var w uint64
	for i := range dst {
		pos := off + i
		if i == 0 || pos%8 == 0 {
			w = wordAt(file, blk, pos/segBytes, 1, pos%segBytes/8)
		}
		dst[i] = byte(w >> (8 * (pos % 8)))
	}
}

// checkBlock verifies a whole-block read. Every segment must be at
// generation 1 except mutSeg (-1 for none), which must be at wantGen, or
// at any generation from 1 up when wantGen is 0 (another connection
// writes it). The cheap check covers the first and last segments and
// mutSeg, head and tail words of each; full compares every word.
func checkBlock(data []byte, file int, blk int32, mutSeg int, wantGen uint32, full bool) bool {
	if len(data) != blockBytes {
		return false
	}
	for seg := 0; seg < segsPerBlock; seg++ {
		if !full && seg != 0 && seg != segsPerBlock-1 && seg != mutSeg {
			continue
		}
		s := data[seg*segBytes:]
		gen := uint32(binary.LittleEndian.Uint64(s))
		want := uint32(1)
		if seg == mutSeg {
			want = wantGen
			if want == 0 {
				want = gen
			}
		}
		if gen != want || gen == 0 || binary.LittleEndian.Uint64(s)>>32 != 0 {
			return false
		}
		step := wordsPerSeg - 2
		if full {
			step = 1
		}
		for i := 1; i < wordsPerSeg; i += step {
			if binary.LittleEndian.Uint64(s[i*8:]) != wordAt(file, blk, seg, gen, i) {
				return false
			}
		}
	}
	return true
}

// checkRange verifies a partial read of a block that holds zeros (never
// written) or generation-1 bytes at every position: the first and last
// eight bytes, or every byte when full.
func checkRange(data []byte, file int, blk int32, off int, full bool) bool {
	ok := func(i int) bool {
		return data[i] == 0 || data[i] == byteAt(file, blk, off+i)
	}
	if full {
		for i := range data {
			if !ok(i) {
				return false
			}
		}
		return true
	}
	for i := 0; i < len(data) && i < 8; i++ {
		if !ok(i) {
			return false
		}
	}
	for i := max(8, len(data)-8); i < len(data); i++ {
		if !ok(i) {
			return false
		}
	}
	return true
}
