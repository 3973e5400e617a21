package server_test

import (
	"bufio"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"net"
	"testing"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/server"
)

// TestGlobalLRUWireGolden pins the wire behavior of a 1-shard
// `-alloc global-lru` server to a recorded pre-policy-redesign golden: a
// fixed scripted request sequence, run serially on one connection with
// the logical tick clock, must produce byte-identical response frames
// (ids, statuses, hit flags, payloads). The script exercises create,
// write, read (with evictions: the working set is 3x the cache),
// re-reads, control, the fbehavior ops, close and remove. stats is
// excluded — its JSON body legitimately grows new fields.
//
// If this test fails after an intentional protocol or accounting change,
// re-record with -run TestGlobalLRUWireGolden -v and update the hash;
// any other failure is a behavior regression in the default policy.
func TestGlobalLRUWireGolden(t *testing.T) {
	const golden = "fafb649c1598be31bbda380c67f0baa9b699289fb105872df142128a332e52ec"

	_, addr, _ := startServer(t, server.Config{
		Kernel: core.LiveConfig{
			CacheBytes: 32 * core.BlockSize, // 32-block cache; script touches 96 blocks
			Alloc:      cache.GlobalLRU,
		},
		Shards: 1,
	})
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	br := bufio.NewReader(conn)

	h := sha256.New()
	var reqID uint32
	// call sends one request frame and folds the entire response frame
	// (id, status, body) into the running hash. Serial: no pipelining, so
	// response order is deterministic.
	call := func(op uint8, body []byte) (uint8, []byte) {
		t.Helper()
		reqID++
		if err := server.WriteFrame(conn, reqID, op, body); err != nil {
			t.Fatalf("req %d op %d: write: %v", reqID, op, err)
		}
		id, st, rb, err := readFrame(br)
		if err != nil {
			t.Fatalf("req %d op %d: read: %v", reqID, op, err)
		}
		if id != reqID {
			t.Fatalf("req %d: response id %d", reqID, id)
		}
		var hdr [5]byte
		binary.BigEndian.PutUint32(hdr[:4], id)
		hdr[4] = st
		h.Write(hdr[:])
		h.Write(rb)
		return st, rb
	}
	u32 := func(v uint32) []byte {
		var b [4]byte
		binary.BigEndian.PutUint32(b[:], v)
		return b[:]
	}

	call(server.OpPing, nil)

	// Three files, 32 blocks each.
	var files []uint32
	for i := 0; i < 3; i++ {
		body := append([]byte{0}, u32(32)...)
		body = append(body, []byte(fmt.Sprintf("golden-%d", i))...)
		st, rb := call(server.OpCreate, body)
		if st != server.StatusOK {
			t.Fatalf("create %d: status %d", i, st)
		}
		files = append(files, binary.BigEndian.Uint32(rb[:4]))
	}

	// Deterministic payload per (file, block).
	payload := func(f, blk uint32) []byte {
		p := make([]byte, 128)
		for i := range p {
			p[i] = byte(f*31 + blk*7 + uint32(i))
		}
		return p
	}
	writeReq := func(f, blk uint32, data []byte) []byte {
		body := make([]byte, 12, 12+len(data))
		binary.BigEndian.PutUint32(body[0:], f)
		binary.BigEndian.PutUint32(body[4:], blk)
		binary.BigEndian.PutUint16(body[8:], 0)
		binary.BigEndian.PutUint16(body[10:], uint16(len(data)))
		return append(body, data...)
	}
	readReq := func(f, blk uint32, size int) []byte {
		body := make([]byte, 13)
		binary.BigEndian.PutUint32(body[0:], f)
		binary.BigEndian.PutUint32(body[4:], blk)
		binary.BigEndian.PutUint16(body[8:], 0)
		binary.BigEndian.PutUint16(body[10:], uint16(size))
		return append(body[:12], 0)
	}

	// Fill all three files: 96 blocks through a 32-block cache, forcing
	// global-LRU evictions and write-backs of dirty blocks.
	for _, f := range files {
		for blk := uint32(0); blk < 32; blk++ {
			if st, _ := call(server.OpWrite, writeReq(f, blk, payload(f, blk))); st != server.StatusOK {
				t.Fatalf("write f%d blk%d: status %d", f, blk, st)
			}
		}
	}
	// Read everything back (mostly misses), then re-read the last file
	// (hits), then a strided pass.
	for _, f := range files {
		for blk := uint32(0); blk < 32; blk++ {
			if st, _ := call(server.OpRead, readReq(f, blk, 128)); st != server.StatusOK {
				t.Fatalf("read f%d blk%d: status %d", f, blk, st)
			}
		}
	}
	for blk := uint32(0); blk < 32; blk++ {
		call(server.OpRead, readReq(files[2], blk, 128))
	}
	for blk := uint32(0); blk < 32; blk += 3 {
		call(server.OpRead, readReq(files[0], blk, 64))
	}

	// Control + fbehavior surface (global-lru: some calls are still
	// accepted, recency behavior unchanged).
	call(server.OpControl, []byte{1})
	spBody := append(u32(files[0]), u32(5)...)
	call(server.OpSetPriority, spBody)
	call(server.OpGetPriority, u32(files[0]))
	call(server.OpSetPolicy, append(u32(5), 1))
	call(server.OpGetPolicy, u32(5))
	tpBody := append(u32(files[0]), u32(0)...)
	tpBody = append(tpBody, u32(7)...)
	tpBody = append(tpBody, u32(2)...)
	call(server.OpSetTempPri, tpBody)
	call(server.OpControl, []byte{0})

	// Error paths: read past EOF, unknown file, remove + reopen miss.
	call(server.OpRead, readReq(files[0], 99, 64))
	call(server.OpRead, readReq(0xdead, 0, 64))
	call(server.OpClose, u32(files[1]))
	call(server.OpRemove, []byte("golden-1"))
	call(server.OpOpen, []byte("golden-1"))
	call(server.OpOpen, []byte("golden-0"))

	got := hex.EncodeToString(h.Sum(nil))
	if golden == "GOLDEN_UNSET" {
		t.Logf("recorded golden: %s", got)
		return
	}
	if got != golden {
		t.Errorf("global-lru wire golden drifted:\n got  %s\n want %s", got, golden)
	}
}
