package server

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"io"
	"testing"
)

// frame builds a syntactically valid frame for seeding.
func frame(id uint32, tag uint8, body []byte) []byte {
	var buf bytes.Buffer
	WriteFrame(&buf, id, tag, body)
	return buf.Bytes()
}

// FuzzReadFrame feeds arbitrary bytes to both frame decoders. Neither
// may panic, and on any input they must agree: same (id, tag, body) on
// success, both failing otherwise — the pooled-body path the server
// reads with (ReadFrameHeader + ReadFull) can never drift from the
// allocating ReadFrame that clients, tests and the soak harness use.
func FuzzReadFrame(f *testing.F) {
	f.Add([]byte{})
	f.Add(frame(1, OpPing, nil))
	f.Add(frame(7, OpRead, make([]byte, 13)))
	f.Add(frame(0xffffffff, OpWrite, make([]byte, MaxFrame-FrameOverhead))) // max legal
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0, 0})                                // length 0 < FrameOverhead
	f.Add([]byte{0, 0, 0, 4, 0, 0, 0, 1, 2})                                // length 4 < FrameOverhead
	f.Add([]byte{0, 0, 64, 1, 0, 0, 0, 1, 2})                               // length MaxFrame+1
	f.Add(frame(3, OpOpen, []byte("a/name"))[:10])                          // truncated body
	f.Add(frame(3, OpOpen, []byte("a/name"))[:4])                           // truncated header
	f.Fuzz(func(t *testing.T, data []byte) {
		id1, tag1, body1, err1 := ReadFrame(bytes.NewReader(data))

		br := bufio.NewReader(bytes.NewReader(data))
		id2, tag2, n, err2 := ReadFrameHeader(br)
		var body2 []byte
		if err2 == nil && n > 0 {
			body2 = make([]byte, n)
			if _, err := io.ReadFull(br, body2); err != nil {
				err2 = err
				body2 = nil
			}
		}

		if (err1 == nil) != (err2 == nil) {
			t.Fatalf("decoders disagree: ReadFrame err=%v, ReadFrameHeader err=%v", err1, err2)
		}
		if err1 != nil {
			return
		}
		if id1 != id2 || tag1 != tag2 || !bytes.Equal(body1, body2) {
			t.Fatalf("decoders disagree: (%d,%d,%x) vs (%d,%d,%x)", id1, tag1, body1, id2, tag2, body2)
		}
		if len(body1) > MaxFrame-FrameOverhead {
			t.Fatalf("accepted %d-byte body above MaxFrame", len(body1))
		}
		// A declared length must match what the prefix said.
		if want := binary.BigEndian.Uint32(data[0:]); int(want)-FrameOverhead != len(body1) {
			t.Fatalf("length prefix %d but %d-byte body", want, len(body1))
		}
	})
}

// FuzzFrameRoundTrip encodes arbitrary (id, tag, body) through
// WriteFrame and requires both decoders to return it bit for bit.
func FuzzFrameRoundTrip(f *testing.F) {
	f.Add(uint32(0), uint8(0), []byte{})
	f.Add(uint32(1), OpPing, []byte{})
	f.Add(uint32(42), OpRead, []byte{0, 0, 0, 9, 0, 0, 0, 1, 0, 0, 0, 8, 0})
	f.Add(uint32(0xffffffff), uint8(0xff), bytes.Repeat([]byte{0xa5}, 1024))
	f.Fuzz(func(t *testing.T, id uint32, tag uint8, body []byte) {
		if len(body) > MaxFrame-FrameOverhead {
			body = body[:MaxFrame-FrameOverhead]
		}
		var buf bytes.Buffer
		if err := WriteFrame(&buf, id, tag, body); err != nil {
			t.Fatalf("WriteFrame: %v", err)
		}
		wire := buf.Bytes()

		gid, gtag, gbody, err := ReadFrame(bytes.NewReader(wire))
		if err != nil {
			t.Fatalf("ReadFrame: %v", err)
		}
		if gid != id || gtag != tag || !bytes.Equal(gbody, body) {
			t.Fatalf("ReadFrame round-trip: got (%d,%d,%x), want (%d,%d,%x)", gid, gtag, gbody, id, tag, body)
		}

		br := bufio.NewReader(bytes.NewReader(wire))
		hid, htag, n, err := ReadFrameHeader(br)
		if err != nil {
			t.Fatalf("ReadFrameHeader: %v", err)
		}
		if hid != id || htag != tag || n != len(body) {
			t.Fatalf("ReadFrameHeader: got (%d,%d,%d), want (%d,%d,%d)", hid, htag, n, id, tag, len(body))
		}
		rest := make([]byte, n)
		if _, err := io.ReadFull(br, rest); err != nil {
			t.Fatalf("body after header: %v", err)
		}
		if !bytes.Equal(rest, body) {
			t.Fatalf("body mismatch after ReadFrameHeader")
		}
	})
}
