package server

import (
	"bufio"
	"bytes"
	"io"
	"reflect"
	"testing"

	"repro/internal/acm"
	"repro/internal/fs"
)

// frame builds a syntactically valid frame for seeding.
func frame(id uint32, tag uint8, body []byte) []byte {
	var buf bytes.Buffer
	WriteFrame(&buf, id, tag, body)
	return buf.Bytes()
}

// decodeFrame reads one whole frame from data through ReadFrameHeader and
// a reader of the server's size, its body both ways the repository does:
// in place by Peek and Discard, as the server does, and by ReadFull into
// a slice of its own, as the client and the benchmark do. The two must
// agree; decodeFrame returns what they read and how many bytes the frame
// took.
func decodeFrame(t *testing.T, data []byte) (id uint32, tag uint8, body []byte, used int, err error) {
	t.Helper()
	peeked := decodeFrameBy(data, func(br *bufio.Reader, n int) ([]byte, error) {
		body, err := br.Peek(n)
		br.Discard(len(body))
		return body, err
	})
	read := decodeFrameBy(data, func(br *bufio.Reader, n int) ([]byte, error) {
		body := make([]byte, n)
		_, err := io.ReadFull(br, body)
		return body, err
	})
	if (peeked.err == nil) != (read.err == nil) {
		t.Fatalf("%x: Peek decode err %v, ReadFull decode err %v", data, peeked.err, read.err)
	}
	if read.err == nil && (peeked.id != read.id || peeked.tag != read.tag || !bytes.Equal(peeked.body, read.body) || peeked.used != read.used) {
		t.Fatalf("%x: Peek decodes %+v, ReadFull %+v", data, peeked, read)
	}
	return read.id, read.tag, read.body, read.used, read.err
}

type decoded struct {
	id   uint32
	tag  uint8
	body []byte
	used int
	err  error
}

func decodeFrameBy(data []byte, readBody func(br *bufio.Reader, n int) ([]byte, error)) decoded {
	br := bufio.NewReaderSize(bytes.NewReader(data), readerSize)
	id, tag, n, err := ReadFrameHeader(br)
	if err != nil {
		return decoded{err: err}
	}
	body, err := readBody(br, n)
	if err != nil {
		return decoded{err: err}
	}
	return decoded{id, tag, body, frameHeaderLen + n, nil}
}

// FuzzReadFrame feeds arbitrary bytes to the frame decoder. It may not
// panic, the server's in-place body read must agree with a copying one
// (decodeFrame), and a frame it accepts is canonical: no body above
// MaxFrame, and WriteFrame of what it decoded gives back exactly the
// bytes it consumed.
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
		id, tag, body, used, err := decodeFrame(t, data)
		if err != nil {
			return
		}
		if len(body) > MaxFrame-FrameOverhead {
			t.Fatalf("accepted %d-byte body above MaxFrame", len(body))
		}
		if again := frame(id, tag, body); !bytes.Equal(again, data[:used]) {
			t.Fatalf("decoded (%d,%d,%x) from %x, which encodes to %x", id, tag, body, data[:used], again)
		}
	})
}

// FuzzFrameRoundTrip encodes arbitrary (id, tag, body) through
// WriteFrame and requires the decoder to return it bit for bit.
func FuzzFrameRoundTrip(f *testing.F) {
	f.Add(uint32(0), uint8(0), []byte{})
	f.Add(uint32(1), OpPing, []byte{})
	f.Add(uint32(42), OpRead, []byte{0, 0, 0, 9, 0, 0, 0, 1, 0, 0, 0, 8, 0})
	f.Add(uint32(0xffffffff), uint8(0xff), bytes.Repeat([]byte{0xa5}, 1024))
	f.Fuzz(func(t *testing.T, id uint32, tag uint8, body []byte) {
		if len(body) > MaxFrame-FrameOverhead {
			body = body[:MaxFrame-FrameOverhead]
		}
		wire := frame(id, tag, body)
		gid, gtag, gbody, used, err := decodeFrame(t, wire)
		if err != nil {
			t.Fatalf("decode: %v", err)
		}
		if gid != id || gtag != tag || !bytes.Equal(gbody, body) || used != len(wire) {
			t.Fatalf("round-trip: got (%d,%d,%x) in %d bytes, want (%d,%d,%x) in %d", gid, gtag, gbody, used, id, tag, body, len(wire))
		}
	})
}

// bodyCodec is one message type seen by FuzzBodyRoundTrip: its parser,
// and its Append behind the any.
type bodyCodec struct {
	name   string
	parse  func([]byte) (any, bool)
	append func(any) []byte
}

func codecOf[M interface{ Append([]byte) []byte }](name string, parse func([]byte) (M, bool)) bodyCodec {
	return bodyCodec{
		name:   name,
		parse:  func(b []byte) (any, bool) { m, ok := parse(b); return m, ok },
		append: func(m any) []byte { return m.(M).Append(nil) },
	}
}

var bodyCodecs = []bodyCodec{
	codecOf("ReadReq", ParseReadReq),
	codecOf("WriteReq", ParseWriteReq),
	codecOf("CreateReq", ParseCreateReq),
	codecOf("FileReply", ParseFileReply),
	codecOf("Word", ParseWord),
	codecOf("SetPriorityReq", ParseSetPriorityReq),
	codecOf("SetPolicyReq", ParseSetPolicyReq),
	codecOf("SetTempPriReq", ParseSetTempPriReq),
}

// FuzzBodyRoundTrip holds every message type of protocol.go to one
// canonical form. Arbitrary bytes either fail to parse as a given type or
// re-append to the identical bytes — nothing is silently ignored — and
// any in-range value (built here from the fuzzed words) survives
// Append then parse unchanged. Seeded with the bodies the golden script
// sends.
func FuzzBodyRoundTrip(f *testing.F) {
	for _, seed := range [][]byte{
		{},
		append([]byte{0, 0, 0, 0, 32}, "golden-0"...),                                         // create
		append([]byte{0, 0, 0, 1, 0, 0, 0, 7, 0, 0, 0, 128}, bytes.Repeat([]byte{9}, 128)...), // write
		{0, 0, 0, 1, 0, 0, 0, 7, 0, 0, 0, 128, 0},                                             // read
		{0, 0, 0, 1, 0, 0, 0, 5},                                                              // set_priority
		{0, 0, 0, 1},                                                                          // get_priority, get_policy, close
		{0, 0, 0, 5, 1},                                                                       // set_policy
		{0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 7, 0, 0, 0, 2},                                      // set_temppri
	} {
		f.Add(seed, uint32(1), uint32(7), uint32(128), uint32(2), uint8(0))
	}
	f.Fuzz(func(t *testing.T, data []byte, w0, w1, w2, w3 uint32, by uint8) {
		for _, c := range bodyCodecs {
			if m, ok := c.parse(data); ok {
				if again := c.append(m); !bytes.Equal(again, data) {
					t.Fatalf("%s: %x parses to %+v, which appends to %x", c.name, data, m, again)
				}
			}
		}

		data = append([]byte{}, data[:min(len(data), 0xffff)]...) // in range for a write, and never nil
		values := []any{
			ReadReq{File: fs.FileID(w0), Blk: int32(w1), Off: int(w2 & 0xffff), Size: int(w3 & 0xffff), Flags: by},
			WriteReq{File: fs.FileID(w0), Blk: int32(w1), Off: int(w2 & 0xffff), Data: data},
			CreateReq{Disk: int(by), Size: int(w0), Name: "n" + string(data)},
			FileReply{ID: fs.FileID(w0), Size: int(w1)},
			Word(w0),
			SetPriorityReq{File: fs.FileID(w0), Prio: int(int32(w1))},
			SetPolicyReq{Prio: int(int32(w0)), Policy: acm.Policy(by)},
			SetTempPriReq{File: fs.FileID(w0), Start: int32(w1), End: int32(w2), Prio: int(int32(w3))},
		}
		for i, c := range bodyCodecs {
			got, ok := c.parse(c.append(values[i]))
			if !ok || !reflect.DeepEqual(got, values[i]) {
				t.Fatalf("%s: %+v appends and parses back as %+v (ok %v)", c.name, values[i], got, ok)
			}
		}
	})
}

// countingReader counts the reads made of it.
type countingReader struct {
	r     io.Reader
	reads int
}

func (c *countingReader) Read(p []byte) (int, error) {
	c.reads++
	return c.r.Read(p)
}

// TestReaderSizeReads: a stream of 1 000 whole-block write frames,
// decoded as readLoop decodes it (the header, the body peeked in place,
// then discarded) through a reader of the session's size, takes one read
// of the stream per three frames. A reader of one frame takes one read
// per frame.
func TestReaderSizeReads(t *testing.T) {
	const frames = 1000
	var stream bytes.Buffer
	body := WriteReq{File: 1, Data: make([]byte, 8192)}.Append(nil)
	for i := 0; i < frames; i++ {
		WriteFrame(&stream, uint32(i), OpWrite, body)
	}
	cr := &countingReader{r: &stream}
	br := bufio.NewReaderSize(cr, readerSize)
	for i := 0; i < frames; i++ {
		_, _, n, err := ReadFrameHeader(br)
		if err == nil {
			_, err = br.Peek(n)
		}
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		br.Discard(n)
	}
	if cr.reads > frames/3+1 {
		t.Errorf("%d whole-block write frames took %d reads, want at most %d", frames, cr.reads, frames/3+1)
	}
}
