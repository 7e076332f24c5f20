package wire

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"sync"
)

// encodeFrame encodes v as one frame's JSON payload: json.Marshal's own
// exact-size slice, which the result cache keeps as it is and frameWriter
// sends behind its header without a copy. A payload over MaxFrame is an
// error, as is anything encoding/json refuses.
func encodeFrame(v interface{}) ([]byte, error) {
	payload, err := json.Marshal(v)
	if err != nil {
		return nil, fmt.Errorf("wire: encoding frame: %w", err)
	}
	if len(payload) > MaxFrame {
		return nil, fmt.Errorf("%w: %d bytes", ErrFrameTooLarge, len(payload))
	}
	return payload, nil
}

// frameWriter sends encoded payloads as frames. The 4-byte big-endian length
// and the payload leave in one vectored write (net.Buffers), which a TCP
// connection turns into a single writev: one syscall per frame, and the
// payload is never copied next to its header. It only reads the payload — a
// cached one is shared by every connection replaying it. A frameWriter is
// used by one goroutine at a time; reusing it keeps a write allocation-free.
type frameWriter struct {
	hdr  [4]byte
	bufs [2][]byte
	out  net.Buffers
}

func (fw *frameWriter) write(w io.Writer, payload []byte) error {
	binary.BigEndian.PutUint32(fw.hdr[:], uint32(len(payload)))
	fw.bufs = [2][]byte{fw.hdr[:], payload}
	fw.out = fw.bufs[:]
	_, err := fw.out.WriteTo(w)
	fw.bufs[1] = nil // hold no payload past its write
	return err
}

var frameWriters = sync.Pool{New: func() any { return new(frameWriter) }}
