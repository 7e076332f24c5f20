package wire

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"sync"
)

// frameBufMax bounds the capacity of a buffer returned to framePool: the
// buffer of a rare huge answer is left to the collector instead of being
// held by the pool for good.
const frameBufMax = 64 << 10

var framePool = sync.Pool{New: func() any { return new([]byte) }}

// encodeFrame encodes v as one whole frame — the 4-byte big-endian payload
// length, then the JSON payload — into a buffer from framePool, so the frame
// can leave in a single write. The caller hands the buffer back with
// releaseFrame. A payload over MaxFrame is an error, as is anything
// encoding/json refuses; either way no buffer is returned.
func encodeFrame(v interface{}) (*[]byte, error) {
	payload, err := json.Marshal(v)
	if err != nil {
		return nil, fmt.Errorf("wire: encoding frame: %w", err)
	}
	if len(payload) > MaxFrame {
		return nil, fmt.Errorf("%w: %d bytes", ErrFrameTooLarge, len(payload))
	}
	bp := framePool.Get().(*[]byte)
	b := append((*bp)[:0], 0, 0, 0, 0)
	binary.BigEndian.PutUint32(b, uint32(len(payload)))
	*bp = append(b, payload...)
	return bp, nil
}

// releaseFrame returns an encodeFrame buffer to the pool.
func releaseFrame(bp *[]byte) {
	if cap(*bp) <= frameBufMax {
		framePool.Put(bp)
	}
}
