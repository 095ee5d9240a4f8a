// Package procpool is the process-isolation layer under the tiled
// flow's -proc-workers mode: a supervised worker subprocess speaks a
// length-prefixed, CRC32-guarded gob frame protocol on stdin/stdout —
// the same framing discipline internal/checkpoint uses on disk — and
// the supervisor side (Worker) turns everything the child does (hello,
// heartbeats, partial snapshots, replies, death) into one event stream.
//
// The package deliberately knows nothing about the flow: a Task payload
// is a quarantine.Bundle (the self-contained window encoding PR 4
// introduced for post-mortem repro, promoted here to a live wire
// format), and the Runner that executes it is injected by the caller.
// That keeps procpool a leaf below internal/flow, which both supervises
// workers and — through flow.Serve, flow.Listen and flow.ServeIfWorker
// — serves them, resolving each task's optimizer chain from the
// bundle's engine names through the same engine registry an
// in-process run uses.
package procpool

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
)

// MaxFrameBytes bounds one frame's payload: a corrupt or hostile length
// prefix must not demand an absurd allocation. It matches
// quarantine.MaxBundleBytes since a Task frame carries a bundle.
const MaxFrameBytes = 256 << 20

// ErrTornFrame marks a frame cut short: the stream ended inside the
// header or the declared payload. On a worker pipe this is the
// signature of process death mid-write.
var ErrTornFrame = errors.New("procpool: torn frame")

// ErrFrameTooBig marks a frame rejected by the MaxFrameBytes bound, on
// either side of the stream: a writer about to ship a payload the peer
// is contractually obliged to reject fails locally instead, and a
// reader seeing an oversized declared length refuses it before any
// allocation.
var ErrFrameTooBig = errors.New("procpool: frame exceeds MaxFrameBytes")

// ErrFrameCRC marks a fully-present frame whose payload fails its
// checksum — bit corruption on the pipe, or interleaved writes from a
// buggy sender.
var ErrFrameCRC = errors.New("procpool: frame CRC mismatch")

// WriteFrame writes one payload as
//
//	uint32 BE payload length | uint32 BE CRC32(IEEE, payload) | payload
//
// in a single Write call, so frames from one writer never interleave
// mid-frame (callers serializing at the frame level get atomic frames).
func WriteFrame(w io.Writer, payload []byte) error {
	if len(payload) > MaxFrameBytes {
		return fmt.Errorf("%w: payload %d bytes", ErrFrameTooBig, len(payload))
	}
	frame := make([]byte, 8+len(payload))
	binary.BigEndian.PutUint32(frame[0:4], uint32(len(payload)))
	binary.BigEndian.PutUint32(frame[4:8], crc32.ChecksumIEEE(payload))
	copy(frame[8:], payload)
	_, err := w.Write(frame)
	return err
}

// ReadFrame reads one frame and returns its verified payload. io.EOF at
// a frame boundary is a clean end of stream; a stream ending mid-frame
// is ErrTornFrame, a checksum failure is ErrFrameCRC, and an oversized
// declared length is rejected before any allocation.
func ReadFrame(r io.Reader) ([]byte, error) {
	var hdr [8]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		if err == io.EOF {
			return nil, io.EOF
		}
		return nil, fmt.Errorf("%w: short header: %w", ErrTornFrame, err)
	}
	ln := binary.BigEndian.Uint32(hdr[0:4])
	want := binary.BigEndian.Uint32(hdr[4:8])
	if ln > MaxFrameBytes {
		return nil, fmt.Errorf("%w: declared length %d bytes", ErrFrameTooBig, ln)
	}
	payload := make([]byte, ln)
	if n, err := io.ReadFull(r, payload); err != nil {
		return nil, fmt.Errorf("%w: %d of %d payload bytes: %w", ErrTornFrame, n, ln, err)
	}
	if crc32.ChecksumIEEE(payload) != want {
		return nil, ErrFrameCRC
	}
	return payload, nil
}
