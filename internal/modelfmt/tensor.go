package modelfmt

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"

	"ampsinf/internal/tensor"
)

// Tensor wire format (little-endian), used for activations staged through
// S3 between partition lambdas:
//
//	magic [4]byte "AMPT"
//	rank  uint16, dims []uint32
//	data  []float32 (bits)
//	crc   uint32 over everything after the magic

var tensorMagic = [4]byte{'A', 'M', 'P', 'T'}

// EncodeTensor serializes a tensor for transfer into one exactly sized
// buffer.
func EncodeTensor(t *tensor.Tensor) []byte {
	shape := t.Shape()
	data := t.Data()
	out := make([]byte, 4+2+4*len(shape)+4*len(data)+4)
	copy(out, tensorMagic[:])
	body := out[4 : len(out)-4]
	binary.LittleEndian.PutUint16(body, uint16(len(shape)))
	off := 2
	for _, d := range shape {
		binary.LittleEndian.PutUint32(body[off:], uint32(d))
		off += 4
	}
	for _, v := range data {
		binary.LittleEndian.PutUint32(body[off:], math.Float32bits(v))
		off += 4
	}
	binary.LittleEndian.PutUint32(out[len(out)-4:], crc32.ChecksumIEEE(body))
	return out
}

// Decode limits: a tensor larger than maxDecodeElems elements (1 GiB
// of float32) or deeper than maxDecodeRank cannot come from this
// system and is rejected before any allocation is sized from it —
// hostile dimension lists must not overflow the element product or
// drive a huge make().
const (
	maxDecodeElems = 1 << 28
	maxDecodeRank  = 16
)

// DecodeTensor parses a tensor, verifying the checksum. Arbitrary
// (corrupt or hostile) input errors cleanly: it never panics and never
// allocates more than a small multiple of len(data).
func DecodeTensor(data []byte) (*tensor.Tensor, error) {
	if len(data) < 10 || data[0] != 'A' || data[1] != 'M' || data[2] != 'P' || data[3] != 'T' {
		return nil, fmt.Errorf("modelfmt: bad tensor magic")
	}
	body := data[4 : len(data)-4]
	r := bytes.NewReader(data[4:])
	wantCRC := crc32.ChecksumIEEE(body)
	rank, err := readU16(r)
	if err != nil {
		return nil, fmt.Errorf("modelfmt: truncated tensor rank")
	}
	if rank > maxDecodeRank {
		return nil, fmt.Errorf("modelfmt: implausible tensor rank %d", rank)
	}
	shape := make([]int, rank)
	elems := 1
	for i := range shape {
		d, err := readU32(r)
		if err != nil {
			return nil, fmt.Errorf("modelfmt: truncated tensor shape")
		}
		if d == 0 || d > maxDecodeElems {
			return nil, fmt.Errorf("modelfmt: implausible tensor dimension %d", d)
		}
		shape[i] = int(d)
		elems *= int(d)
		// Each factor is ≤ 2^28 and the running product is checked every
		// step, so it can reach at most 2^56 — far from int64 overflow.
		if elems > maxDecodeElems {
			return nil, fmt.Errorf("modelfmt: tensor of %v exceeds the %d-element decode limit", shape[:i+1], maxDecodeElems)
		}
	}
	if len(body) != 2+4*int(rank)+4*elems {
		return nil, fmt.Errorf("modelfmt: tensor payload is %d bytes, want %d", len(body), 2+4*int(rank)+4*elems)
	}
	vals := make([]float32, elems)
	for i := range vals {
		bits, err := readU32(r)
		if err != nil {
			return nil, fmt.Errorf("modelfmt: truncated tensor data")
		}
		vals[i] = math.Float32frombits(bits)
	}
	var crcBytes [4]byte
	if _, err := fullRead(r, crcBytes[:]); err != nil {
		return nil, fmt.Errorf("modelfmt: truncated tensor checksum")
	}
	got := uint32(crcBytes[0]) | uint32(crcBytes[1])<<8 | uint32(crcBytes[2])<<16 | uint32(crcBytes[3])<<24
	if got != wantCRC {
		return nil, fmt.Errorf("modelfmt: tensor checksum mismatch (corrupt transfer)")
	}
	return tensor.FromSlice(vals, shape...), nil
}
