package modelfmt

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"

	"ampsinf/internal/tensor"
)

func TestTensorRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	x := tensor.New(2, 3, 4, 5)
	for i := range x.Data() {
		x.Data()[i] = float32(rng.NormFloat64())
	}
	blob := EncodeTensor(x)
	y, err := DecodeTensor(blob)
	if err != nil {
		t.Fatal(err)
	}
	if !tensor.AllClose(x, y, 0) {
		t.Fatal("tensor changed in round trip")
	}
	if !y.Shape().Equal(x.Shape()) {
		t.Fatalf("shape %v", y.Shape())
	}
}

func TestTensorDetectsCorruption(t *testing.T) {
	blob := EncodeTensor(tensor.New(4, 4))
	bad := append([]byte(nil), blob...)
	bad[len(bad)-6] ^= 1
	if _, err := DecodeTensor(bad); err == nil {
		t.Fatal("corrupted tensor accepted")
	}
	if _, err := DecodeTensor(blob[:8]); err == nil {
		t.Fatal("truncated tensor accepted")
	}
	if _, err := DecodeTensor([]byte("AMPX12345678")); err == nil {
		t.Fatal("bad magic accepted")
	}
	// Payload length mismatch.
	if _, err := DecodeTensor(append(blob, 0, 0, 0, 0)); err == nil {
		t.Fatal("padded tensor accepted")
	}
}

func TestTensorRoundTripProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		dims := make([]int, 1+rng.Intn(4))
		for i := range dims {
			dims[i] = 1 + rng.Intn(5)
		}
		x := tensor.New(dims...)
		for i := range x.Data() {
			x.Data()[i] = float32(rng.NormFloat64())
		}
		y, err := DecodeTensor(EncodeTensor(x))
		return err == nil && tensor.AllClose(x, y, 0)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestTensorEncodedSize(t *testing.T) {
	x := tensor.New(10, 10)
	blob := EncodeTensor(x)
	// magic(4) + rank(2) + dims(8) + data(400) + crc(4)
	if len(blob) != 4+2+8+400+4 {
		t.Fatalf("encoded size %d", len(blob))
	}
}

// The wire bytes of a small tensor, pinned: the encoder may change how
// it builds the buffer, never what it writes.
func TestTensorEncodingBytes(t *testing.T) {
	x := tensor.FromSlice([]float32{1.5, -2, 0, 3.25, -0.125, 65504}, 2, 3)
	want := []byte{
		0x41, 0x4d, 0x50, 0x54, // magic "AMPT"
		0x02, 0x00, // rank 2
		0x02, 0x00, 0x00, 0x00, 0x03, 0x00, 0x00, 0x00, // dims 2, 3
		0x00, 0x00, 0xc0, 0x3f, 0x00, 0x00, 0x00, 0xc0, 0x00, 0x00, 0x00, 0x00,
		0x00, 0x00, 0x50, 0x40, 0x00, 0x00, 0x00, 0xbe, 0x00, 0xe0, 0x7f, 0x47,
		0xea, 0xe2, 0xb2, 0xe1, // crc32 over rank, dims and data
	}
	got := EncodeTensor(x)
	if !bytes.Equal(got, want) {
		t.Fatalf("encoding changed:\ngot  %#v\nwant %#v", got, want)
	}
	if len(got) != cap(got) {
		t.Fatalf("encoding has len %d, cap %d: want one exactly sized buffer", len(got), cap(got))
	}
	if a := testing.AllocsPerRun(20, func() { EncodeTensor(x) }); a > 1 {
		t.Fatalf("EncodeTensor made %v allocations, want at most 1", a)
	}
}
