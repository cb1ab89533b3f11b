package aegis

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"testing"

	"ashs/internal/vcode"
)

// TestFrameReaders checks every reader of a received frame against the
// payload it holds, for both layouts: Byte, U16 and U32 at every offset
// 0–40, Bytes and Cksum at every offset parity and length, including
// ranges that open and close mid-line, and a data byte past the frame.
func TestFrameReaders(t *testing.T) {
	const base = 0x2000
	payload := make([]byte, 200)
	rand.New(rand.NewSource(4)).Read(payload)
	mem := vcode.NewFlatMem(base, 4*len(payload))
	contAt := uint32(base + 2*len(payload))
	Stripe(mem.Data, payload)
	copy(mem.Data[contAt-base:], payload)
	frames := map[string]Frame{
		"striped":    {Entry: RingEntry{Addr: base, Len: len(payload)}, Striped: true, mem: mem},
		"contiguous": ContiguousFrame(mem, contAt, len(payload)),
	}
	for name, f := range frames {
		for i := 0; i <= 40; i++ {
			if got := f.Byte(i); got != payload[i] {
				t.Errorf("%s: Byte(%d) = %#x, want %#x", name, i, got, payload[i])
			}
			if got, want := f.U16(i), binary.BigEndian.Uint16(payload[i:]); got != want {
				t.Errorf("%s: U16(%d) = %#x, want %#x", name, i, got, want)
			}
			if got, want := f.U32(i), binary.BigEndian.Uint32(payload[i:]); got != want {
				t.Errorf("%s: U32(%d) = %#x, want %#x", name, i, got, want)
			}
		}
		for off := 0; off < 40; off++ {
			for n := 0; off+n <= len(payload); n += 1 + n/17 {
				want := payload[off : off+n]
				out := make([]byte, n)
				f.Bytes(out, off, n)
				if string(out) != string(want) {
					t.Fatalf("%s: Bytes(off %d, n %d) differs from the payload", name, off, n)
				}
				if got, want := f.Cksum(off, n), vcode.CksumData(0, want); got != want {
					t.Fatalf("%s: Cksum(off %d, n %d) = %#x, want %#x", name, off, n, got, want)
				}
			}
		}
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: Line(%d) of a %d-byte frame did not panic", name, len(payload), len(payload))
				}
			}()
			f.Line(len(payload))
		}()
	}
}

// TestFrameCksumPastALaneBlock: Frame.Cksum over 1 and 4 MiB of 0xff and
// of random bytes, contiguous (one CksumData call for the whole range) and
// striped, equals the per-halfword end-around-carry loop.
func TestFrameCksumPastALaneBlock(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for _, mib := range []int{1, 4} {
		n := mib << 20
		random := make([]byte, n)
		rng.Read(random)
		for name, payload := range map[string][]byte{"0xff": bytes.Repeat([]byte{0xff}, n), "random": random} {
			var want uint32
			for i := 0; i < n; i += 2 {
				want = vcode.CksumAdd(want, uint32(payload[i])<<8|uint32(payload[i+1]))
			}
			mem := vcode.NewFlatMem(0x1000, 2*n)
			cont := ContiguousFrame(mem, 0x1000, n)
			copy(mem.Data, payload)
			if got := cont.Cksum(0, n); got != want {
				t.Errorf("contiguous, %d MiB of %s: Cksum = %#x, halfword loop %#x", mib, name, got, want)
			}
			Stripe(mem.Data, payload)
			striped := Frame{Entry: RingEntry{Addr: 0x1000, Len: n}, Striped: true, mem: mem}
			if got := striped.Cksum(0, n); got != want {
				t.Errorf("striped, %d MiB of %s: Cksum = %#x, halfword loop %#x", mib, name, got, want)
			}
		}
	}
}
