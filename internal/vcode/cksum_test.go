package vcode

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestCksumDataMatchesReference(t *testing.T) {
	err := quick.Check(func(data []byte) bool {
		got := Fold16(CksumData(0, data))
		// Reference: textbook 16-bit accumulation.
		var sum uint32
		for i := 0; i < len(data); i += 2 {
			w := uint32(data[i]) << 8
			if i+1 < len(data) {
				w |= uint32(data[i+1])
			}
			sum += w
			if sum > 0xffff {
				sum = sum&0xffff + sum>>16
			}
		}
		return got == uint16(sum)
	}, &quick.Config{MaxCount: 300})
	if err != nil {
		t.Fatal(err)
	}
}

func TestCksumIncremental(t *testing.T) {
	// Property: checksumming in chunks at even boundaries equals one pass.
	err := quick.Check(func(a, b []byte) bool {
		if len(a)%2 == 1 {
			a = a[:len(a)-1]
		}
		whole := CksumData(0, append(append([]byte(nil), a...), b...))
		split := CksumData(CksumData(0, a), b)
		return Fold16(whole) == Fold16(split)
	}, &quick.Config{MaxCount: 300})
	if err != nil {
		t.Fatal(err)
	}
}

// cksumHalfwords is the halfword-at-a-time loop CksumData replaced: one
// end-around-carry add per big-endian 16-bit word. It defines the
// accumulator CksumData must return, bit for bit.
func cksumHalfwords(acc uint32, data []byte) uint32 {
	step := func(acc, v uint32) uint32 {
		s := uint64(acc) + uint64(v)
		return uint32(s) + uint32(s>>32)
	}
	i := 0
	for ; i+1 < len(data); i += 2 {
		acc = step(acc, uint32(data[i])<<8|uint32(data[i+1]))
	}
	if i < len(data) {
		acc = step(acc, uint32(data[i])<<8)
	}
	return acc
}

func TestCksumDataMatchesHalfwordLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	random := make([]byte, 4099)
	rng.Read(random)
	ones := make([]byte, 70000) // 0xffff halfwords: the sum carries out of 32 bits
	for i := range ones {
		ones[i] = 0xff
	}
	zeros := make([]byte, 64)
	seeds := []uint32{0, 1, 0xffff, 0xfffffffe, 0xffffffff, 0x80000000, rng.Uint32()}
	for _, data := range [][]byte{random, ones, zeros} {
		for _, n := range []int{0, 1, 2, 3, 7, 8, 9, 15, 16, 17, 63, 64, 65, 1459, 1460, len(data) - 1, len(data)} {
			for _, seed := range seeds {
				for start := 0; start < 3 && start+n <= len(data); start++ {
					d := data[start : start+n]
					if got, want := CksumData(seed, d), cksumHalfwords(seed, d); got != want {
						t.Fatalf("CksumData(%#x, %d bytes of %#x...) = %#x, halfword loop %#x", seed, n, data[0], got, want)
					}
				}
			}
		}
	}
}

func TestFold16(t *testing.T) {
	cases := []struct {
		in   uint32
		want uint16
	}{
		{0, 0}, {0xffff, 0xffff}, {0x10000, 1}, {0x1fffe, 0xffff}, {0xffffffff, 0xffff},
	}
	for _, tc := range cases {
		if got := Fold16(tc.in); got != tc.want {
			t.Errorf("Fold16(%#x) = %#x, want %#x", tc.in, got, tc.want)
		}
	}
}

// cksumWords is the word-at-a-time loop CksumWords replaced: cksum32 on
// each big-endian word in turn.
func cksumWords(acc uint32, data []byte) uint32 {
	for ; len(data) >= 4; data = data[4:] {
		acc = CksumAdd(acc, binary.BigEndian.Uint32(data))
	}
	return acc
}

// TestCksumPastALaneBlock: at 1 and 4 MiB of 0xff and of random bytes —
// past where a single uint64 of paired 16-bit lanes wraps (256 KiB of
// 0xff) and across several folded blocks — CksumData and CksumWords return,
// bit for bit, what the per-halfword and per-word loops do.
func TestCksumPastALaneBlock(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, mib := range []int{1, 4} {
		ones := bytes.Repeat([]byte{0xff}, mib<<20)
		random := make([]byte, mib<<20)
		rng.Read(random)
		for name, data := range map[string][]byte{"0xff": ones, "random": random} {
			for _, seed := range []uint32{0, 0xffffffff} {
				for _, d := range [][]byte{data, data[:len(data)-6], data[2 : len(data)-1]} {
					if got, want := CksumData(seed, d), cksumHalfwords(seed, d); got != want {
						t.Errorf("CksumData(%#x, %d bytes of %s) = %#x, halfword loop %#x", seed, len(d), name, got, want)
					}
					w := d[:len(d)&^3]
					if got, want := CksumWords(seed, w), cksumWords(seed, w); got != want {
						t.Errorf("CksumWords(%#x, %d bytes of %s) = %#x, word loop %#x", seed, len(w), name, got, want)
					}
				}
			}
		}
	}
}
