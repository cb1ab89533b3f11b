package ip

import (
	"testing"
	"testing/quick"
)

func TestHeaderRoundTrip(t *testing.T) {
	h := Header{TOS: 0, TotalLen: 1500, ID: 42, TTL: 64, Proto: ProtoUDP,
		Src: V4(10, 0, 0, 1), Dst: V4(10, 0, 0, 2)}
	b := h.Marshal(nil)
	if len(b) != HeaderLen {
		t.Fatalf("marshal length %d", len(b))
	}
	got, err := Parse(b)
	if err != nil {
		t.Fatal(err)
	}
	if got.TotalLen != 1500 || got.ID != 42 || got.Proto != ProtoUDP ||
		got.Src != h.Src || got.Dst != h.Dst || got.TTL != 64 {
		t.Fatalf("Parse = %+v", got)
	}
	if got.Checksum == 0 {
		t.Fatal("checksum not computed")
	}
}

func TestFragmentFieldsRoundTrip(t *testing.T) {
	err := quick.Check(func(off uint16, mf, df bool) bool {
		h := Header{TotalLen: 100, TTL: 1, Proto: 6,
			FragOff: int(off&0x1fff) * 8, MF: mf, DF: df}
		got, err := Parse(h.Marshal(nil))
		return err == nil && got.FragOff == h.FragOff && got.MF == mf && got.DF == df
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
}

func TestParseRejectsCorruptHeader(t *testing.T) {
	h := Header{TotalLen: 100, TTL: 64, Proto: 6, Src: V4(1, 2, 3, 4), Dst: V4(5, 6, 7, 8)}
	b := h.Marshal(nil)
	for i := 0; i < HeaderLen; i++ {
		c := append([]byte(nil), b...)
		c[i] ^= 0x55
		if got, err := Parse(c); err == nil {
			// Only acceptable if the flip happens to keep a valid v4
			// header with correct checksum (impossible for a single flip).
			t.Fatalf("corrupt byte %d accepted: %+v", i, got)
		}
	}
}

func TestParseRejectsV6AndShort(t *testing.T) {
	if _, err := Parse([]byte{0x60, 0, 0, 0}); err == nil {
		t.Fatal("short/v6 header accepted")
	}
	b := make([]byte, HeaderLen)
	b[0] = 0x60
	if _, err := Parse(b); err == nil {
		t.Fatal("v6 header accepted")
	}
}

func TestPseudoCksumSymmetric(t *testing.T) {
	a := PseudoCksum(V4(1, 2, 3, 4), V4(5, 6, 7, 8), ProtoTCP, 100)
	b := PseudoCksum(V4(5, 6, 7, 8), V4(1, 2, 3, 4), ProtoTCP, 100)
	if a != b {
		t.Fatal("pseudo-header checksum not symmetric in addresses")
	}
}

func TestHostAddr(t *testing.T) {
	if HostAddr(0) != V4(10, 0, 0, 1) || HostAddr(5) != V4(10, 0, 0, 6) {
		t.Fatal("HostAddr mapping wrong")
	}
	if V4(10, 0, 0, 1).String() != "10.0.0.1" {
		t.Fatalf("String = %s", V4(10, 0, 0, 1))
	}
}

// TestHostPortInvertsHostAddr: every port across the octet carries maps
// back to itself, and the addresses no port has are refused.
func TestHostPortInvertsHostAddr(t *testing.T) {
	for _, port := range []int{0, 1, 253, 254, 255, 256, 65534, 65535, 65536, 1 << 20, 1<<24 - 2} {
		if got, ok := HostPort(HostAddr(port)); !ok || got != port {
			t.Errorf("HostPort(HostAddr(%d)) = %d, %v", port, got, ok)
		}
	}
	for _, a := range []Addr{V4(10, 0, 0, 0), V4(11, 0, 0, 1), V4(192, 168, 0, 1)} {
		if port, ok := HostPort(a); ok {
			t.Errorf("HostPort(%s) = %d, want no port", a, port)
		}
	}
}
