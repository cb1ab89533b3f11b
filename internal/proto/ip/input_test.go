package ip

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"testing"
	"time"

	"ashs/internal/aegis"
	"ashs/internal/vcode"
)

// fragSpec is one datagram or fragment fed to Stack.Input.
type fragSpec struct {
	id      uint16
	off     int // fragment offset, bytes
	mf      bool
	plen    int  // payload bytes
	options int  // bytes of IP options (a multiple of 4)
	idle    bool // let every reassembly time out before this one
}

// fragment reports whether s is part of a fragmented datagram.
func (s fragSpec) fragment() bool { return s.mf || s.off != 0 }

// payloadOf is the bytes fragSpec s carries: byte i of the whole
// datagram is a function of the ID and i, so any two fragments agree
// where they overlap.
func payloadOf(s fragSpec) []byte {
	b := make([]byte, s.plen)
	for i := range b {
		b[i] = byte((s.off+i)*7) ^ byte(s.id)
	}
	return b
}

// frame builds s as a raw datagram addressed to the world's stack.
func (w *fragWorld) frame(s fragSpec) []byte {
	h := Header{
		TotalLen: uint16(HeaderLen + s.options + s.plen), ID: s.id, TTL: 64,
		Proto: ProtoUDP, Src: V4(10, 0, 0, 1), Dst: V4(10, 0, 0, 9),
		MF: s.mf, FragOff: s.off,
	}
	b := h.Marshal(nil)
	if s.options > 0 {
		b[0] = 0x40 | byte((HeaderLen+s.options)/4)
		b = append(b, bytes.Repeat([]byte{1}, s.options)...) // NOP options
		b[10], b[11] = 0, 0
		binary.BigEndian.PutUint16(b[10:], ^vcode.Fold16(vcode.CksumData(0, b)))
	}
	return append(b, payloadOf(s)...)
}

// input feeds one datagram to the stack and returns the payload of the
// datagram it completed, if any, after releasing it.
func (w *fragWorld) input(s fragSpec) ([]byte, *reasmBuf, bool) {
	if s.idle {
		w.p.Compute(w.k.Prof.Cycles(reasmTimeoutUs + 1))
	}
	raw := w.frame(s)
	seg := w.p.AS.MustAlloc(len(raw), "frag")
	copy(w.k.Bytes(seg.Base, len(raw)), raw)
	d, ok, err := w.st.Input(aegis.ContiguousFrame(w.k.Mem, seg.Base, len(raw)))
	if err != nil || !ok {
		return nil, nil, false
	}
	got := make([]byte, d.PayloadLen())
	d.Frame.Bytes(got, d.Off, len(got))
	w.st.Release(d)
	return got, d.slot, true
}

// runBounded runs body in a frag world on a goroutine of its own and fails
// t if the world has not finished within a deadline, so that a frame
// sequence that hangs the stack fails the test instead of stalling it.
func runBounded(t *testing.T, body func(w *fragWorld)) {
	t.Helper()
	const deadline = 5 * time.Second
	done := make(chan any, 1)
	go func() {
		defer func() { done <- recover() }()
		runFragWorld(t, body)
	}()
	select {
	case p := <-done:
		if p != nil {
			t.Fatalf("panic: %v", p)
		}
	case <-time.After(deadline):
		t.Fatalf("the frame sequence did not finish within %v", deadline)
	}
}

// TestInputRefusesWhatReassemblyCannotTake: a datagram with no payload
// and a datagram with options are dropped as BadHeader, whole or as a
// fragment. A zero-length fragment at offset 0 followed by the last
// fragment at offset 8 used to hang the stack in complete. Input reads
// every payload past the fixed header, so a datagram with options must
// never get that far. Each sequence runs under a deadline.
func TestInputRefusesWhatReassemblyCannotTake(t *testing.T) {
	for _, c := range []struct {
		name   string
		frags  []fragSpec
		bad    uint64
		dgrams []int // payload length of each completed datagram
	}{
		{"zero-length fragment, then the last", []fragSpec{
			{id: 1, off: 0, mf: true, plen: 0},
			{id: 1, off: 8, plen: 8},
		}, 1, nil},
		{"zero-length datagram", []fragSpec{{id: 2}}, 1, nil},
		{"options", []fragSpec{{id: 3, plen: 16, options: 4}}, 1, nil},
		{"options on a fragment", []fragSpec{
			{id: 4, off: 0, mf: true, plen: 8, options: 8},
			{id: 4, off: 8, plen: 8},
		}, 1, nil},
		{"whole datagram", []fragSpec{{id: 5, plen: 16}}, 0, []int{16}},
		{"two fragments", []fragSpec{
			{id: 6, off: 8, plen: 8},
			{id: 6, off: 0, mf: true, plen: 8},
		}, 0, []int{16}},
	} {
		t.Run(c.name, func(t *testing.T) {
			var lens []int
			var bad uint64
			runBounded(t, func(w *fragWorld) {
				for _, s := range c.frags {
					got, _, ok := w.input(s)
					if !ok {
						continue
					}
					lens = append(lens, len(got))
					whole := fragSpec{id: s.id, plen: len(got)}
					if !bytes.Equal(got, payloadOf(whole)) {
						t.Errorf("datagram %d: payload differs from the one sent", s.id)
					}
				}
				bad = w.st.BadHeader
			})
			if bad != c.bad || fmt.Sprint(lens) != fmt.Sprint(c.dgrams) {
				t.Errorf("BadHeader %d and datagrams %v, want %d and %v", bad, lens, c.bad, c.dgrams)
			}
		})
	}
}

// FuzzIPInput decodes its bytes into a short sequence of datagrams and
// fragments (ID, offset, MF, payload length, options, an idle gap) and
// feeds them to one Stack.Input. Reassembly has no other traffic: no
// experiment fragments. The oracle:
//   - every call returns, within a deadline, and nothing panics;
//   - a reassembly slot is in use only while a reassembly holds it, and
//     after the reassembly timeout none is;
//   - a completed datagram is as long as its last fragment's end, and a
//     whole one as long as its payload.
func FuzzIPInput(f *testing.F) {
	enc := func(fs ...fragSpec) []byte {
		var b []byte
		for _, s := range fs {
			b0 := byte(s.id&3) | byte(s.options/4)<<3
			if s.idle {
				b0 |= 4
			}
			b2 := byte(s.plen>>8) << 1
			if s.mf {
				b2 |= 1
			}
			b = append(b, b0, byte(s.off/8), b2, byte(s.plen))
		}
		return b
	}
	f.Add(enc(fragSpec{id: 1, mf: true}, fragSpec{id: 1, off: 8, plen: 8}))
	f.Add(enc(fragSpec{id: 3, plen: 16, options: 4}))
	f.Add(enc(fragSpec{id: 2, off: 8, plen: 8}, fragSpec{id: 2, mf: true, plen: 8}))
	f.Add(enc(fragSpec{id: 1, mf: true, plen: 8}, fragSpec{id: 1, off: 8, plen: 8, idle: true},
		fragSpec{id: 1, mf: true, plen: 8}))
	f.Fuzz(func(t *testing.T, data []byte) {
		const maxFrags = 12
		var fs []fragSpec
		for len(data) >= 4 && len(fs) < maxFrags {
			b := data[:4]
			data = data[4:]
			fs = append(fs, fragSpec{
				id:      uint16(b[0] & 3),
				idle:    b[0]&4 != 0,
				options: int(b[0]>>3&3) * 4,
				off:     int(b[1]) * 8,
				mf:      b[2]&1 != 0,
				plen:    int(b[2]>>1)<<8 | int(b[3]),
			})
		}
		runBounded(t, func(w *fragWorld) {
			lastEnd := map[uint16]int{}
			for i, s := range fs {
				if s.fragment() && !s.mf && s.options == 0 && s.plen > 0 && s.off+s.plen <= ReasmBufSize {
					lastEnd[s.id] = s.off + s.plen
				}
				got, slot, ok := w.input(s)
				switch {
				case !ok:
				case slot == nil && (s.fragment() || len(got) != s.plen):
					t.Errorf("frame %d (%+v) returned a whole datagram of %d bytes", i, s, len(got))
				case slot != nil && len(got) != lastEnd[s.id]:
					t.Errorf("frame %d (%+v) completed %d bytes, want the last fragment's end %d",
						i, s, len(got), lastEnd[s.id])
				}
				if n := w.slotsInUse(); n != len(w.st.reasm) {
					t.Errorf("after frame %d: %d slots in use, %d reassemblies", i, n, len(w.st.reasm))
				}
			}
			w.p.Compute(w.k.Prof.Cycles(reasmTimeoutUs + 1))
			w.st.sweepReasm(w.k.Now())
			if n := w.slotsInUse(); n != 0 || len(w.st.reasm) != 0 {
				t.Errorf("after the timeout: %d slots in use, %d reassemblies", n, len(w.st.reasm))
			}
		})
	})
}

// slotsInUse counts the stack's reassembly slots that are taken.
func (w *fragWorld) slotsInUse() int {
	n := 0
	for _, sl := range w.st.slots {
		if sl.inUse {
			n++
		}
	}
	return n
}
