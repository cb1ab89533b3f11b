package nfs

import (
	"bytes"
	"encoding/binary"
	"testing"

	"ashs/internal/alloctest"
)

// rpc is a request frame for Server.dispatch.
func rpc(proc uint32, fh Handle, a, b uint32, payload []byte) []byte {
	req := make([]byte, 20, 20+len(payload))
	binary.BigEndian.PutUint32(req[4:], proc)
	binary.BigEndian.PutUint32(req[8:], uint32(fh))
	binary.BigEndian.PutUint32(req[12:], a)
	binary.BigEndian.PutUint32(req[16:], b)
	return append(req, payload...)
}

// TestWritePath: WRITEs against the server, one table row per shape —
// sequential appends, an overwrite inside the file, a write across the old
// end, a write past the end (a hole, refused with ErrIO) — each checked
// against a plain byte-slice model. The file then reads back byte for byte
// in reads that cross every block boundary, and the writes allocate at most
// twice the file's final size on the Go heap (storage grows by blocks; a
// file regrown and copied at every extending write allocates the sum of its
// sizes).
func TestWritePath(t *testing.T) {
	type write struct{ off, n int }
	appends := func(chunk, total int) []write {
		var ws []write
		for off := 0; off < total; off += chunk {
			ws = append(ws, write{off, min(chunk, total-off)})
		}
		return ws
	}
	for _, c := range []struct {
		name   string
		writes []write
	}{
		{"block appends", appends(4096, 64<<10)},
		{"odd appends", appends(3000, 30000)},
		{"one byte at a time", appends(1, 5000)},
		{"overwrite inside", append(appends(4096, 16<<10),
			write{5000, 2000}, write{4090, 12}, write{0, 1}, write{16<<10 - 1, 1})},
		{"straddle the end", append(appends(2000, 6000),
			write{5000, 4000}, write{9000 - 1, MaxIO})},
		{"hole refused", append(appends(4096, 8192),
			write{8193, 10}, write{40 << 20, 10}, write{8192, 1}, write{8194, 1})},
	} {
		t.Run(c.name, func(t *testing.T) {
			var s *Server
			var fh Handle
			// call serves req as Serve does, into the reused reply buffer.
			call := func(req []byte) []byte {
				s.reply = s.dispatch(req)
				return s.reply
			}
			data := make([][]byte, len(c.writes))
			var model []byte
			var want []uint32
			for i, w := range c.writes {
				data[i] = make([]byte, w.n)
				for j := range data[i] {
					data[i][j] = byte(i*131 + j*7 + 1)
				}
				if w.off > len(model) {
					want = append(want, ErrIO)
					continue
				}
				want = append(want, OK)
				if end := w.off + w.n; end > len(model) {
					model = append(model, make([]byte, end-len(model))...)
				}
				copy(model[w.off:], data[i])
			}
			// Each measured run writes into a fresh file on a fresh server.
			var reqs [][]byte
			got := make([]uint32, len(c.writes))
			allocs := alloctest.Bytes(func() {
				s = NewServer()
				fh = s.AddFile("f", nil)
				reqs = reqs[:0]
				for i, w := range c.writes {
					reqs = append(reqs, rpc(ProcWrite, fh, uint32(w.off), 0, data[i]))
				}
				call(rpc(ProcGetAttr, fh, 0, 0, nil)) // grows the reply buffer
			}, func() {
				for i, req := range reqs {
					got[i] = be32(call(req)[4:])
				}
			})
			for i := range want {
				if got[i] != want[i] {
					t.Errorf("write %d %+v: status %d, want %d", i, c.writes[i], got[i], want[i])
				}
			}
			if a, _ := unmarshalAttr(call(rpc(ProcGetAttr, fh, 0, 0, nil))[8:]); int(a.Size) != len(model) {
				t.Fatalf("size %d, want %d", a.Size, len(model))
			}
			// Reads of 1000 bytes every 1000 cross each block boundary
			// at a different phase; then a full-sized read from just
			// before the first boundary, one that runs off the end, and
			// one that starts past it.
			type read struct{ off, n int }
			var reads []read
			for off := 0; off < len(model); off += 1000 {
				reads = append(reads, read{off, 1000})
			}
			reads = append(reads, read{blockSize - 1, MaxIO}, read{len(model) - 10, 100}, read{len(model) + 1, 10})
			for _, r := range reads {
				rep := call(rpc(ProcRead, fh, uint32(r.off), uint32(r.n), nil))
				if st := be32(rep[4:]); st != OK {
					t.Fatalf("read %+v: status %d", r, st)
				}
				lo := min(r.off, len(model))
				hi := min(lo+r.n, len(model))
				if cnt := be32(rep[20:]); int(cnt) != hi-lo || !bytes.Equal(rep[24:], model[lo:hi]) {
					t.Fatalf("read %+v: %d bytes differ from the %d written", r, cnt, hi-lo)
				}
			}
			t.Logf("%d-byte file: writes allocate %d B", len(model), allocs)
			if allocs > 2*uint64(len(model)) {
				t.Errorf("%d-byte file: writes allocate %d B, want at most twice its size", len(model), allocs)
			}
		})
	}
}
