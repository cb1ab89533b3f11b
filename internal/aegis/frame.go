package aegis

import (
	"fmt"

	"ashs/internal/vcode"
)

// Frame is a received frame, read where the device left it. The AN2's DMA
// lays data byte i at Entry.Addr+i; the Ethernet's striping DMA lays the
// frame out as alternating 16-byte data and pad lines (see Stripe). Frame
// is the one reader of either layout: the protocol libraries, Go handlers
// and the kernel entry point ash_msg_load all read a received frame
// through it, and only Line knows where a data byte lives.
type Frame struct {
	Entry   RingEntry
	Striped bool // laid out by the Ethernet's striping DMA
	mem     *vcode.FlatMem
}

// ContiguousFrame is a frame over n bytes laid out contiguously at addr
// in mem, such as an IP reassembly buffer or a test harness's message, so
// that readers treat it as they treat a frame in its receive buffer.
func ContiguousFrame(mem *vcode.FlatMem, addr uint32, n int) Frame {
	return Frame{Entry: RingEntry{Addr: addr, Len: n}, mem: mem}
}

// Frame is the handled message as its device laid it out.
func (mc *MsgCtx) Frame() Frame {
	return Frame{Entry: mc.Entry, Striped: mc.striped, mem: mc.K.Mem}
}

// Frame is arrival e of this binding as its device laid it out.
func (b *Binding) Frame(e RingEntry) Frame {
	return Frame{Entry: e, Striped: b.pool.striped, mem: b.pool.nic.K.Mem}
}

// Len is the frame's length in data bytes.
func (f *Frame) Len() int { return f.Entry.Len }

// Line reports where data byte i lives and how many data bytes from it on
// lie contiguously there: to the end of its data line in a striped frame,
// to the end of the frame otherwise.
func (f *Frame) Line(i int) (addr uint32, run int) {
	if uint(i) >= uint(f.Entry.Len) {
		panic(&frameRangeError{i, f.Entry.Len})
	}
	if !f.Striped {
		return f.Entry.Addr + uint32(i), f.Entry.Len - i
	}
	line, col := uint32(i)/StripeChunk, uint32(i)%StripeChunk
	return f.Entry.Addr + 2*StripeChunk*line + col, int(StripeChunk - col)
}

// frameRangeError is the panic value of a read past a frame. It is built
// in place, not by a helper, so Line still inlines.
type frameRangeError struct{ i, n int }

func (e *frameRangeError) Error() string {
	return fmt.Sprintf("aegis: data byte %d of a %d-byte frame", e.i, e.n)
}

// WholeLines is the number of whole data lines in n data bytes of a
// striped frame, 0 in a contiguous one: a loop over the frame pays a
// line-skip index update per line.
func (f *Frame) WholeLines(n int) int {
	if !f.Striped {
		return 0
	}
	return n / StripeChunk
}

// Byte reads data byte i. The readers are uncosted: callers charge what
// they model.
func (f *Frame) Byte(i int) byte {
	addr, _ := f.Line(i)
	return f.mem.Data[addr-f.mem.Base]
}

// U16 reads the big-endian 16-bit field at data offset i.
func (f *Frame) U16(i int) uint16 {
	return uint16(f.Byte(i))<<8 | uint16(f.Byte(i+1))
}

// U32 reads the big-endian 32-bit field at data offset i.
func (f *Frame) U32(i int) uint32 {
	return uint32(f.U16(i))<<16 | uint32(f.U16(i+2))
}

// Bytes copies data bytes [off, off+n) into dst, a line at a time.
func (f *Frame) Bytes(dst []byte, off, n int) {
	for done := 0; done < n; {
		addr, run := f.Line(off + done)
		at := addr - f.mem.Base
		done += copy(dst[done:n], f.mem.Data[at:at+uint32(min(run, n-done))])
	}
}

// Cksum is vcode.CksumData(0, data[off:off+n]), read in place a line at a
// time. A line that starts on an odd data byte opens with the low half of
// the halfword the previous line left open, which the end-around-carry sum
// takes in either order.
func (f *Frame) Cksum(off, n int) uint32 {
	var acc uint32
	for done := 0; done < n; {
		addr, run := f.Line(off + done)
		at := addr - f.mem.Base
		line := f.mem.Data[at : at+uint32(min(run, n-done))]
		odd := done % 2
		if odd == 1 {
			acc = vcode.CksumAdd(acc, uint32(line[0]))
		}
		acc = vcode.CksumData(acc, line[odd:])
		done += len(line)
	}
	return acc
}
