// Package crl is a miniature software distributed shared memory library
// in the style of CRL [Johnson, Kaashoek & Wallach, SOSP'95], which the
// paper cites as another consumer of ASHs ("executing the software
// distributed shared memory actions of CRL"). It supplies the handlers the
// evaluation needs:
//
//   - the remote-increment active message of Table V and Fig. 4;
//   - the two remote-write handlers of Section V-D: a *generic* one in the
//     style of Thekkath et al. [48] (segment number + offset, full
//     validation, acknowledgment reply) and an *application-specific* one
//     for trusted peers (raw pointer, no ack) that exploits application
//     semantics to use far fewer instructions;
//   - a remote lock handler (control initiation: "remote lock acquisition
//     in a distributed shared memory system").
//
// All handlers are real vcode programs that go through the verifier and
// (optionally) the sandboxer, so their dynamic instruction counts — the
// quantity Section V-D reports — are measured, not asserted.
package crl

import (
	"fmt"

	"ashs/internal/aegis"
	"ashs/internal/core"
	"ashs/internal/vcode"
)

// Node is one host's DSM state: a segment table in application memory
// (for the generic protocol) plus the shared regions themselves.
type Node struct {
	Owner *aegis.Process
	Sys   *core.System

	// TableSeg holds {base, limit} pairs; TableAddr is its address.
	tableSeg aegis.Segment
	nsegs    int
	segs     []aegis.Segment

	// CounterSeg backs remote increments.
	CounterSeg aegis.Segment
	// LockSeg holds lock words (0 = free, else owner id).
	LockSeg aegis.Segment
}

// MaxSegments bounds the generic protocol's segment table.
const MaxSegments = 16

// NewNode initializes DSM state for owner.
func NewNode(sys *core.System, owner *aegis.Process) *Node {
	n := &Node{Owner: owner, Sys: sys}
	n.tableSeg = owner.AS.MustAlloc(MaxSegments*8, "crl-segtable")
	n.CounterSeg = owner.AS.MustAlloc(4096, "crl-counters")
	n.LockSeg = owner.AS.MustAlloc(4096, "crl-locks")
	return n
}

// AddSegment registers a shared region in the generic protocol's table and
// returns its segment number.
func (n *Node) AddSegment(size int, name string) (int, aegis.Segment, error) {
	if n.nsegs >= MaxSegments {
		return 0, aegis.Segment{}, fmt.Errorf("crl: segment table full")
	}
	seg, err := n.Owner.AS.Alloc(size, "crl-"+name)
	if err != nil {
		return 0, aegis.Segment{}, err
	}
	id := n.nsegs
	n.nsegs++
	n.segs = append(n.segs, seg)
	k := n.Sys.K
	entry := n.tableSeg.Base + uint32(id*8)
	_ = vcode.Store32(k.Mem, entry, seg.Base)
	_ = vcode.Store32(k.Mem, entry+4, uint32(size))
	return id, seg, nil
}

// Segment returns a registered region.
func (n *Node) Segment(id int) aegis.Segment { return n.segs[id] }

// TableAddr is the segment table's address (baked into the generic
// handler's code at download time — dynamic code generation's constant
// folding).
func (n *Node) TableAddr() uint32 { return n.tableSeg.Base }

// --------------------------------------------------------------------
// Handler object code
// --------------------------------------------------------------------

// IncrementHandler builds the Table V remote-increment active message:
// read the increment from the message, bump the counter word, and reply
// with the new value from inside the kernel.
//
// Message layout: [4: increment]. Reply: [4: new value].
func IncrementHandler(counterAddr uint32, replyDst, replyVC int) *vcode.Program {
	b := vcode.NewBuilder("crl-increment")
	msg, cnt, val, inc := b.Temp(), b.Temp(), b.Temp(), b.Temp()
	b.Mov(msg, vcode.RArg0)
	b.MovI(cnt, int32(counterAddr))
	b.Ld32(inc, msg, 0)
	b.Ld32(val, cnt, 0)
	b.AddU(val, val, inc)
	b.St32(cnt, 0, val)
	b.St32(msg, 0, val) // build the reply in place (message vectoring)
	b.MovI(vcode.RArg0, int32(replyDst))
	b.MovI(vcode.RArg1, int32(replyVC))
	b.Mov(vcode.RArg2, msg)
	b.MovI(vcode.RArg3, 4)
	b.Call("ash_send")
	b.MovI(vcode.RRet, 0)
	b.Ret()
	return b.MustAssemble()
}

// TrustedWriteHandler builds the application-specific remote write of
// Section V-D: "the handler assumes it is given a pointer to memory,
// instead of a segment descriptor and offset" and that the sender is a
// trusted peer, so there is no validation and no acknowledgment.
//
// Message layout: [4: destination pointer][4: length][data...].
func TrustedWriteHandler() *vcode.Program {
	b := vcode.NewBuilder("crl-write-trusted")
	ptr, n := b.Temp(), b.Temp()
	b.Ld32(ptr, vcode.RArg0, 0)
	b.Ld32(n, vcode.RArg0, 4)
	b.AddIU(vcode.RArg0, vcode.RArg0, 8) // src = message payload
	b.Mov(vcode.RArg1, ptr)
	b.Mov(vcode.RArg2, n)
	b.Call("ash_copy")
	b.MovI(vcode.RRet, 0)
	b.Ret()
	return b.MustAssemble()
}

// RecordBytes is the fixed record size moved by FixedRecordWriteHandler.
const RecordBytes = 40

// FixedRecordWriteHandler builds the loop variant of the Section V-D
// remote write: a trusted peer sends a fixed-size 40-byte record which
// the handler copies word by word to a fixed destination, publishing the
// last offset written to a progress word each iteration (so a reader can
// observe partial records) and the full length once the copy completes.
// The per-word copy loop is the shape the check optimizer targets: the
// progress-word store runs through a loop-invariant base (its SFI check
// hoists to the preheader) and the trip count is a download-time
// constant (the per-iteration budget checks coarsen to one drain).
//
// Message layout: [40: record data].
func FixedRecordWriteHandler(dstAddr, progressAddr uint32) *vcode.Program {
	b := vcode.NewBuilder("crl-write-record")
	dst, prog, i, n, v := b.Temp(), b.Temp(), b.Temp(), b.Temp(), b.Temp()
	b.MovI(dst, int32(dstAddr))
	b.MovI(prog, int32(progressAddr))
	b.MovI(i, 0)
	b.MovI(n, RecordBytes)
	top := b.NewLabel()
	b.Bind(top)
	b.Ld32X(v, vcode.RArg0, i)
	b.St32X(dst, i, v)
	b.St32(prog, 0, i)
	b.AddIU(i, i, 4)
	b.BltU(i, n, top)
	b.St32(prog, 0, n) // record complete
	b.MovI(vcode.RRet, 0)
	b.Ret()
	return b.MustAssemble()
}

// GenericWriteHandler builds the generic remote write modeled after
// Thekkath et al.: the message carries a segment number, offset and
// length; the handler validates the request against the segment table
// (magic, version, bounds, permissions, alignment), performs the copy,
// and acknowledges the sender — the bookkeeping a protocol for untrusted
// peers cannot skip.
//
// Message layout:
//
//	[4: magic][4: version|flags][4: request id]
//	[4: segment#][4: offset][4: length][data...]
//
// Reply: [4: magic][4: request id][4: status].
func GenericWriteHandler(tableAddr uint32, nsegs int, replyDst, replyVC int) *vcode.Program {
	const magic = 0x44534d21 // "DSM!"
	b := vcode.NewBuilder("crl-write-generic")
	msg := b.Temp()
	t1, t2 := b.Temp(), b.Temp()
	segno, off, length := b.Temp(), b.Temp(), b.Temp()
	base, limit, dst, end := b.Temp(), b.Temp(), b.Temp(), b.Temp()
	reqid := b.Temp()
	fail := b.NewLabel()
	reply := b.NewLabel()
	status := b.Temp()

	b.Mov(msg, vcode.RArg0)
	// Magic and version checks.
	b.Ld32(t1, msg, 0)
	b.MovI(t2, magic)
	b.Bne(t1, t2, fail)
	b.Ld32(t1, msg, 4)
	b.SrlI(t1, t1, 16) // version in the high half
	b.MovI(t2, 1)
	b.Bne(t1, t2, fail)
	b.Ld32(reqid, msg, 8)
	// Request fields.
	b.Ld32(segno, msg, 12)
	b.Ld32(off, msg, 16)
	b.Ld32(length, msg, 20)
	// Segment table bounds.
	b.MovI(t1, int32(nsegs))
	b.BgeU(segno, t1, fail)
	// Table lookup: {base, limit} pairs.
	b.SllI(t1, segno, 3)
	b.MovI(t2, int32(tableAddr))
	b.AddU(t2, t2, t1)
	b.Ld32(base, t2, 0)
	b.Ld32(limit, t2, 4)
	// Permission: write access requires a nonzero base (simplified rights
	// word folded into the table entry being valid).
	b.Beq(base, vcode.RZero, fail)
	// Alignment: offset and length must be word multiples.
	b.AndI(t1, off, 3)
	b.Bne(t1, vcode.RZero, fail)
	b.AndI(t1, length, 3)
	b.Bne(t1, vcode.RZero, fail)
	// Bounds: off + len <= limit, with overflow check.
	b.AddU(end, off, length)
	b.BltU(end, off, fail) // wrapped
	b.BltU(limit, end, fail)
	// Destination and copy.
	b.AddU(dst, base, off)
	b.AddIU(vcode.RArg0, msg, 24)
	b.Mov(vcode.RArg1, dst)
	b.Mov(vcode.RArg2, length)
	b.Call("ash_copy")
	b.MovI(status, 0)
	b.Jmp(reply)

	b.Bind(fail)
	b.MovI(status, 1)

	b.Bind(reply)
	// Acknowledge: rebuild a 12-byte reply in the message buffer.
	b.MovI(t1, magic)
	b.St32(msg, 0, t1)
	b.St32(msg, 4, reqid)
	b.St32(msg, 8, status)
	b.MovI(vcode.RArg0, int32(replyDst))
	b.MovI(vcode.RArg1, int32(replyVC))
	b.Mov(vcode.RArg2, msg)
	b.MovI(vcode.RArg3, 12)
	b.Call("ash_send")
	b.MovI(vcode.RRet, 0)
	b.Ret()
	return b.MustAssemble()
}

// LockHandler builds the remote lock-acquisition handler (control
// initiation). Message: [4: lock index][4: op (1=acquire, 2=release)]
// [4: requester id]. Reply: [4: status (0=granted/released, 1=denied)].
// A malformed request is voluntarily aborted to the user-level library.
func LockHandler(lockBase uint32, nlocks int, replyDst, replyVC int) *vcode.Program {
	b := vcode.NewBuilder("crl-lock")
	msg, idx, op, who := b.Temp(), b.Temp(), b.Temp(), b.Temp()
	addr, cur, status, t := b.Temp(), b.Temp(), b.Temp(), b.Temp()
	deny := b.NewLabel()
	reply := b.NewLabel()
	release := b.NewLabel()
	toUser := b.NewLabel()

	grantStore := b.NewLabel()
	grantOnly := b.NewLabel()

	b.Mov(msg, vcode.RArg0)
	b.Ld32(idx, msg, 0)
	b.Ld32(op, msg, 4)
	b.Ld32(who, msg, 8)
	b.MovI(t, int32(nlocks))
	b.BgeU(idx, t, toUser) // malformed: let the library sort it out
	b.SllI(t, idx, 2)
	b.MovI(addr, int32(lockBase))
	b.AddU(addr, addr, t)
	b.Ld32(cur, addr, 0)
	b.MovI(t, 2)
	b.Beq(op, t, release)
	// Acquire: grant iff free or already ours (reentrant).
	b.Beq(cur, vcode.RZero, grantStore)
	b.Beq(cur, who, grantOnly)
	b.Jmp(deny)

	b.Bind(grantStore)
	b.St32(addr, 0, who)
	b.Bind(grantOnly)
	b.MovI(status, 0)
	b.Jmp(reply)

	b.Bind(release)
	// Release: only the holder may release.
	b.Bne(cur, who, deny)
	b.St32(addr, 0, vcode.RZero)
	b.MovI(status, 0)
	b.Jmp(reply)

	b.Bind(deny)
	b.MovI(status, 1)

	b.Bind(reply)
	b.St32(msg, 0, status)
	b.MovI(vcode.RArg0, int32(replyDst))
	b.MovI(vcode.RArg1, int32(replyVC))
	b.Mov(vcode.RArg2, msg)
	b.MovI(vcode.RArg3, 4)
	b.Call("ash_send")
	b.MovI(vcode.RRet, 0)
	b.Ret()

	b.Bind(toUser)
	b.MovI(vcode.RRet, 1) // voluntary abort
	b.Ret()
	return b.MustAssemble()
}
