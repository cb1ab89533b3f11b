package crl

import (
	"encoding/binary"

	"ashs/internal/vcode"
	"ashs/internal/vcode/reopt"
)

// This file adds the handlers the profile-guided re-optimization loop is
// evaluated on — each one shaped so a transform the static optimizer
// cannot prove profitable (or legal) becomes available once a profile
// nominates it — plus a registry (Library) enumerating every handler the
// package builds, so the three-way differential harness can sweep them
// all without maintaining its own list.

// NumShardValues is how many words ShardedCounterHandler hashes per
// message.
const NumShardValues = 12

// ShardedCounterHandler builds a per-message histogram update: hash each
// of NumShardValues message words into a bucket (modulo a shard count
// carried in the message) and bump that bucket's counter. Because the
// modulus arrives in the message, the static optimizer can never prove
// it nonzero — the divide check stays in the loop, once per word. The
// divisor is loop-invariant, though, so a profile marking the loop hot
// lets the re-optimizer hoist the check into the preheader: one check
// per message instead of one per word.
//
// Message layout: [4: modulus][4*NumShardValues: values].
func ShardedCounterHandler(bucketBase uint32) *vcode.Program {
	b := vcode.NewBuilder("crl-shard-counter")
	msg, mod, bkt := b.Temp(), b.Temp(), b.Temp()
	i, n, v, t := b.Temp(), b.Temp(), b.Temp(), b.Temp()
	b.Mov(msg, vcode.RArg0)
	b.Ld32(mod, msg, 0)
	b.AddIU(msg, msg, 4)
	b.MovI(bkt, int32(bucketBase))
	b.MovI(i, 0)
	b.MovI(n, NumShardValues*4)
	top := b.NewLabel()
	b.Bind(top)
	b.Ld32X(v, msg, i)
	b.RemU(v, v, mod)
	b.SllI(t, v, 2)
	b.Ld32X(v, bkt, t)
	b.AddIU(v, v, 1)
	b.St32X(bkt, t, v)
	b.AddIU(i, i, 4)
	b.BltU(i, n, top)
	b.MovI(vcode.RRet, 0)
	b.Ret()
	return b.MustAssemble()
}

// SparseRecordWriteHandler builds the sparse variant of the Section V-D
// record write: zero words in the record are skipped instead of stored
// (the reader treats the destination as zero-initialized). The skip makes
// the copy loop multi-block, and the optimizer coarsens a multi-block
// loop only under a profile marking it hot, so without one its
// per-iteration budget checks survive. The trip count is exact (the skip
// rejoins before the latch), so under a hot profile the checks coarsen
// into one up-front drain.
//
// Message layout: [RecordBytes: record data].
func SparseRecordWriteHandler(dstAddr, progressAddr uint32) *vcode.Program {
	b := vcode.NewBuilder("crl-write-sparse")
	dst, prog, i, n, v := b.Temp(), b.Temp(), b.Temp(), b.Temp(), b.Temp()
	b.MovI(dst, int32(dstAddr))
	b.MovI(prog, int32(progressAddr))
	b.MovI(i, 0)
	b.MovI(n, RecordBytes)
	top, skip := b.NewLabel(), b.NewLabel()
	b.Bind(top)
	b.Ld32X(v, vcode.RArg0, i)
	b.Beq(v, vcode.RZero, skip)
	b.St32X(dst, i, v)
	b.Bind(skip)
	b.St32(prog, 0, i)
	b.AddIU(i, i, 4)
	b.BltU(i, n, top)
	b.St32(prog, 0, n) // record complete
	b.MovI(vcode.RRet, 0)
	b.Ret()
	return b.MustAssemble()
}

// ChainMagic is the well-known tag ValidateHandler checks for in the
// canonical validate→increment chain.
const ChainMagic = 0x41534821 // "ASH!"

// ValidateHandler builds a chain-head guard: accept the message (RRet=0,
// letting the next chain member run) iff the word at magicOff equals
// magic, otherwise abort voluntarily to the user-level path. On its own
// it is trivial; its purpose is chain fusion — fused with a follower it
// becomes one download whose seam test replaces a full handler dispatch.
func ValidateHandler(magicOff, magic int32) *vcode.Program {
	b := vcode.NewBuilder("crl-validate")
	t, want := b.Temp(), b.Temp()
	bad := b.NewLabel()
	b.Ld32(t, vcode.RArg0, magicOff)
	b.MovI(want, magic)
	b.Bne(t, want, bad)
	b.MovI(vcode.RRet, 0)
	b.Ret()
	b.Bind(bad)
	b.MovI(vcode.RRet, 1)
	b.Ret()
	return b.MustAssemble()
}

// --------------------------------------------------------------------
// Registry
// --------------------------------------------------------------------

// Canonical flat-memory layout for Library handlers. The differential
// harness runs handlers against a flat region with these addresses baked
// in at build time; the real system allocates from the owner's address
// space instead.
const (
	LibCounterAddr  = 0x2000 // crl-increment counter word
	LibRecordAddr   = 0x2100 // record-write destination (RecordBytes)
	LibProgressAddr = 0x2180 // record-write progress word
	LibBucketBase   = 0x2200 // shard-counter buckets
	LibTableAddr    = 0x2400 // generic-write segment table
	LibLockBase     = 0x2600 // lock words
	LibSegBase      = 0x3000 // generic-write segment 0 data
	LibSegLimit     = 0x400  // generic-write segment 0 size
)

// LibraryEntry is one handler in the registry: its program, a message
// generator (i varies the content deterministically, covering success
// and failure paths), and the initial memory the handler expects.
type LibraryEntry struct {
	Name string
	Prog *vcode.Program
	// Msg builds the i'th test message for this handler.
	Msg func(i int) []byte
	// Setup seeds handler-expected state via store(addr, word); nil when
	// the handler needs none beyond a zeroed region.
	Setup func(store func(addr, val uint32))
}

func be32(vs ...uint32) []byte {
	out := make([]byte, 4*len(vs))
	for i, v := range vs {
		binary.BigEndian.PutUint32(out[i*4:], v)
	}
	return out
}

// Library enumerates every handler this package builds, each at its
// canonical flat-memory addresses. The three-way differential harness
// sweeps this list; new handlers added here are covered automatically.
func Library() []LibraryEntry {
	const genMagic = 0x44534d21 // GenericWriteHandler's wire magic
	fused, err := reopt.FuseChain("crl-chain-fused",
		ValidateHandler(4, ChainMagic),
		IncrementHandler(LibCounterAddr, 1, 0))
	if err != nil {
		panic(err) // static registry: both members are fusion-legal
	}
	record := func(i int, sparse bool) []byte {
		out := make([]byte, RecordBytes)
		for w := 0; w < RecordBytes/4; w++ {
			v := uint32(i*31 + w*7 + 1)
			if sparse && (w+i)%3 == 0 {
				v = 0
			}
			binary.BigEndian.PutUint32(out[w*4:], v)
		}
		return out
	}
	return []LibraryEntry{
		{
			Name: "crl-increment",
			Prog: IncrementHandler(LibCounterAddr, 1, 0),
			Msg:  func(i int) []byte { return be32(uint32(i*3 + 1)) },
		},
		{
			Name: "crl-write-trusted",
			Prog: TrustedWriteHandler(),
			Msg: func(i int) []byte {
				return append(be32(LibRecordAddr, 16), record(i, false)[:16]...)
			},
		},
		{
			Name: "crl-write-record",
			Prog: FixedRecordWriteHandler(LibRecordAddr, LibProgressAddr),
			Msg:  func(i int) []byte { return record(i, false) },
		},
		{
			Name: "crl-write-sparse",
			Prog: SparseRecordWriteHandler(LibRecordAddr, LibProgressAddr),
			Msg:  func(i int) []byte { return record(i, true) },
		},
		{
			Name: "crl-write-generic",
			Prog: GenericWriteHandler(LibTableAddr, 2, 1, 0),
			Msg: func(i int) []byte {
				magic := uint32(genMagic)
				segno := uint32(0)
				switch i % 4 {
				case 1:
					magic = 0xbad // fail path: wrong magic
				case 2:
					segno = 1 // fail path: zero-base segment
				}
				hdr := be32(magic, 1<<16, uint32(i), segno, 8, 16)
				return append(hdr, record(i, false)[:16]...)
			},
			Setup: func(store func(addr, val uint32)) {
				store(LibTableAddr, LibSegBase)
				store(LibTableAddr+4, LibSegLimit)
				store(LibTableAddr+8, 0) // segment 1: zero base, no access
				store(LibTableAddr+12, 0)
				// Segment 1 left zero: permission-fail path.
			},
		},
		{
			Name: "crl-lock",
			Prog: LockHandler(LibLockBase, 8, 1, 0),
			Msg: func(i int) []byte {
				idx := uint32(i % 10) // 8, 9 exercise the malformed path
				op := uint32(1 + i%2)
				return be32(idx, op, uint32(3+i%2))
			},
			Setup: func(store func(addr, val uint32)) {
				store(LibLockBase+4, 7) // lock 1 held by someone else
			},
		},
		{
			Name: "crl-shard-counter",
			Prog: ShardedCounterHandler(LibBucketBase),
			Msg: func(i int) []byte {
				vals := make([]uint32, 1+NumShardValues)
				vals[0] = uint32(5 + i%3) // modulus, always nonzero here
				for w := 0; w < NumShardValues; w++ {
					vals[1+w] = uint32(i*17 + w*13)
				}
				return be32(vals...)
			},
		},
		{
			Name: "crl-validate",
			Prog: ValidateHandler(4, ChainMagic),
			Msg: func(i int) []byte {
				magic := uint32(ChainMagic)
				if i%3 == 2 {
					magic = 0 // voluntary-abort path
				}
				return be32(uint32(i+1), magic)
			},
		},
		{
			Name: "crl-chain-fused",
			Prog: fused,
			Msg: func(i int) []byte {
				magic := uint32(ChainMagic)
				if i%3 == 2 {
					magic = 0 // seam exits with RRet != 0
				}
				return be32(uint32(i+1), magic)
			},
		},
	}
}
