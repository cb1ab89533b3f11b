package fault_test

import (
	"encoding/binary"
	"testing"

	"ashs/internal/aegis"
	"ashs/internal/fault"
	"ashs/internal/mach"
	"ashs/internal/netdev"
	"ashs/internal/sim"
	"ashs/internal/vcode"
)

// summed is frame i of a test: 16 bytes and the Internet checksum that
// makes them sum right, an end-to-end check no single flipped bit passes.
func summed(i int) []byte {
	f := make([]byte, 18)
	for j := 0; j < 16; j++ {
		f[j] = byte(16*i + j)
	}
	binary.BigEndian.PutUint16(f[16:], ^vcode.Fold16(vcode.CksumData(0, f[:16])))
	return f
}

// TestBoardCheckUnderThePlane: the plane is an injector, so the switch seals
// every frame it carries. At an aegis board a corruption the plane does not
// refresh is dropped (Rx.CRC); a sneak passes the board, is delivered, and
// only the end-to-end checksum rejects it.
func TestBoardCheckUnderThePlane(t *testing.T) {
	const frames, vc = 5, 7
	for _, c := range []struct {
		name string
		wire fault.WireFaults
		want aegis.RxStats
	}{
		{"clean", fault.WireFaults{}, aegis.RxStats{Delivered: frames}},
		{"corrupt", fault.WireFaults{CorruptProb: 1}, aegis.RxStats{CRC: frames}},
		{"sneak", fault.WireFaults{SneakProb: 1}, aegis.RxStats{Delivered: frames}},
	} {
		eng := sim.NewEngine()
		prof := mach.DS5000_240()
		sw := netdev.NewSwitch(eng, prof, netdev.AN2Config())
		tx := sw.NewPort()
		k := aegis.NewKernel("rx", eng, prof)
		an2 := aegis.NewAN2(k, sw)
		b, err := an2.BindVC(k.Spawn("app", func(*aegis.Process) {}), vc, 8, 4096)
		if err != nil {
			t.Fatal(err)
		}
		fault.New(1, fault.Schedule{Name: c.name, Wire: c.wire}).AttachWire(sw)
		for i := 0; i < frames; i++ {
			pkt := sw.LeaseData(summed(i))
			pkt.Dst, pkt.VC = an2.Addr(), vc
			if err := tx.Transmit(pkt); err != nil {
				t.Fatal(err)
			}
		}
		eng.Run()
		if an2.Rx != c.want {
			t.Errorf("%s: Rx = %+v, want %+v", c.name, an2.Rx, c.want)
		}
		for b.Ring().Len() > 0 {
			e, _ := b.Ring().TryRecv()
			ok := vcode.Fold16(vcode.CksumData(0, k.Bytes(e.Addr, e.Len))) == 0xffff
			if ok != (c.name == "clean") {
				t.Errorf("%s: a delivered frame passes its end-to-end checksum: %v", c.name, ok)
			}
		}
	}
}

// TestDuplicateCarriesTheFrameCheck: a frame the plane duplicates arrives
// twice, the copy through Redeliver, and both carry the check the switch
// sealed the original with: damage either and it is no longer intact.
func TestDuplicateCarriesTheFrameCheck(t *testing.T) {
	eng := sim.NewEngine()
	sw := netdev.NewSwitch(eng, mach.DS5000_240(), netdev.AN2Config())
	tx, rx := sw.NewPort(), sw.NewPort()
	plane := fault.New(1, fault.Schedule{Name: "dup", Wire: fault.WireFaults{DupProb: 1}})
	plane.AttachWire(sw)
	data := []byte("duplicate me")
	copies := 0
	rx.SetReceiver(func(pkt *netdev.PacketBuf) {
		copies++
		if pkt.FCS != netdev.FrameCheck(data) || !pkt.Intact() {
			t.Errorf("copy %d: FCS %08x, intact %v", copies, pkt.FCS, pkt.Intact())
		}
		pkt.Bytes()[0] ^= 1
		if pkt.Intact() {
			t.Errorf("copy %d: damaged and still intact, so it carries no frame check", copies)
		}
	})
	pkt := sw.LeaseData(data)
	pkt.Dst = rx.Addr()
	if err := tx.Transmit(pkt); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	if copies != 2 || plane.C.WireDups != 1 || sw.Redelivered != 1 || sw.Pool.InUse() != 0 {
		t.Errorf("%d copies, %d duplicated, %d redelivered, %d leases out", copies, plane.C.WireDups, sw.Redelivered, sw.Pool.InUse())
	}
}
