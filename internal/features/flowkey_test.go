package features

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"testing"

	"iguard/internal/netpkt"
)

// tieProneKeyPacket draws a packet whose endpoints often tie: half the
// time each IP and each port comes from a pool of two values, so equal
// IPs, equal ports and fully equal endpoints all occur, in both
// directions.
func tieProneKeyPacket(r *rand.Rand) netpkt.Packet {
	ip := func() [4]byte {
		var a [4]byte
		if r.Intn(2) == 0 {
			binary.BigEndian.PutUint32(a[:], 0x0a000001+uint32(r.Intn(2)))
		} else {
			binary.BigEndian.PutUint32(a[:], r.Uint32())
		}
		return a
	}
	port := func() uint16 {
		if r.Intn(2) == 0 {
			return 80 + uint16(r.Intn(2))
		}
		return uint16(r.Uint32())
	}
	return netpkt.Packet{SrcIP: ip(), DstIP: ip(), SrcPort: port(), DstPort: port(), Proto: uint8(r.Uint32())}
}

// checkCanonicalInto pins the in-place key builders to the value
// spelling: CanonicalInto must write KeyOf(p).Canonical() bit for bit
// over a key pre-filled with garbage, and PacketFold and
// CanonicalFoldOf must agree with it and its FoldCanonical, for p and
// for p's reverse direction.
func checkCanonicalInto(t *testing.T, p netpkt.Packet) {
	t.Helper()
	rev := p
	rev.SrcIP, rev.DstIP = p.DstIP, p.SrcIP
	rev.SrcPort, rev.DstPort = p.DstPort, p.SrcPort
	want := KeyOf(&p).Canonical()
	wantFold := want.FoldCanonical()
	for _, q := range []*netpkt.Packet{&p, &rev} {
		got := FlowKey{SrcIP: [4]byte{0xee, 0xee, 0xee, 0xee}, DstIP: [4]byte{0xee, 0xee, 0xee, 0xee}, SrcPort: 0xeeee, DstPort: 0xeeee, Proto: 0xee}
		CanonicalInto(&got, q)
		if got != want {
			t.Fatalf("CanonicalInto(%v) = %v, want %v", KeyOf(q), got, want)
		}
		if f := PacketFold(q); f != wantFold {
			t.Fatalf("PacketFold(%v) = %#x, want %#x", KeyOf(q), f, wantFold)
		}
		if k, f := CanonicalFoldOf(q); k != want || f != wantFold {
			t.Fatalf("CanonicalFoldOf(%v) = %v, %#x; want %v, %#x", KeyOf(q), k, f, want, wantFold)
		}
	}
}

func TestCanonicalIntoMatchesCanonical(t *testing.T) {
	r := rand.New(rand.NewSource(24))
	for i := 0; i < 20000; i++ {
		checkCanonicalInto(t, tieProneKeyPacket(r))
	}
	// The tie cases by construction: equal IPs (ordered by port), equal
	// ports (ordered by IP), and identical endpoints.
	a, b := [4]byte{10, 0, 0, 1}, [4]byte{10, 0, 0, 2}
	for _, p := range []netpkt.Packet{
		{SrcIP: a, DstIP: a, SrcPort: 9000, DstPort: 80, Proto: 6},
		{SrcIP: b, DstIP: a, SrcPort: 80, DstPort: 80, Proto: 17},
		{SrcIP: a, DstIP: a, SrcPort: 53, DstPort: 53, Proto: 17},
		{SrcIP: [4]byte{255, 255, 255, 255}, SrcPort: 65535, Proto: 255},
	} {
		checkCanonicalInto(t, p)
	}
}

func FuzzCanonicalInto(f *testing.F) {
	f.Add(uint32(0x0a000001), uint32(0x0a000002), uint16(1000), uint16(80), uint8(6))
	f.Add(uint32(0x0a000002), uint32(0x0a000001), uint16(80), uint16(1000), uint8(6))
	f.Add(uint32(0x0a000001), uint32(0x0a000001), uint16(9000), uint16(80), uint8(17))
	f.Add(uint32(0x0a000005), uint32(0x0a000003), uint16(80), uint16(80), uint8(6))
	f.Add(uint32(7), uint32(7), uint16(7), uint16(7), uint8(0))
	f.Add(uint32(0xffffffff), uint32(0), uint16(0xffff), uint16(0), uint8(0xff))
	f.Fuzz(func(t *testing.T, src, dst uint32, sport, dport uint16, proto uint8) {
		p := netpkt.Packet{SrcPort: sport, DstPort: dport, Proto: proto}
		binary.BigEndian.PutUint32(p.SrcIP[:], src)
		binary.BigEndian.PutUint32(p.DstIP[:], dst)
		checkCanonicalInto(t, p)
	})
}

var (
	foldSink uint32
	keySink  FlowKey
)

// BenchmarkCanonicalFold compares the two ways a producer can give a
// packet its canonical key and fold, into a batch's key and fold
// slots: CanonicalFoldOf returns the key by value for the caller to
// copy into its slot, as the ingest path did before; in-place folds
// with PacketFold and writes the key into its slot with CanonicalInto,
// as the ingest path and the decode workers do now. Packets are
// random, half of them tie-prone, so the canonical order is not
// predictable.
func BenchmarkCanonicalFold(b *testing.B) {
	const n = 4096
	r := rand.New(rand.NewSource(1))
	pkts := make([]netpkt.Packet, n)
	for i := range pkts {
		pkts[i] = tieProneKeyPacket(r)
	}
	keys := make([]FlowKey, n)
	folds := make([]uint32, n)
	for _, impl := range []string{"CanonicalFoldOf", "in-place"} {
		b.Run(fmt.Sprintf("impl=%s", impl), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				j := i % n
				if impl == "CanonicalFoldOf" {
					keys[j], folds[j] = CanonicalFoldOf(&pkts[j])
				} else {
					folds[j] = PacketFold(&pkts[j])
					CanonicalInto(&keys[j], &pkts[j])
				}
			}
			foldSink, keySink = folds[b.N%n], keys[b.N%n]
		})
	}
}
