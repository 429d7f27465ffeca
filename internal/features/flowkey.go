// Package features implements iGuard's feature substrate: bidirectional
// 5-tuple flow keys with the bi-hash used for switch register indexing,
// the 13 flow-level (FL) features the Tofino prototype extracts
// (§4.2: packet count, total/average/std/variance/min/max packet size,
// average/min/variance/std/max inter-packet delay, flow duration), the
// 4 packet-level (PL) features used to classify early packets
// (destination port, protocol, length, TTL), flow truncation at a
// per-flow packet-count threshold n and idle timeout δ (§3.3.1), and
// min-max feature scaling.
package features

import (
	"encoding/binary"
	"fmt"

	"iguard/internal/netpkt"
)

// FlowKey is a directional 5-tuple.
type FlowKey struct {
	SrcIP   [4]byte
	DstIP   [4]byte
	SrcPort uint16
	DstPort uint16
	Proto   uint8
}

// KeyOf extracts the directional flow key of a packet.
func KeyOf(p *netpkt.Packet) FlowKey {
	return FlowKey{SrcIP: p.SrcIP, DstIP: p.DstIP, SrcPort: p.SrcPort, DstPort: p.DstPort, Proto: p.Proto}
}

// Reverse returns the key of the opposite direction.
func (k FlowKey) Reverse() FlowKey {
	return FlowKey{SrcIP: k.DstIP, DstIP: k.SrcIP, SrcPort: k.DstPort, DstPort: k.SrcPort, Proto: k.Proto}
}

// Canonical returns the direction-independent form of the key: the
// endpoint with the lower (IP, port) pair is placed first, so both
// directions of a connection map to the same key — the effect the
// bi-hash achieves in the switch.
func (k FlowKey) Canonical() FlowKey {
	if k.endpointLess() {
		return k
	}
	return k.Reverse()
}

// endpointLess reports whether (SrcIP, SrcPort) <= (DstIP, DstPort).
func (k FlowKey) endpointLess() bool {
	src := binary.BigEndian.Uint32(k.SrcIP[:])
	dst := binary.BigEndian.Uint32(k.DstIP[:])
	if src != dst {
		return src < dst
	}
	return k.SrcPort <= k.DstPort
}

// String renders the key for diagnostics.
func (k FlowKey) String() string {
	return fmt.Sprintf("%d.%d.%d.%d:%d>%d.%d.%d.%d:%d/%d",
		k.SrcIP[0], k.SrcIP[1], k.SrcIP[2], k.SrcIP[3], k.SrcPort,
		k.DstIP[0], k.DstIP[1], k.DstIP[2], k.DstIP[3], k.DstPort, k.Proto)
}

// Bytes serialises the key in the 13-byte digest layout the controller
// receives (src IP, dst IP, src port, dst port, proto).
func (k FlowKey) Bytes() [13]byte {
	var b [13]byte
	copy(b[0:4], k.SrcIP[:])
	copy(b[4:8], k.DstIP[:])
	binary.BigEndian.PutUint16(b[8:10], k.SrcPort)
	binary.BigEndian.PutUint16(b[10:12], k.DstPort)
	b[12] = k.Proto
	return b
}

// FlowKeyFromBytes is the inverse of Bytes: it reassembles a key from
// the 13-byte digest layout. The federation wire protocol uses it to
// decode ANNOUNCE/INSTALL/REMOVE frames.
func FlowKeyFromBytes(b [13]byte) FlowKey {
	var k FlowKey
	copy(k.SrcIP[:], b[0:4])
	copy(k.DstIP[:], b[4:8])
	k.SrcPort = binary.BigEndian.Uint16(b[8:10])
	k.DstPort = binary.BigEndian.Uint16(b[10:12])
	k.Proto = b[12]
	return k
}

// Multiply-mix constants (splitmix64 / murmur3 finalizer family). The
// key hash is a word-parallel multiply-mix rather than a byte-serial
// FNV chain: the 13-byte key loads as two 64-bit endpoint lanes plus
// the protocol byte, so the whole digest is a handful of independent
// multiplies instead of 13 serially-dependent rounds — the difference
// is ~3× on the per-packet path, where the fold runs once per packet.
const (
	foldMulA = 0x9e3779b185ebca87
	foldMulB = 0xc2b2ae3d27d4eb4f
	foldMulC = 0xff51afd7ed558ccd
)

// Fold is Canonical().FoldCanonical(): the multiply-mix digest of the
// canonicalised key, the seed-independent prefix of the bi-hash
// (BiHashFold). It is symmetric: both flow directions fold to the same
// value. Callers that index several seeded tables with one key (the
// switch's double-hash lookup, the serving runtime's shard router)
// compute the fold once and finalise it per seed with BiHashFold, so
// the key is mixed once rather than once per table.
//
//iguard:hotpath
func (k FlowKey) Fold() uint32 {
	return k.Canonical().FoldCanonical()
}

// CanonicalFoldOf extracts p's canonical flow key and its fold in one
// call, for callers that want both as values (ProcessPacket, the
// benchmark's fold probe). Both come straight from p's fields: the key
// is written field by field into the result and never re-read, since a
// wide load of a struct just built with 1-, 2- and 4-byte stores
// cannot be forwarded from the store buffer and stalls. The serving
// path does not call it; it uses PacketFold and CanonicalInto, which
// build the key where it is stored.
//
//iguard:hotpath
func CanonicalFoldOf(p *netpkt.Packet) (k FlowKey, fold uint32) {
	lo, hi := endpointLanes(p)
	k.setLanes(lo, hi, p.Proto)
	return k, foldLanes(lo, hi, p.Proto)
}

// PacketFold returns KeyOf(p).Canonical().FoldCanonical() from p's
// fields, without building a key: the producer picks a packet's shard
// with it before it knows which batch slot the key goes to.
//
//iguard:hotpath
func PacketFold(p *netpkt.Packet) uint32 {
	lo, hi := endpointLanes(p)
	return foldLanes(lo, hi, p.Proto)
}

// CanonicalInto writes KeyOf(p).Canonical() into *k. Callers pass the
// key's final home (a batch slot), so the key is built where it lives
// and never copied out of a returned value.
//
//iguard:hotpath
func CanonicalInto(k *FlowKey, p *netpkt.Packet) {
	lo, hi := endpointLanes(p)
	k.setLanes(lo, hi, p.Proto)
}

// endpointLanes returns p's endpoints as 48-bit (IP, port) lanes in
// canonical order, the lower first. Picking them with min and max
// rather than a branch keeps a flow's two directions from costing a
// mispredict each.
//
//iguard:hotpath
func endpointLanes(p *netpkt.Packet) (lo, hi uint64) {
	src := uint64(binary.BigEndian.Uint32(p.SrcIP[:]))<<16 | uint64(p.SrcPort)
	dst := uint64(binary.BigEndian.Uint32(p.DstIP[:]))<<16 | uint64(p.DstPort)
	return min(src, dst), max(src, dst)
}

// setLanes writes the key whose endpoint lanes are lo (source) and hi
// (destination), field by field.
//
//iguard:hotpath
func (k *FlowKey) setLanes(lo, hi uint64, proto uint8) {
	binary.BigEndian.PutUint32(k.SrcIP[:], uint32(lo>>16))
	binary.BigEndian.PutUint32(k.DstIP[:], uint32(hi>>16))
	k.SrcPort = uint16(lo)
	k.DstPort = uint16(hi)
	k.Proto = proto
}

// FoldCanonical is Fold without the canonicalisation step: the caller
// asserts k is already in canonical form (as produced by Canonical).
// The serving runtime canonicalises each key exactly once at ingest
// and folds it there; the fold then travels with the packet so neither
// the shard router nor the switch's double-hash lookup walks the key
// bytes again. Calling it on a non-canonical key breaks the bi-hash's
// direction symmetry.
//
//iguard:hotpath
func (k FlowKey) FoldCanonical() uint32 {
	src := uint64(binary.BigEndian.Uint32(k.SrcIP[:]))<<16 | uint64(k.SrcPort)
	dst := uint64(binary.BigEndian.Uint32(k.DstIP[:]))<<16 | uint64(k.DstPort)
	return foldLanes(src, dst, k.Proto)
}

// foldLanes is the fold of a canonical key given as its two endpoint
// lanes (lo, the canonical source, first) and its protocol.
//
//iguard:hotpath
func foldLanes(lo, hi uint64, proto uint8) uint32 {
	h := lo*foldMulA ^ hi*foldMulB ^ uint64(proto)
	h ^= h >> 33
	h *= foldMulC
	h ^= h >> 29
	return uint32(h ^ h>>32)
}

// BiHashFold implements HorusEye's bi-hash as BiHashFold(k.Fold(),
// seed): a symmetric hash over the canonicalised 5-tuple, so both flow
// directions index the same switch register slot. seed lets the
// double-hash scheme derive its second table index. It finalises the
// seed-independent key digest (Fold) per seed, so callers indexing
// several seeded tables with one key digest it once. Everything is
// inlined multiply-mix arithmetic — hash/fnv's New32a would put an
// allocation and an interface dispatch on the per-packet path.
//
//iguard:hotpath
func BiHashFold(fold, seed uint32) uint32 {
	h := (uint64(fold) | uint64(seed)<<32) * foldMulA
	h ^= h >> 33
	h *= foldMulB
	return uint32(h ^ h>>32)
}

// IndexFold maps an already-folded key into a seeded table of the
// given size — the per-table step of a shared-fold lookup.
//
//iguard:hotpath
func IndexFold(fold, seed uint32, size int) int {
	if size <= 0 {
		return 0
	}
	return int(BiHashFold(fold, seed) % uint32(size))
}
