// Package traffic synthesises the datasets of the iGuard evaluation.
// The paper uses public IoT traces (benign: HorusEye/Sivanathan;
// attacks: Bezerra, Ding, Bot-IoT, Kitsune, HorusEye) that are not
// redistributable here, so this package generates seeded synthetic
// equivalents: a benign IoT mixture (telemetry, DNS, web, streaming)
// and fifteen attack generators whose flow-level statistics overlap the
// benign marginals the way the real traces do — the property §3.1's
// motivation (and every experiment) rests on. It also implements the
// black-box adversarial transforms of HorusEye used in Tables 2 and 3:
// low-rate dilution, training poisoning, and benign-packet evasion.
package traffic

import (
	"fmt"
	"math/rand"
	"slices"
	"time"

	"iguard/internal/features"
	"iguard/internal/mathx"
	"iguard/internal/netpkt"
)

// AttackName enumerates the 15 attacks of the evaluation.
type AttackName string

// The attack set, named as in the paper's figures.
const (
	Mirai          AttackName = "Mirai"
	OSScan         AttackName = "OS scan"
	Aidra          AttackName = "Aidra"
	Bashlite       AttackName = "Bashlite"
	UDPDDoS        AttackName = "UDP DDoS"
	HTTPDDoS       AttackName = "HTTP DDoS"
	DataTheft      AttackName = "Data theft"
	Keylogging     AttackName = "Keylogging"
	ServiceScan    AttackName = "Service scan"
	TCPDDoS        AttackName = "TCP DDoS"
	MiraiRouter    AttackName = "Mirai router filter"
	OSScanRouter   AttackName = "OS scan router"
	PortScanRouter AttackName = "Port scan router"
	TCPDDoSRouter  AttackName = "TCP DDoS router"
	UDPDDoSRouter  AttackName = "UDP DDoS router"
)

// AllAttacks returns the 15 attacks in the paper's presentation order
// (the 5 of the main body first, then the 10 of the appendix).
func AllAttacks() []AttackName {
	return []AttackName{
		Mirai, OSScan, Aidra, Bashlite, UDPDDoS,
		HTTPDDoS, DataTheft, Keylogging, ServiceScan, TCPDDoS,
		MiraiRouter, OSScanRouter, PortScanRouter, TCPDDoSRouter, UDPDDoSRouter,
	}
}

// Trace is a timestamp-ordered packet sequence with ground truth: the
// set of canonical flow keys that belong to malicious flows.
type Trace struct {
	Packets   []netpkt.Packet
	Malicious map[features.FlowKey]bool
}

// baseTime anchors all generated traffic (a fixed instant keeps traces
// deterministic).
var baseTime = time.Date(2024, 6, 1, 0, 0, 0, 0, time.UTC)

// Merge combines two traces, re-sorting packets by timestamp and
// unioning the malicious key sets.
func (t *Trace) Merge(other *Trace) *Trace {
	out := &Trace{Malicious: map[features.FlowKey]bool{}}
	out.Packets = append(out.Packets, t.Packets...)
	out.Packets = append(out.Packets, other.Packets...)
	sortTrace(out)
	for k := range t.Malicious { //iguard:sorted map-to-map union, order-independent
		out.Malicious[k] = true
	}
	for k := range other.Malicious { //iguard:sorted map-to-map union, order-independent
		out.Malicious[k] = true
	}
	return out
}

// IsMalicious reports the ground-truth label of a canonical flow key.
func (t *Trace) IsMalicious(key features.FlowKey) bool {
	return t.Malicious[key.Canonical()]
}

// flowSpec parameterises one flow archetype.
type flowSpec struct {
	proto    uint8
	pktCount func(r *rand.Rand) int
	size     func(r *rand.Rand) int
	ipd      func(r *rand.Rand) time.Duration
	dstPort  func(r *rand.Rand) uint16
	ttl      func(r *rand.Rand) uint8
	// bidirProb is the probability each packet is a reply (reverse
	// direction); 0 for unidirectional floods.
	bidirProb float64
	// tcpFlags returns flags for TCP packets (index = packet position).
	tcpFlags func(r *rand.Rand, i int) uint8
}

// host addressing: benign devices live in 10.0/16, benign servers in
// 23.1/16, attackers in 66.66/16, victims in 10.0/16 (attacks target
// the same IoT devices benign traffic comes from).
func benignHost(r *rand.Rand) [4]byte {
	return [4]byte{10, 0, byte(r.Intn(8)), byte(1 + r.Intn(250))}
}

func benignServer(r *rand.Rand) [4]byte {
	return [4]byte{23, 1, byte(r.Intn(4)), byte(1 + r.Intn(250))}
}

func attackerHost(r *rand.Rand) [4]byte {
	return [4]byte{66, 66, byte(r.Intn(16)), byte(1 + r.Intn(250))}
}

// genFlow materialises one flow from a spec, appending packets to the
// trace and recording the key when malicious.
func genFlow(r *rand.Rand, tr *Trace, spec flowSpec, src, dst [4]byte, srcPort uint16, start time.Time, malicious bool) {
	n := spec.pktCount(r)
	if n < 1 {
		n = 1
	}
	dstPort := spec.dstPort(r)
	ttl := spec.ttl(r)
	ts := start
	key := features.FlowKey{SrcIP: src, DstIP: dst, SrcPort: srcPort, DstPort: dstPort, Proto: spec.proto}
	if malicious {
		tr.Malicious[key.Canonical()] = true
	}
	for i := 0; i < n; i++ {
		p := netpkt.Packet{
			Timestamp: ts,
			SrcIP:     src,
			DstIP:     dst,
			SrcPort:   srcPort,
			DstPort:   dstPort,
			Proto:     spec.proto,
			TTL:       ttl,
			Length:    spec.size(r),
		}
		if spec.tcpFlags != nil && spec.proto == netpkt.ProtoTCP {
			p.TCPFlags = spec.tcpFlags(r, i)
		}
		if spec.bidirProb > 0 && r.Float64() < spec.bidirProb && i > 0 {
			p.SrcIP, p.DstIP = p.DstIP, p.SrcIP
			p.SrcPort, p.DstPort = p.DstPort, p.SrcPort
		}
		tr.Packets = append(tr.Packets, p)
		ts = ts.Add(spec.ipd(r))
	}
}

// sortTrace orders the trace's packets by timestamp, stably, so
// same-instant packets keep their generation order. The generic sort
// moves packets with typed copies, not a reflect swapper.
func sortTrace(tr *Trace) {
	slices.SortStableFunc(tr.Packets, func(a, b netpkt.Packet) int {
		return a.Timestamp.Compare(b.Timestamp)
	})
}

// expDur draws an exponential duration with the given mean.
func expDur(r *rand.Rand, mean time.Duration) time.Duration {
	d := time.Duration(r.ExpFloat64() * float64(mean))
	if d < time.Microsecond {
		d = time.Microsecond
	}
	return d
}

// jitterDur draws mean ± spread uniformly, floored at 1µs.
func jitterDur(r *rand.Rand, mean, spread time.Duration) time.Duration {
	d := mean + time.Duration((2*r.Float64()-1)*float64(spread))
	if d < time.Microsecond {
		d = time.Microsecond
	}
	return d
}

func uniformInt(r *rand.Rand, lo, hi int) int { return lo + r.Intn(hi-lo+1) }

// GenerateBenign produces the benign IoT mixture: periodic telemetry,
// slow sensor reports, DNS lookups, web bursts, media streams and bulk
// transfers, in the proportions typical of smart-environment traces.
//
// The archetypes are designed so their union covers wide per-feature
// marginals (packet sizes 54–1480 B, inter-packet delays from
// milliseconds to seconds, flow lengths 1–400 packets). The attack
// generators then place each attack *inside* those marginals, differing
// from benign traffic mainly in joint feature combinations — the regime
// where Fig. 2's path-length overlap arises and autoencoder guidance
// pays off.
func GenerateBenign(seed int64, flows int) *Trace {
	r := mathx.NewRand(seed)
	tr := &Trace{Malicious: map[features.FlowKey]bool{}}
	window := 120 * time.Second
	for i := 0; i < flows; i++ {
		start := baseTime.Add(time.Duration(r.Float64() * float64(window)))
		src := benignHost(r)
		dst := benignServer(r)
		srcPort := uint16(uniformInt(r, 1024, 65000))
		archetype := r.Float64()
		var spec flowSpec
		switch {
		case archetype < 0.25: // periodic telemetry / keep-alive
			spec = flowSpec{
				proto:     netpkt.ProtoTCP,
				pktCount:  func(r *rand.Rand) int { return uniformInt(r, 8, 40) },
				size:      func(r *rand.Rand) int { return uniformInt(r, 60, 130) },
				ipd:       func(r *rand.Rand) time.Duration { return jitterDur(r, 900*time.Millisecond, 350*time.Millisecond) },
				dstPort:   func(r *rand.Rand) uint16 { return 8883 },
				ttl:       func(r *rand.Rand) uint8 { return 64 },
				bidirProb: 0.4,
				tcpFlags:  func(r *rand.Rand, i int) uint8 { return netpkt.FlagACK | netpkt.FlagPSH },
			}
		case archetype < 0.40: // slow sensor reports: near-constant size
			base := uniformInt(r, 70, 96)
			spec = flowSpec{
				proto:    netpkt.ProtoTCP,
				pktCount: func(r *rand.Rand) int { return uniformInt(r, 10, 90) },
				size:     func(r *rand.Rand) int { return base + r.Intn(4) },
				ipd:      func(r *rand.Rand) time.Duration { return jitterDur(r, 2500*time.Millisecond, 1200*time.Millisecond) },
				dstPort:  func(r *rand.Rand) uint16 { return 8883 },
				ttl:      func(r *rand.Rand) uint8 { return 64 },
				tcpFlags: func(r *rand.Rand, i int) uint8 { return netpkt.FlagACK | netpkt.FlagPSH },
			}
		case archetype < 0.55: // DNS-like short exchanges
			spec = flowSpec{
				proto:     netpkt.ProtoUDP,
				pktCount:  func(r *rand.Rand) int { return uniformInt(r, 1, 4) },
				size:      func(r *rand.Rand) int { return uniformInt(r, 54, 300) },
				ipd:       func(r *rand.Rand) time.Duration { return expDur(r, 40*time.Millisecond) },
				dstPort:   func(r *rand.Rand) uint16 { return 53 },
				ttl:       func(r *rand.Rand) uint8 { return 64 },
				bidirProb: 0.5,
			}
		case archetype < 0.80: // bursty web / API traffic
			spec = flowSpec{
				proto:    netpkt.ProtoTCP,
				pktCount: func(r *rand.Rand) int { return uniformInt(r, 6, 80) },
				size: func(r *rand.Rand) int {
					if r.Float64() < 0.5 {
						return uniformInt(r, 54, 120)
					}
					return uniformInt(r, 800, 1480)
				},
				ipd:       func(r *rand.Rand) time.Duration { return expDur(r, 60*time.Millisecond) },
				dstPort:   func(r *rand.Rand) uint16 { return []uint16{80, 443, 8080}[r.Intn(3)] },
				ttl:       func(r *rand.Rand) uint8 { return 64 },
				bidirProb: 0.45,
				tcpFlags:  func(r *rand.Rand, i int) uint8 { return netpkt.FlagACK },
			}
		case archetype < 0.92: // media stream
			spec = flowSpec{
				proto:     netpkt.ProtoUDP,
				pktCount:  func(r *rand.Rand) int { return uniformInt(r, 50, 250) },
				size:      func(r *rand.Rand) int { return uniformInt(r, 1100, 1450) },
				ipd:       func(r *rand.Rand) time.Duration { return jitterDur(r, 25*time.Millisecond, 20*time.Millisecond) },
				dstPort:   func(r *rand.Rand) uint16 { return uint16(uniformInt(r, 30000, 40000)) },
				ttl:       func(r *rand.Rand) uint8 { return 64 },
				bidirProb: 0.05,
			}
		default: // bulk transfer (firmware updates, cloud sync)
			spec = flowSpec{
				proto:    netpkt.ProtoTCP,
				pktCount: func(r *rand.Rand) int { return uniformInt(r, 100, 400) },
				size:     func(r *rand.Rand) int { return uniformInt(r, 1000, 1480) },
				ipd:      func(r *rand.Rand) time.Duration { return jitterDur(r, 4*time.Millisecond, 3*time.Millisecond) },
				dstPort:  func(r *rand.Rand) uint16 { return 443 },
				ttl:      func(r *rand.Rand) uint8 { return 64 },
				tcpFlags: func(r *rand.Rand, i int) uint8 { return netpkt.FlagACK },
			}
		}
		genFlow(r, tr, spec, src, dst, srcPort, start, false)
	}
	sortTrace(tr)
	return tr
}

// attackSpec returns the flow archetype of an attack together with how
// many flows the attack spawns per requested unit (scans spawn many tiny
// flows; floods spawn few huge ones).
func attackSpec(name AttackName) (flowSpec, float64, error) {
	// routerize adds aggregation jitter: wider IPD spread and slightly
	// shifted sizes, modelling the same attack observed behind a router.
	// Design rule: each attack's per-feature marginals sit inside the
	// union of benign archetype marginals (sizes 54–1480, IPDs 1 ms–4 s,
	// counts 1–400); what makes the attack anomalous is the *joint*
	// combination no benign archetype produces. This mirrors the real
	// traces, where conventional iForests fail (§3.1) because marginal
	// path lengths overlap while autoencoders still see the joint
	// structure.
	switch name {
	case Mirai, MiraiRouter:
		// Telnet scan: DNS-like flow lengths, web-ACK-like sizes, but
		// near-constant size at a fast, steady cadence.
		spec := flowSpec{
			proto:    netpkt.ProtoTCP,
			pktCount: func(r *rand.Rand) int { return uniformInt(r, 2, 6) },
			size:     func(r *rand.Rand) int { return uniformInt(r, 54, 66) },
			ipd:      func(r *rand.Rand) time.Duration { return jitterDur(r, 8*time.Millisecond, 4*time.Millisecond) },
			dstPort:  func(r *rand.Rand) uint16 { return []uint16{23, 2323}[r.Intn(2)] },
			ttl:      func(r *rand.Rand) uint8 { return uint8(uniformInt(r, 32, 64)) },
			tcpFlags: func(r *rand.Rand, i int) uint8 { return netpkt.FlagSYN },
		}
		if name == MiraiRouter {
			spec.ipd = func(r *rand.Rand) time.Duration { return jitterDur(r, 16*time.Millisecond, 9*time.Millisecond) }
			spec.ttl = func(r *rand.Rand) uint8 { return uint8(uniformInt(r, 30, 62)) }
		}
		return spec, 3, nil
	case Aidra:
		// IRC-bot telnet scan: slightly longer probes than Mirai, still
		// constant-small sizes at web-burst pace.
		return flowSpec{
			proto:    netpkt.ProtoTCP,
			pktCount: func(r *rand.Rand) int { return uniformInt(r, 2, 8) },
			size:     func(r *rand.Rand) int { return uniformInt(r, 58, 80) },
			ipd:      func(r *rand.Rand) time.Duration { return jitterDur(r, 5*time.Millisecond, 3*time.Millisecond) },
			dstPort:  func(r *rand.Rand) uint16 { return 23 },
			ttl:      func(r *rand.Rand) uint8 { return uint8(uniformInt(r, 40, 70)) },
			tcpFlags: func(r *rand.Rand, i int) uint8 { return netpkt.FlagSYN },
		}, 3, nil
	case Bashlite:
		// UDP flood of web-large payloads at bulk-transfer pace — but
		// sustained for stream-length flows with web-like size spread.
		return flowSpec{
			proto:    netpkt.ProtoUDP,
			pktCount: func(r *rand.Rand) int { return uniformInt(r, 80, 250) },
			size:     func(r *rand.Rand) int { return uniformInt(r, 800, 1200) },
			ipd:      func(r *rand.Rand) time.Duration { return jitterDur(r, 3*time.Millisecond, 2*time.Millisecond) },
			dstPort:  func(r *rand.Rand) uint16 { return uint16(uniformInt(r, 1, 65000)) },
			ttl:      func(r *rand.Rand) uint8 { return 64 },
		}, 1, nil
	case UDPDDoS, UDPDDoSRouter:
		// Volumetric flood: stream-sized packets with near-zero size
		// spread at bulk pace, far longer than any benign bulk flow's
		// combination of the two.
		spec := flowSpec{
			proto:    netpkt.ProtoUDP,
			pktCount: func(r *rand.Rand) int { return uniformInt(r, 150, 400) },
			size:     func(r *rand.Rand) int { return uniformInt(r, 1380, 1430) },
			ipd:      func(r *rand.Rand) time.Duration { return jitterDur(r, 2*time.Millisecond, 1500*time.Microsecond) },
			dstPort:  func(r *rand.Rand) uint16 { return 80 },
			ttl:      func(r *rand.Rand) uint8 { return uint8(uniformInt(r, 50, 64)) },
		}
		if name == UDPDDoSRouter {
			spec.ipd = func(r *rand.Rand) time.Duration { return jitterDur(r, 3*time.Millisecond, 2500*time.Microsecond) }
			spec.size = func(r *rand.Rand) int { return uniformInt(r, 1330, 1430) }
		}
		return spec, 0.5, nil
	case TCPDDoS, TCPDDoSRouter:
		// SYN flood: web-ACK sizes at bulk pace sustained over hundreds
		// of packets — benign small packets never arrive this fast for
		// this long.
		spec := flowSpec{
			proto:    netpkt.ProtoTCP,
			pktCount: func(r *rand.Rand) int { return uniformInt(r, 150, 400) },
			size:     func(r *rand.Rand) int { return uniformInt(r, 54, 60) },
			ipd:      func(r *rand.Rand) time.Duration { return jitterDur(r, 2*time.Millisecond, 1500*time.Microsecond) },
			dstPort:  func(r *rand.Rand) uint16 { return []uint16{80, 443}[r.Intn(2)] },
			ttl:      func(r *rand.Rand) uint8 { return uint8(uniformInt(r, 48, 64)) },
			tcpFlags: func(r *rand.Rand, i int) uint8 { return netpkt.FlagSYN },
		}
		if name == TCPDDoSRouter {
			spec.ipd = func(r *rand.Rand) time.Duration { return jitterDur(r, 3500*time.Microsecond, 2500*time.Microsecond) }
		}
		return spec, 0.5, nil
	case HTTPDDoS:
		// Application-layer flood: web-shaped packet sizes but at a
		// metronome request cadence instead of bursty think-time gaps.
		return flowSpec{
			proto:    netpkt.ProtoTCP,
			pktCount: func(r *rand.Rand) int { return uniformInt(r, 40, 160) },
			size: func(r *rand.Rand) int {
				if r.Float64() < 0.5 {
					return uniformInt(r, 54, 120)
				}
				return uniformInt(r, 800, 1400)
			},
			ipd:       func(r *rand.Rand) time.Duration { return jitterDur(r, 8*time.Millisecond, 2*time.Millisecond) },
			dstPort:   func(r *rand.Rand) uint16 { return 80 },
			ttl:       func(r *rand.Rand) uint8 { return 64 },
			bidirProb: 0.1,
			tcpFlags:  func(r *rand.Rand, i int) uint8 { return netpkt.FlagACK | netpkt.FlagPSH },
		}, 1, nil
	case DataTheft:
		// Exfiltration: looks like a benign bulk transfer but with the
		// unnatural regularity of an automated pump (tiny size and IPD
		// spread).
		return flowSpec{
			proto:     netpkt.ProtoTCP,
			pktCount:  func(r *rand.Rand) int { return uniformInt(r, 100, 400) },
			size:      func(r *rand.Rand) int { return uniformInt(r, 1430, 1470) },
			ipd:       func(r *rand.Rand) time.Duration { return jitterDur(r, 4*time.Millisecond, 400*time.Microsecond) },
			dstPort:   func(r *rand.Rand) uint16 { return uint16(uniformInt(r, 40000, 50000)) },
			ttl:       func(r *rand.Rand) uint8 { return 64 },
			bidirProb: 0.02,
			tcpFlags:  func(r *rand.Rand, i int) uint8 { return netpkt.FlagACK },
		}, 0.7, nil
	case Keylogging:
		// Keystroke exfiltration on a short polling timer: sensor-like
		// constant packet sizes at a sub-second, low-jitter cadence. The
		// (avgIPD, stdIPD) pair sits well off the benign joint surface
		// (every benign archetype keeps an IPD coefficient of variation
		// above ~0.2) even though both marginals are covered.
		return flowSpec{
			proto:    netpkt.ProtoTCP,
			pktCount: func(r *rand.Rand) int { return uniformInt(r, 30, 90) },
			size:     func(r *rand.Rand) int { return uniformInt(r, 82, 88) },
			ipd:      func(r *rand.Rand) time.Duration { return jitterDur(r, 650*time.Millisecond, 5*time.Millisecond) },
			dstPort:  func(r *rand.Rand) uint16 { return 4444 },
			ttl:      func(r *rand.Rand) uint8 { return 64 },
			tcpFlags: func(r *rand.Rand, i int) uint8 { return netpkt.FlagACK | netpkt.FlagPSH },
		}, 1, nil
	case OSScan, OSScanRouter:
		// Fingerprinting probes: DNS-like counts and sizes; the oddity
		// is the probe mix (TTL/flags are PL features) plus short
		// constant-ish sizes at a slightly-too-steady pace.
		spec := flowSpec{
			proto:    netpkt.ProtoTCP,
			pktCount: func(r *rand.Rand) int { return uniformInt(r, 1, 3) },
			size:     func(r *rand.Rand) int { return uniformInt(r, 54, 80) },
			ipd:      func(r *rand.Rand) time.Duration { return jitterDur(r, 30*time.Millisecond, 8*time.Millisecond) },
			dstPort:  func(r *rand.Rand) uint16 { return uint16(uniformInt(r, 1, 1024)) },
			ttl:      func(r *rand.Rand) uint8 { return []uint8{37, 49, 128, 255}[r.Intn(4)] },
			tcpFlags: func(r *rand.Rand, i int) uint8 { return []uint8{netpkt.FlagSYN, netpkt.FlagFIN, 0}[r.Intn(3)] },
		}
		if name == OSScanRouter {
			spec.ipd = func(r *rand.Rand) time.Duration { return jitterDur(r, 55*time.Millisecond, 20*time.Millisecond) }
		}
		return spec, 4, nil
	case ServiceScan, PortScanRouter:
		// Port sweep: one or two constant-size SYNs per port at a steady
		// clip; individually DNS-like, jointly machine-regular.
		spec := flowSpec{
			proto:    netpkt.ProtoTCP,
			pktCount: func(r *rand.Rand) int { return uniformInt(r, 1, 2) },
			size:     func(r *rand.Rand) int { return 60 },
			ipd:      func(r *rand.Rand) time.Duration { return jitterDur(r, 10*time.Millisecond, 2*time.Millisecond) },
			dstPort:  func(r *rand.Rand) uint16 { return uint16(uniformInt(r, 1, 10000)) },
			ttl:      func(r *rand.Rand) uint8 { return 64 },
			tcpFlags: func(r *rand.Rand, i int) uint8 { return netpkt.FlagSYN },
		}
		if name == PortScanRouter {
			spec.ipd = func(r *rand.Rand) time.Duration { return jitterDur(r, 25*time.Millisecond, 15*time.Millisecond) }
			spec.size = func(r *rand.Rand) int { return uniformInt(r, 54, 66) }
		}
		return spec, 4, nil
	default:
		return flowSpec{}, 0, fmt.Errorf("traffic: unknown attack %q", name)
	}
}

// GenerateAttack produces ~flows malicious flows of the named attack.
// Scans internally multiply the flow count (they spawn many tiny flows)
// while floods divide it, mirroring the packet-count balance of the real
// traces.
func GenerateAttack(name AttackName, seed int64, flows int) (*Trace, error) {
	spec, mult, err := attackSpec(name)
	if err != nil {
		return nil, err
	}
	r := mathx.NewRand(seed)
	tr := &Trace{Malicious: map[features.FlowKey]bool{}}
	n := int(float64(flows) * mult)
	if n < 1 {
		n = 1
	}
	window := 120 * time.Second
	for i := 0; i < n; i++ {
		start := baseTime.Add(time.Duration(r.Float64() * float64(window)))
		src := attackerHost(r)
		dst := benignHost(r)
		srcPort := uint16(uniformInt(r, 1024, 65000))
		genFlow(r, tr, spec, src, dst, srcPort, start, true)
	}
	sortTrace(tr)
	return tr, nil
}

// MustGenerateAttack is GenerateAttack for known-good names; it panics
// with a descriptive message on unknown attacks, in the manner of
// regexp.MustCompile. It exists for tests and examples; library code
// (internal/experiments) calls GenerateAttack and propagates the error.
func MustGenerateAttack(name AttackName, seed int64, flows int) *Trace {
	tr, err := GenerateAttack(name, seed, flows)
	if err != nil {
		panic("traffic: MustGenerateAttack: " + err.Error())
	}
	return tr
}
