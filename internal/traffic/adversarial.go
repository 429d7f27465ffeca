package traffic

import (
	"sort"
	"time"

	"iguard/internal/features"
	"iguard/internal/mathx"
	"iguard/internal/netpkt"
)

// LowRate implements the black-box low-rate adversarial attack of
// HorusEye used in Table 2: the attacker dilutes the flood by stretching
// inter-packet gaps by the given factor (the paper evaluates 1/100 rate,
// i.e. factor 100). Flow membership is unchanged.
func LowRate(tr *Trace, factor float64) *Trace {
	if factor <= 0 {
		factor = 1
	}
	out := &Trace{Malicious: map[features.FlowKey]bool{}}
	for k, v := range tr.Malicious { //iguard:sorted map-to-map copy, order-independent
		out.Malicious[k] = v
	}
	// Stretch per flow: scaling every packet's offset from its flow
	// start by factor multiplies every inter-packet gap by factor.
	firstSeen := map[features.FlowKey]time.Time{}
	for _, p := range tr.Packets {
		key := features.KeyOf(&p).Canonical()
		if _, ok := firstSeen[key]; !ok {
			firstSeen[key] = p.Timestamp
		}
		q := p
		q.Timestamp = stretchTimestamp(firstSeen[key], p.Timestamp, factor)
		out.Packets = append(out.Packets, q)
	}
	sortTrace(out)
	return out
}

// stretchTimestamp moves ts so its offset from the flow start grows by
// factor.
func stretchTimestamp(start, ts time.Time, factor float64) time.Time {
	offset := ts.Sub(start)
	return start.Add(time.Duration(float64(offset) * factor))
}

// Poison implements the Table 2 poisoning attack: the attacker slips a
// fraction of attack flows into the benign training capture. It returns
// a new trace containing all of benign plus approximately frac·|benign
// flows| attack flows drawn from attack (ground truth still marks them
// malicious so experiments can measure the damage, but training
// pipelines treat the whole trace as "benign").
func Poison(benign, attack *Trace, frac float64, seed int64) *Trace {
	r := mathx.NewRand(seed)
	// Group attack packets by flow.
	flows := map[features.FlowKey][]netpkt.Packet{}
	var keys []features.FlowKey
	for _, p := range attack.Packets {
		k := features.KeyOf(&p).Canonical()
		if _, ok := flows[k]; !ok {
			keys = append(keys, k)
		}
		flows[k] = append(flows[k], p)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i].String() < keys[j].String() })

	benignFlows := map[features.FlowKey]bool{}
	for _, p := range benign.Packets {
		benignFlows[features.KeyOf(&p).Canonical()] = true
	}
	want := int(frac * float64(len(benignFlows)))
	if want > len(keys) {
		want = len(keys)
	}
	pick := mathx.SampleWithoutReplacement(r, len(keys), want)

	out := &Trace{Malicious: map[features.FlowKey]bool{}}
	out.Packets = append(out.Packets, benign.Packets...)
	for _, ki := range pick {
		k := keys[ki]
		out.Packets = append(out.Packets, flows[k]...)
		out.Malicious[k] = true
	}
	sortTrace(out)
	return out
}

// Evade implements the Table 3 evasion attack: the attacker interleaves
// benign-looking packets into each attack flow at the given
// benign:attack ratio (1:2 inserts one benign-style packet per two
// attack packets), dragging the flow's statistics toward the benign
// manifold. Inserted packets share the flow 5-tuple so the switch
// aggregates them with the attack flow.
func Evade(tr *Trace, benignPerAttack float64, seed int64) *Trace {
	r := mathx.NewRand(seed)
	out := &Trace{Malicious: map[features.FlowKey]bool{}}
	for k, v := range tr.Malicious { //iguard:sorted map-to-map copy, order-independent
		out.Malicious[k] = v
	}
	carry := map[features.FlowKey]float64{}
	for _, p := range tr.Packets {
		key := features.KeyOf(&p).Canonical()
		out.Packets = append(out.Packets, p)
		if !tr.Malicious[key] {
			continue
		}
		carry[key] += benignPerAttack
		for carry[key] >= 1 {
			carry[key]--
			// A benign-styled packet inside the attack flow: typical IoT
			// size at a telemetry-like gap AFTER the attack packet, so the
			// flow's inter-packet-delay statistics (mean, max, spread) are
			// dragged toward the benign profile — the point of the
			// black-box evasion.
			ins := p
			ins.Length = uniformInt(r, 60, 130)
			ins.Timestamp = p.Timestamp.Add(jitterDur(r, 400*time.Millisecond, 350*time.Millisecond))
			ins.TCPFlags = netpkt.FlagACK
			out.Packets = append(out.Packets, ins)
		}
	}
	sortTrace(out)
	return out
}
