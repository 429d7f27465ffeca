package bench

import (
	"bytes"
	"fmt"
	"io"
	"sort"

	"iguard/internal/features"
	"iguard/internal/netpkt"
	"iguard/internal/traffic"
)

// Workload is one named traffic mix. Every input is generated from the
// run's seed before set-up; the program under test only ever sees the
// generated packets (or their pcap bytes).
type Workload struct {
	Name string
	// Why states what the workload stresses, which layer it bypasses and
	// its offered rates; BENCHMARK.json carries the same text.
	Why string
	// Nodes lists the serving nodes the workload drives: one for a
	// standalone switch, two for the federated pair.
	Nodes []NodeSpec
}

// NodeSpec sizes one node's traffic and serving shape.
type NodeSpec struct {
	// Benign is the benign flow count; Attacks each add AttackFlows
	// flows' worth of their generator (scans multiply, floods divide).
	Benign      int
	Attacks     []traffic.AttackName
	AttackFlows int
	// Rate is the open-loop offered rate in packets per second. Every
	// workload offers about 0.3 of what two shards sustain closed loop
	// on a 2-CPU host: nearer saturation, queueing turns the host's own
	// speed drift into seed-to-seed latency swings wider than any
	// regression bound.
	Rate float64
	// Shards is the node's shard count.
	Shards int
	// Pcap feeds the node classic-pcap bytes held in memory, decoded by
	// PcapReader.NextValidBatch on the ingest goroutine, instead of
	// pre-decoded packets.
	Pcap bool
}

// Workloads returns the benchmark's workloads in report order.
func Workloads() []Workload {
	return []Workload{
		{
			Name: "replay-mixed",
			Why:  "iguard-serve -replay path: in-memory pcap of 20k benign flows and 4 attacks at 0.6 Mpps open loop; decode and hand-off dominate, 71% purple path",
			Nodes: []NodeSpec{{
				Benign:      20000,
				Attacks:     []traffic.AttackName{traffic.UDPDDoS, traffic.Mirai, traffic.OSScan, traffic.TCPDDoS},
				AttackFlows: 400,
				Rate:        0.6e6,
				Shards:      2,
				Pcap:        true,
			}},
		},
		{
			Name: "churn-scan",
			Why:  "375k tiny scan flows at 0.45 Mpps: flow-table collisions, sweeps, 315k controller installs and LRU evictions; decode bypassed",
			Nodes: []NodeSpec{{
				Benign:      4000,
				Attacks:     []traffic.AttackName{traffic.OSScan, traffic.ServiceScan, traffic.Mirai, traffic.PortScanRouter},
				AttackFlows: 25000,
				Rate:        0.45e6,
				Shards:      2,
			}},
		},
		{
			Name: "flood-blacklist",
			Why:  "3 floods at 1.2 Mpps: after mitigation most packets take the red blacklist path, so rules and controller idle while serve and features dominate",
			Nodes: []NodeSpec{{
				Benign:      3000,
				Attacks:     []traffic.AttackName{traffic.UDPDDoS, traffic.TCPDDoS, traffic.Bashlite},
				AttackFlows: 3000,
				Rate:        1.2e6,
				Shards:      2,
			}},
		},
		{
			Name: "fed-pair",
			Why:  "two 1-shard nodes and a hub on loopback TCP: A floods at 0.6 Mpps, benign B at 0.15 Mpps applies A's installs beside its packets",
			Nodes: []NodeSpec{
				{
					Benign:      3000,
					Attacks:     []traffic.AttackName{traffic.UDPDDoS, traffic.TCPDDoS, traffic.Bashlite},
					AttackFlows: 3000,
					Rate:        0.6e6,
					Shards:      1,
				},
				{
					Benign: 4000,
					Rate:   0.15e6,
					Shards: 1,
				},
			},
		},
	}
}

// WorkloadByName looks a workload up.
func WorkloadByName(name string) (Workload, error) {
	for _, w := range Workloads() {
		if w.Name == name {
			return w, nil
		}
	}
	return Workload{}, fmt.Errorf("bench: unknown workload %q", name)
}

// Stream is one node's generated input with its ground truth.
type Stream struct {
	Spec NodeSpec
	// N is the packet count.
	N int
	// Pkts are the packets of a pre-decoded stream; nil for a pcap
	// stream, whose Packets are decoded on demand.
	Pkts []netpkt.Packet
	// Pcap holds the classic-pcap bytes of a pcap stream.
	Pcap []byte
	// Flow maps each packet to its flow; FlowMal is the flow's
	// ground-truth label (traffic.Trace.Malicious).
	Flow    []int32
	FlowMal []bool
	// FlowID maps a canonical flow key to its flow index.
	FlowID map[features.FlowKey]int32
}

// Generate builds a node's input from seed. scale multiplies every flow
// count (1 for the benchmark, small for the smoke test).
func Generate(spec NodeSpec, seed int64, scale float64) (*Stream, error) {
	n := func(x int) int { return max(1, int(float64(x)*scale)) }
	parts := []*traffic.Trace{traffic.GenerateBenign(seed, n(spec.Benign))}
	total := len(parts[0].Packets)
	for i, a := range spec.Attacks {
		at, err := traffic.GenerateAttack(a, seed+int64(i)+1, n(spec.AttackFlows))
		if err != nil {
			return nil, err
		}
		parts = append(parts, at)
		total += len(at.Packets)
	}
	// One stable sort of the concatenation orders packets exactly as
	// successive Trace.Merge calls would (ties keep part order), without
	// copying the whole trace once per attack.
	pkts := make([]netpkt.Packet, 0, total)
	malicious := map[features.FlowKey]bool{}
	for _, p := range parts {
		pkts = append(pkts, p.Packets...)
		for k := range p.Malicious {
			malicious[k] = true
		}
	}
	sort.SliceStable(pkts, func(i, j int) bool { return pkts[i].Timestamp.Before(pkts[j].Timestamp) })
	s := &Stream{Spec: spec, N: len(pkts), Pkts: pkts}
	if spec.Pcap {
		data, err := encodePcap(pkts)
		if err != nil {
			return nil, fmt.Errorf("bench: encode pcap: %w", err)
		}
		// Ground truth must see the packets as decoded (timestamps at
		// the file's microsecond resolution).
		s.Pcap = data
		if pkts, err = decodeAll(data, len(pkts)); err != nil {
			return nil, err
		}
		// The served passes read only the bytes. Keeping the decoded
		// packets alive too would make every garbage collection during
		// a pass scan them, a cost a streaming replay never pays.
		s.Pkts = nil
	}
	s.Flow = make([]int32, len(pkts))
	s.FlowID = map[features.FlowKey]int32{}
	for i := range pkts {
		k, _ := features.CanonicalFoldOf(&pkts[i])
		id, ok := s.FlowID[k]
		if !ok {
			id = int32(len(s.FlowMal))
			s.FlowID[k] = id
			s.FlowMal = append(s.FlowMal, malicious[k])
		}
		s.Flow[i] = id
	}
	return s, nil
}

// Packets returns the stream's packets as the pipeline sees them,
// decoding a pcap stream afresh.
func (s *Stream) Packets() ([]netpkt.Packet, error) {
	if s.Pkts != nil {
		return s.Pkts, nil
	}
	return decodeAll(s.Pcap, s.N)
}

// decodeAll decodes a whole in-memory pcap.
func decodeAll(data []byte, hint int) ([]netpkt.Packet, error) {
	r, err := netpkt.NewPcapReader(bytes.NewReader(data))
	if err != nil {
		return nil, err
	}
	out := make([]netpkt.Packet, 0, hint)
	buf := make([]netpkt.Packet, chunkLen)
	for {
		n, err := r.NextValidBatch(buf)
		for i := range buf[:n] {
			// A decoded payload pins its whole frame buffer; no feature
			// reads payload bytes, so let the frames go.
			buf[i].Payload = nil
		}
		out = append(out, buf[:n]...)
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return nil, fmt.Errorf("bench: decode pcap: %w", err)
		}
	}
}

// generateAll builds every node's stream. Node i draws from its own
// seed range so the nodes of a pair never share flows.
func generateAll(w Workload, seed int64, scale float64) ([]*Stream, error) {
	out := make([]*Stream, len(w.Nodes))
	for i, spec := range w.Nodes {
		s, err := Generate(spec, seed*1000+int64(i)*100, scale)
		if err != nil {
			return nil, err
		}
		out[i] = s
	}
	return out, nil
}
