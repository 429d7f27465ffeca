package switchsim

import (
	"testing"
	"time"

	"iguard/internal/features"
	"iguard/internal/netpkt"
	"iguard/internal/rules"
)

var testBase = time.Date(2024, 6, 1, 0, 0, 0, 0, time.UTC)

// canon returns k's canonical form and its fold, the arguments the
// blacklist mutators take.
func canon(k features.FlowKey) (features.FlowKey, uint32) {
	k = k.Canonical()
	return k, k.FoldCanonical()
}

func mkPkt(srcLast byte, sport uint16, length int, at time.Duration) netpkt.Packet {
	return netpkt.Packet{
		Timestamp: testBase.Add(at),
		SrcIP:     [4]byte{10, 0, 0, srcLast},
		DstIP:     [4]byte{23, 1, 0, 1},
		SrcPort:   sport,
		DstPort:   443,
		Proto:     netpkt.ProtoTCP,
		TTL:       64,
		Length:    length,
	}
}

// flRulesAllowSmall builds FL whitelist rules that whitelist flows whose
// average packet size (feature index FLAvgSize) is below 500 — large-
// packet flows default to malicious.
func flRulesAllowSmall() *rules.CompiledRuleSet {
	dim := features.FLDim
	lo := make([]float64, dim)
	hi := make([]float64, dim)
	for i := range hi {
		hi[i] = 1e6
	}
	box := rules.NewBox(lo, hi)
	box[features.FLAvgSize] = rules.Interval{Lo: 0, Hi: 500}
	rs := &rules.RuleSet{Rules: []rules.Rule{{Box: box, Label: 0}}, Dim: dim, DefaultLabel: 1}
	min := make([]float64, dim)
	max := make([]float64, dim)
	for i := range max {
		max[i] = 1e6
	}
	return rules.Compile(rs, rules.NewQuantizer(min, max, 16))
}

// plRulesAllowPort allows only packets to port 443 (PL feature 0 =
// dst_port).
func plRulesAllowPort() *rules.CompiledRuleSet {
	dim := features.PLDim
	lo := make([]float64, dim)
	hi := []float64{65536, 256, 2048, 256}
	box := rules.NewBox(lo, hi)
	box[features.PLDstPort] = rules.Interval{Lo: 400, Hi: 500}
	rs := &rules.RuleSet{Rules: []rules.Rule{{Box: box, Label: 0}}, Dim: dim, DefaultLabel: 1}
	return rules.Compile(rs, rules.NewQuantizer(lo, hi, 16))
}

func newTestSwitch(n int, timeout time.Duration) *Switch {
	return New(Config{
		Slots:         64,
		PktThreshold:  n,
		Timeout:       timeout,
		FLRules:       flRulesAllowSmall(),
		PLRules:       plRulesAllowPort(),
		DropMalicious: true,
	})
}

func TestBrownThenBluePath(t *testing.T) {
	sw := newTestSwitch(3, time.Minute)
	rec := &digestRecorder{}
	sw.SetSink(rec)
	// Small benign flow: two brown packets then a blue classification.
	var decisions []Decision
	for i := 0; i < 3; i++ {
		p := mkPkt(1, 1000, 100, time.Duration(i)*time.Millisecond)
		decisions = append(decisions, sw.ProcessPacket(&p))
	}
	if decisions[0].Path != PathBrown || decisions[1].Path != PathBrown {
		t.Errorf("early paths = %v, %v", decisions[0].Path, decisions[1].Path)
	}
	if decisions[2].Path != PathBlue {
		t.Fatalf("3rd packet path = %v, want blue", decisions[2].Path)
	}
	if decisions[2].Predicted != 0 {
		t.Errorf("benign flow predicted %d", decisions[2].Predicted)
	}
	if len(rec.digests) != 1 || rec.digests[0].Label != 0 {
		t.Errorf("blue path must emit one benign digest, got %+v", rec.digests)
	}
	if !decisions[2].Recirculated {
		t.Error("blue path must recirculate")
	}
}

func TestPurplePathAfterClassification(t *testing.T) {
	sw := newTestSwitch(2, time.Minute)
	p1 := mkPkt(1, 1000, 100, 0)
	p2 := mkPkt(1, 1000, 100, time.Millisecond)
	p3 := mkPkt(1, 1000, 100, 2*time.Millisecond)
	sw.ProcessPacket(&p1)
	d2 := sw.ProcessPacket(&p2)
	if d2.Path != PathBlue {
		t.Fatalf("2nd packet path = %v", d2.Path)
	}
	d3 := sw.ProcessPacket(&p3)
	if d3.Path != PathPurple {
		t.Fatalf("3rd packet path = %v, want purple", d3.Path)
	}
	if d3.Predicted != 0 {
		t.Errorf("purple predicted = %d", d3.Predicted)
	}
}

func TestMaliciousFlowDropped(t *testing.T) {
	sw := newTestSwitch(2, time.Minute)
	// Large packets: avg size 1400 → not whitelisted.
	p1 := mkPkt(2, 2000, 1400, 0)
	p2 := mkPkt(2, 2000, 1400, time.Millisecond)
	p3 := mkPkt(2, 2000, 1400, 2*time.Millisecond)
	sw.ProcessPacket(&p1)
	d2 := sw.ProcessPacket(&p2)
	if d2.Predicted != 1 {
		t.Fatalf("malicious flow predicted %d at blue", d2.Predicted)
	}
	if !d2.Dropped {
		t.Error("malicious blue packet not dropped")
	}
	d3 := sw.ProcessPacket(&p3)
	if d3.Path != PathPurple || d3.Predicted != 1 || !d3.Dropped {
		t.Errorf("purple malicious: %+v", d3)
	}
}

func TestRedPathBlacklist(t *testing.T) {
	sw := newTestSwitch(4, time.Minute)
	p := mkPkt(3, 3000, 100, 0)
	key := features.KeyOf(&p)
	if !sw.InstallBlacklist(canon(key)) {
		t.Fatal("install failed")
	}
	d := sw.ProcessPacket(&p)
	if d.Path != PathRed || !d.Dropped || d.Predicted != 1 {
		t.Errorf("red path decision: %+v", d)
	}
	// Reverse direction also matches (bi-hash canonical key).
	rev := p
	rev.SrcIP, rev.DstIP = p.DstIP, p.SrcIP
	rev.SrcPort, rev.DstPort = p.DstPort, p.SrcPort
	if got := sw.ProcessPacket(&rev); got.Path != PathRed {
		t.Errorf("reverse direction path = %v, want red", got.Path)
	}
	sw.RemoveBlacklist(canon(key))
	if got := sw.ProcessPacket(&p); got.Path == PathRed {
		t.Error("removed blacklist entry still matches")
	}
}

func TestBlacklistCapacity(t *testing.T) {
	sw := New(Config{Slots: 16, PktThreshold: 4, Timeout: time.Minute, BlacklistCapacity: 2})
	k1 := features.FlowKey{SrcIP: [4]byte{1, 1, 1, 1}, Proto: 6}
	k2 := features.FlowKey{SrcIP: [4]byte{2, 2, 2, 2}, Proto: 6}
	k3 := features.FlowKey{SrcIP: [4]byte{3, 3, 3, 3}, Proto: 6}
	if !sw.InstallBlacklist(canon(k1)) || !sw.InstallBlacklist(canon(k2)) {
		t.Fatal("install under capacity failed")
	}
	if sw.InstallBlacklist(canon(k3)) {
		t.Error("install over capacity succeeded")
	}
	if sw.InstallBlacklist(canon(k1)) != true {
		t.Error("re-install of existing entry should succeed")
	}
	if sw.BlacklistLen() != 2 {
		t.Errorf("blacklist len = %d", sw.BlacklistLen())
	}
}

func TestTimeoutBluePath(t *testing.T) {
	sw := newTestSwitch(100, 50*time.Millisecond)
	rec := &digestRecorder{}
	sw.SetSink(rec)
	p1 := mkPkt(4, 4000, 100, 0)
	p2 := mkPkt(4, 4000, 100, 10*time.Millisecond)
	sw.ProcessPacket(&p1)
	sw.ProcessPacket(&p2)
	// Long gap: next packet of the same flow triggers timeout
	// classification.
	p3 := mkPkt(4, 4000, 100, time.Second)
	d := sw.ProcessPacket(&p3)
	if d.Path != PathBlue {
		t.Fatalf("timeout path = %v, want blue", d.Path)
	}
	if len(rec.digests) != 1 {
		t.Errorf("timeout must emit one digest, got %+v", rec.digests)
	}
	// The flow restarts accumulating with p3.
	if sw.ActiveFlows() != 1 {
		t.Errorf("active flows = %d", sw.ActiveFlows())
	}
}

func TestOrangePathEvictsClassifiedVictim(t *testing.T) {
	// Single-slot tables force collisions.
	sw := New(Config{
		Slots:         1,
		PktThreshold:  2,
		Timeout:       time.Minute,
		FLRules:       flRulesAllowSmall(),
		DropMalicious: true,
	})
	// Classify flow A (occupies both tables? no — one slot each; A goes
	// to table0 or table1 slot 0).
	a1 := mkPkt(5, 5000, 100, 0)
	a2 := mkPkt(5, 5000, 100, time.Millisecond)
	sw.ProcessPacket(&a1)
	da := sw.ProcessPacket(&a2)
	if da.Path != PathBlue {
		t.Fatalf("flow A classification path = %v", da.Path)
	}
	// Flow B collides; with slots=1 both tables are occupied only if
	// another flow also resides in table1; fill it with flow C first.
	c1 := mkPkt(6, 6000, 100, 2*time.Millisecond)
	sw.ProcessPacket(&c1)
	// Now flow B arrives: both slots occupied; A is classified → evicted.
	b1 := mkPkt(7, 7000, 100, 3*time.Millisecond)
	db := sw.ProcessPacket(&b1)
	if db.Path != PathOrange {
		t.Fatalf("flow B path = %v, want orange", db.Path)
	}
	if !db.Recirculated {
		t.Error("classified-victim eviction must recirculate")
	}
}

func TestOrangePathUnclassifiedVictimsStateless(t *testing.T) {
	sw := New(Config{
		Slots:        1,
		PktThreshold: 10,
		Timeout:      time.Minute,
		PLRules:      plRulesAllowPort(),
	})
	// Two accumulating flows occupy both single-slot tables.
	a := mkPkt(8, 8000, 100, 0)
	c := mkPkt(9, 9000, 100, time.Millisecond)
	sw.ProcessPacket(&a)
	sw.ProcessPacket(&c)
	// Third flow collides with both, residents unclassified.
	b := mkPkt(10, 10000, 100, 2*time.Millisecond)
	d := sw.ProcessPacket(&b)
	if d.Path != PathOrange {
		t.Fatalf("path = %v", d.Path)
	}
	if sw.Counters.HardCollisions != 1 {
		t.Errorf("hard collisions = %d", sw.Counters.HardCollisions)
	}
	// PL rules allow port 443 → packet forwarded.
	if d.Predicted != 0 || d.Dropped {
		t.Errorf("stateless decision: %+v", d)
	}
}

func TestPLRulesCatchEarlyMalicious(t *testing.T) {
	sw := newTestSwitch(100, time.Minute)
	// Packet to a non-whitelisted port: PL verdict malicious on the
	// first (brown) packet.
	p := mkPkt(11, 1100, 100, 0)
	p.DstPort = 31337
	d := sw.ProcessPacket(&p)
	if d.Path != PathBrown {
		t.Fatalf("path = %v", d.Path)
	}
	if d.Predicted != 1 || !d.Dropped {
		t.Errorf("early malicious not caught: %+v", d)
	}
}

func TestDigestSink(t *testing.T) {
	var got []Digest
	sink := digestFunc(func(d Digest) { got = append(got, d) })
	sw := New(Config{
		Slots: 8, PktThreshold: 1, Timeout: time.Minute,
		FLRules: flRulesAllowSmall(), Sink: sink,
	})
	p := mkPkt(12, 1200, 100, 0)
	sw.ProcessPacket(&p)
	if len(got) != 1 {
		t.Fatalf("digests = %d", len(got))
	}
	if got[0].Label != 0 {
		t.Errorf("digest label = %d", got[0].Label)
	}
	if sw.Counters.DigestBytes != DigestBytes {
		t.Errorf("digest bytes = %d", sw.Counters.DigestBytes)
	}
}

type digestFunc func(Digest)

func (f digestFunc) OnDigest(d Digest) { f(d) }

// TestBluePathClearsStateKeepsLabel pins the storage clear the blue
// path does in line with its digest: once the packet is done the
// flow's feature state is zero while the label survives in a
// still-valid slot, so no controller call is needed to clear it.
func TestBluePathClearsStateKeepsLabel(t *testing.T) {
	sw := newTestSwitch(2, time.Minute)
	var digests int
	sw.SetSink(digestFunc(func(Digest) { digests++ }))
	for i := 0; i < 2; i++ {
		p := mkPkt(13, 1300, 100, time.Duration(i)*time.Millisecond)
		sw.ProcessPacket(&p)
	}
	if digests != 1 {
		t.Fatalf("digests = %d, want 1", digests)
	}
	p := mkPkt(13, 1300, 100, 0)
	s, _, _, _ := sw.lookup(features.KeyOf(&p).Canonical(), features.KeyOf(&p).Canonical().FoldCanonical())
	if s == nil {
		t.Fatal("classified flow lost its slot")
	}
	if s.state != (features.FlowState{}) {
		t.Errorf("flow state after the blue path = %+v, want zero", s.state)
	}
	if s.label != 0 {
		t.Errorf("label = %d, want 0 (benign)", s.label)
	}
	// The label register answers the next packet on the purple path.
	p3 := mkPkt(13, 1300, 100, 2*time.Millisecond)
	if d := sw.ProcessPacket(&p3); d.Path != PathPurple {
		t.Errorf("next packet took %v, want purple", d.Path)
	}
}

func TestUsageAndReport(t *testing.T) {
	sw := newTestSwitch(4, time.Minute)
	u := sw.Usage()
	if u.TCAMBits == 0 {
		t.Error("no TCAM accounted for installed rules")
	}
	if u.SRAMBits == 0 {
		t.Error("no SRAM accounted")
	}
	if u.Stages != 12 {
		t.Errorf("stages = %d", u.Stages)
	}
	rep := u.Fractions(Tofino1Budget())
	if rep.TCAM <= 0 || rep.TCAM >= 1 {
		t.Errorf("TCAM fraction = %v", rep.TCAM)
	}
	if rep.Rho() <= 0 {
		t.Errorf("rho = %v", rep.Rho())
	}
	if rep.String() == "" {
		t.Error("empty report string")
	}
}

func TestUsageAdd(t *testing.T) {
	a := Usage{Stages: 10, TCAMBits: 100, SRAMBits: 200, SALUs: 3, VLIWs: 4}
	b := Usage{Stages: 12, TCAMBits: 50, SRAMBits: 100, SALUs: 2, VLIWs: 1}
	c := a.Add(b)
	if c.Stages != 12 || c.TCAMBits != 150 || c.SRAMBits != 300 || c.SALUs != 5 || c.VLIWs != 5 {
		t.Errorf("Add = %+v", c)
	}
}

func TestAvgLatency(t *testing.T) {
	sw := newTestSwitch(2, time.Minute)
	if sw.AvgLatency() != 0 {
		t.Error("latency before packets should be 0")
	}
	for i := 0; i < 10; i++ {
		p := mkPkt(byte(20+i), uint16(2000+i), 100, time.Duration(i)*time.Millisecond)
		sw.ProcessPacket(&p)
	}
	lat := sw.AvgLatency()
	if lat < basePipelineLatency {
		t.Errorf("latency %v below base", lat)
	}
	if lat > basePipelineLatency+recircLatency {
		t.Errorf("latency %v above max", lat)
	}
}

func TestPathString(t *testing.T) {
	for p := PathRed; p <= PathGreen; p++ {
		if p.String() == "" {
			t.Errorf("empty string for path %d", int(p))
		}
	}
}

func TestDefaults(t *testing.T) {
	sw := New(Config{})
	cfg := sw.Config()
	if cfg.Slots <= 0 || cfg.PktThreshold <= 0 || cfg.Timeout <= 0 || cfg.BlacklistCapacity <= 0 {
		t.Errorf("defaults not applied: %+v", cfg)
	}
}

func TestNilRulesForwardEverything(t *testing.T) {
	sw := New(Config{Slots: 8, PktThreshold: 2, Timeout: time.Minute})
	p1 := mkPkt(30, 3000, 1400, 0)
	p2 := mkPkt(30, 3000, 1400, time.Millisecond)
	sw.ProcessPacket(&p1)
	d := sw.ProcessPacket(&p2)
	if d.Predicted != 0 {
		t.Errorf("nil rules predicted %d", d.Predicted)
	}
}

func TestCountersAccumulate(t *testing.T) {
	sw := newTestSwitch(2, time.Minute)
	for i := 0; i < 4; i++ {
		p := mkPkt(40, 4000, 100, time.Duration(i)*time.Millisecond)
		sw.ProcessPacket(&p)
	}
	c := sw.Counters
	if c.Packets != 4 {
		t.Errorf("packets = %d", c.Packets)
	}
	total := 0
	for _, n := range c.PathCounts {
		total += n
	}
	// Green path counts recirculations in addition to the original
	// packet's path, so total >= packets.
	if total < c.Packets {
		t.Errorf("path counts %v < packets %d", c.PathCounts, c.Packets)
	}
}

func TestSweepTimeoutsClassifiesIdleFlows(t *testing.T) {
	sw := New(Config{
		Slots:        64,
		PktThreshold: 100,
		Timeout:      50 * time.Millisecond,
		FLRules:      flRulesAllowSmall(),
	})
	// Two packets of one flow, then silence.
	p1 := mkPkt(50, 5000, 100, 0)
	p2 := mkPkt(50, 5000, 100, 10*time.Millisecond)
	sw.ProcessPacket(&p1)
	sw.ProcessPacket(&p2)
	if sw.Counters.Digests != 0 {
		t.Fatal("premature digest")
	}
	// Manual sweep well past the timeout.
	sw.SweepTimeouts(testBase.Add(time.Second))
	if sw.Counters.Digests != 1 {
		t.Errorf("digests = %d, want 1 from sweep", sw.Counters.Digests)
	}
	if sw.Counters.SweepReleases != 1 {
		t.Errorf("releases = %d", sw.Counters.SweepReleases)
	}
	if sw.ActiveFlows() != 0 {
		t.Errorf("active = %d after sweep", sw.ActiveFlows())
	}
}

// TestSweepBeforeLaterPacketClassifiesIdleFlow drives a sweep the way
// serve's SweepEvery tick does: at a later packet's instant, just
// before that packet. The idle flow is digested by the sweep, and the
// later packet then starts its own flow.
func TestSweepBeforeLaterPacketClassifiesIdleFlow(t *testing.T) {
	sw := New(Config{
		Slots:        64,
		PktThreshold: 100,
		Timeout:      20 * time.Millisecond,
		FLRules:      flRulesAllowSmall(),
	})
	p1 := mkPkt(51, 5100, 100, 0)
	sw.ProcessPacket(&p1)
	p2 := mkPkt(52, 5200, 100, time.Second)
	sw.SweepTimeouts(p2.Timestamp)
	if sw.Counters.Sweeps != 1 || sw.Counters.Digests != 1 || sw.Counters.SweepReleases != 1 {
		t.Errorf("after sweep: sweeps %d digests %d releases %d, want 1 each",
			sw.Counters.Sweeps, sw.Counters.Digests, sw.Counters.SweepReleases)
	}
	sw.ProcessPacket(&p2)
	if sw.ActiveFlows() != 1 {
		t.Errorf("active = %d after the later packet, want 1", sw.ActiveFlows())
	}
}

func TestSweepReclaimsIdleLabels(t *testing.T) {
	sw := newTestSwitch(2, 30*time.Millisecond)
	// Classify a flow (label stored), then let it idle.
	p1 := mkPkt(53, 5300, 100, 0)
	p2 := mkPkt(53, 5300, 100, time.Millisecond)
	sw.ProcessPacket(&p1)
	sw.ProcessPacket(&p2)
	if sw.ActiveFlows() != 1 {
		t.Fatalf("active = %d", sw.ActiveFlows())
	}
	sw.SweepTimeouts(testBase.Add(time.Second))
	if sw.ActiveFlows() != 0 {
		t.Errorf("idle label not reclaimed: active = %d", sw.ActiveFlows())
	}
}

// TestSetRulesHotSwap pins the hot-swap primitive: swapping whitelists
// between packets changes future verdicts only — flow state, labels,
// and the blacklist all survive.
func TestSetRulesHotSwap(t *testing.T) {
	sw := newTestSwitch(3, time.Minute)

	// Classify a small benign flow under the original rules.
	for i := 0; i < 3; i++ {
		p := mkPkt(1, 1000, 100, time.Duration(i)*time.Millisecond)
		sw.ProcessPacket(&p)
	}
	// Blacklist another flow so survival across the swap is observable.
	blk := mkPkt(9, 9000, 100, 0)
	sw.InstallBlacklist(canon(features.KeyOf(&blk)))

	// Swap to an empty whitelist: everything classifies malicious now.
	empty := rules.Compile(&rules.RuleSet{Dim: features.FLDim, DefaultLabel: 1},
		rules.NewQuantizer(make([]float64, features.FLDim), []float64{
			1e6, 1e6, 1e6, 1e6, 1e6, 1e6, 1e6, 1e6, 1e6, 1e6, 1e6, 1e6, 1e6}, 16))
	sw.SetRules(nil, empty)
	if sw.Counters.RuleSwaps != 1 {
		t.Fatalf("RuleSwaps=%d want 1", sw.Counters.RuleSwaps)
	}

	// The already-classified flow keeps its pre-swap benign label
	// (purple path reads the label register, not the tables).
	p := mkPkt(1, 1000, 100, 5*time.Millisecond)
	if d := sw.ProcessPacket(&p); d.Path != PathPurple || d.Predicted != 0 {
		t.Fatalf("pre-swap label lost: %+v", d)
	}
	// The blacklist survived.
	if d := sw.ProcessPacket(&blk); d.Path != PathRed {
		t.Fatalf("blacklist lost across swap: %+v", d)
	}
	// A new small flow — benign under the old rules — now classifies
	// malicious under the swapped-in whitelist.
	var last Decision
	for i := 0; i < 3; i++ {
		q := mkPkt(2, 2000, 100, time.Duration(10+i)*time.Millisecond)
		last = sw.ProcessPacket(&q)
	}
	if last.Path != PathBlue || last.Predicted != 1 {
		t.Fatalf("post-swap classification = %+v, want blue/malicious", last)
	}
	// Swapping PL rules to nil forwards early packets unchecked.
	sw.SetRules(nil, empty)
	odd := mkPkt(3, 3000, 100, 20*time.Millisecond)
	odd.DstPort = 9999 // would fail the old PL port filter
	if d := sw.ProcessPacket(&odd); d.Path != PathBrown || d.Predicted != 0 {
		t.Fatalf("nil PL rules still filtering: %+v", d)
	}
	if sw.Counters.RuleSwaps != 2 {
		t.Fatalf("RuleSwaps=%d want 2", sw.Counters.RuleSwaps)
	}
}
