package switchsim

import (
	"fmt"
	"time"

	"iguard/internal/features"
	"iguard/internal/netpkt"
	"iguard/internal/rules"
)

// Path enumerates the six packet-execution paths of Fig. 4.
type Path int

// The packet paths, colour-named as in the paper.
const (
	// PathRed: 5-tuple matched the blacklist; blocked immediately.
	PathRed Path = iota
	// PathBrown: 1..n-1-th packet of an unclassified flow; PL-feature
	// whitelist match only.
	PathBrown
	// PathBlue: n-th packet or timeout; PL+FL whitelist match, digest,
	// storage clear, loopback mirror.
	PathBlue
	// PathOrange: storage collision.
	PathOrange
	// PathPurple: flow already classified; early per-packet decision.
	PathPurple
	// PathGreen: recirculated loopback packet (state maintenance).
	PathGreen
)

// String implements fmt.Stringer.
func (p Path) String() string {
	switch p {
	case PathRed:
		return "red"
	case PathBrown:
		return "brown"
	case PathBlue:
		return "blue"
	case PathOrange:
		return "orange"
	case PathPurple:
		return "purple"
	case PathGreen:
		return "green"
	default:
		return fmt.Sprintf("path(%d)", int(p))
	}
}

// Digest is the message sent to the controller when a flow's class is
// determined: the 13-byte 5-tuple plus a 1-bit label (App. B.2).
type Digest struct {
	Key   features.FlowKey
	Label int
}

// DigestBytes is the wire size of one iGuard digest (13 B 5-tuple plus
// the label bit, rounded up).
const DigestBytes = 14

// Decision reports what the pipeline did with one packet. It is a
// plain value — comparable, and free of per-packet heap allocation.
type Decision struct {
	Path      Path
	Predicted int // per-packet verdict: 0 benign, 1 malicious
	Dropped   bool
	// Recirculated is set when the packet was mirrored to the loopback
	// port (costs one extra pipeline pass).
	Recirculated bool
	// Digest was emitted to the controller when HasDigest is set.
	Digest    Digest
	HasDigest bool
}

// DigestSink consumes controller digests.
type DigestSink interface {
	OnDigest(d Digest)
}

// Config parameterises the pipeline.
type Config struct {
	// Slots is the per-hash-table slot count.
	Slots int
	// PktThreshold is n: FL features are matched and storage released at
	// the n-th packet of a flow.
	PktThreshold int
	// Timeout is δ, the idle timeout releasing flow storage.
	Timeout time.Duration
	// PLRules is the early-packet whitelist over the 4 PL features
	// (§3.3.1); nil means early packets are forwarded unchecked.
	PLRules *rules.CompiledRuleSet
	// FLRules is the whitelist over the 13 FL features; nil means flows
	// are never classified in-switch.
	FLRules *rules.CompiledRuleSet
	// BlacklistCapacity bounds the blacklist exact-match table.
	BlacklistCapacity int
	// DropMalicious selects drop (true) versus forward-to-quarantine
	// (false) for packets judged malicious.
	DropMalicious bool
	// Sink receives digests (the control plane); may be nil.
	Sink DigestSink
	// SweepInterval, when positive, runs a control-plane-style timeout sweep
	// over the flow tables every interval of trace time: idle
	// unclassified flows are classified-and-digested, idle labels are
	// reclaimed. Zero disables the sweep (timeouts then fire only when a
	// packet touches the slot, as in the minimal design).
	SweepInterval time.Duration
}

// withDefaults fills zero fields.
func (c Config) withDefaults() Config {
	if c.Slots <= 0 {
		c.Slots = 4096
	}
	if c.PktThreshold <= 0 {
		c.PktThreshold = 16
	}
	if c.Timeout <= 0 {
		c.Timeout = 5 * time.Second
	}
	if c.BlacklistCapacity <= 0 {
		c.BlacklistCapacity = 8192
	}
	return c
}

// slot is one flow-state entry of a bi-hash table.
type slot struct {
	valid bool
	key   features.FlowKey
	state features.FlowState
	// firstPL is the PL feature vector of the flow's first packet, kept
	// in metadata registers for the blue-path merged-whitelist match.
	// A fixed array — like the hardware registers it models — so slot
	// (re)initialisation never touches the heap.
	firstPL [features.PLDim]float64
	// label is -1 while unclassified, else 0/1.
	label int
	// lastSeen tracks idleness after classification too (state is
	// cleared but the label lingers until timeout).
	lastSeen time.Time
}

// Counters aggregates pipeline statistics.
type Counters struct {
	Packets       int
	PathCounts    [6]int
	Drops         int
	Digests       int
	DigestBytes   int
	Recirculated  int
	MirroredCPU   int
	MirroredBytes int
	// Collisions where the incoming flow could not take a slot.
	HardCollisions int
	// Sweeps counts control-plane timeout sweeps; SweepReleases the
	// slots they reclaimed.
	Sweeps        int
	SweepReleases int
	// RuleSwaps counts whitelist hot-swaps applied via SetRules.
	RuleSwaps int
}

// Switch is the simulated data plane.
//
// Ownership and clock contract: a Switch is single-goroutine. It
// carries no internal locking, by design — the hot path models a data
// plane and must not pay for synchronisation it does not need — so
// exactly one goroutine may touch a given Switch (ProcessPacket,
// SweepTimeouts, SetRules, the blacklist mutators, Counters) at a
// time. Digest delivery is synchronous: ProcessPacket invokes the
// configured Sink inline, so a controller reacting to a digest calls
// back into the switch on the owning goroutine, which is what makes
// the controller's data-plane calls safe without a switch-side lock.
// Concurrent serving runs one private Switch per shard worker and
// routes every interaction — packets, timeout sweeps, rule swaps,
// stats reads — through that worker's mailbox (see internal/serve).
//
// The Switch has no clock of its own: every timeout decision derives
// from the time.Time values handed to it — packet capture timestamps
// via ProcessPacket, and explicit sweep instants via SweepTimeouts.
// Replaying the same trace therefore yields byte-identical behaviour
// regardless of wall-clock speed; live deployments thread real time in
// through the same two entry points.
type Switch struct {
	cfg       Config
	tables    [2][]slot
	seeds     [2]uint32
	blacklist features.KeyIndex
	lastSweep time.Time
	Counters  Counters

	// flBuf is the FL-vector scratch the classify paths materialise
	// flow state into — per-switch (hence per-shard under
	// internal/serve) and safe without locking under the
	// single-goroutine ownership contract above. It is what keeps the
	// packet hot path free of heap allocation. The ownedby annotation
	// documents the contract for iguard-vet; the package declares no
	// //iguard:owner root because the owning goroutine is whichever one
	// drives this Switch (internal/serve's shard loop, a test, a replay
	// harness), so shardown arms only the escape checks here.
	//
	//iguard:ownedby(switch)
	flBuf [features.FLDim]float64
	// plBuf is the PL-vector scratch for stateless per-packet matches.
	//
	//iguard:ownedby(switch)
	plBuf [features.PLDim]float64
}

// New builds a switch from the config.
func New(cfg Config) *Switch {
	cfg = cfg.withDefaults()
	sw := &Switch{cfg: cfg, seeds: [2]uint32{0x1badb002, 0x5ca1ab1e}}
	sw.tables[0] = make([]slot, cfg.Slots)
	sw.tables[1] = make([]slot, cfg.Slots)
	return sw
}

// Config returns the active configuration.
func (sw *Switch) Config() Config { return sw.cfg }

// SetSink attaches the digest consumer (the control plane). It exists
// because the controller needs the switch reference first.
func (sw *Switch) SetSink(sink DigestSink) { sw.cfg.Sink = sink }

// SetRules replaces the whitelist tables in one step — the hot-swap
// primitive of the model lifecycle: the control plane compiles a new
// saved model and swaps its rules into the running pipeline between
// packets, with flow state, labels, and the blacklist all surviving
// the swap (only the match tables change, as a runtime table rewrite
// would on hardware). Either set may be nil with the usual meaning
// (nil PLRules forwards early packets unchecked; nil FLRules never
// classifies in-switch). Per the ownership contract, the caller must
// be the goroutine owning the switch.
func (sw *Switch) SetRules(pl, fl *rules.CompiledRuleSet) {
	sw.cfg.PLRules = pl
	sw.cfg.FLRules = fl
	sw.Counters.RuleSwaps++
}

// InstallBlacklist adds a 5-tuple to the blacklist table (the red-path
// match). It returns false when the table is full.
func (sw *Switch) InstallBlacklist(key features.FlowKey) bool {
	k := key.Canonical()
	return sw.blacklist.Put(k, k.FoldCanonical(), 0, sw.cfg.BlacklistCapacity)
}

// RemoveBlacklist deletes a 5-tuple from the blacklist.
func (sw *Switch) RemoveBlacklist(key features.FlowKey) {
	k := key.Canonical()
	sw.blacklist.Delete(k, k.FoldCanonical())
}

// BlacklistLen returns the current blacklist size.
func (sw *Switch) BlacklistLen() int { return sw.blacklist.Len() }

// lookup finds the resident slot for key, or a free slot; when
// candidate slots hold other flows it returns them as collision
// victims in victims[:nVictims]. The victims array is fixed-size (one
// candidate per table) so a collision never allocates. fold is
// key.Fold(), computed once by the caller and finalised here per
// table seed.
func (sw *Switch) lookup(key features.FlowKey, fold uint32) (resident *slot, free *slot, victims [2]*slot, nVictims int) {
	for ti := 0; ti < 2; ti++ {
		idx := features.IndexFold(fold, sw.seeds[ti], sw.cfg.Slots)
		s := &sw.tables[ti][idx]
		if s.valid && s.key == key {
			return s, nil, victims, 0
		}
		if !s.valid {
			if free == nil {
				free = s
			}
			continue
		}
		victims[nVictims] = s
		nVictims++
	}
	return nil, free, victims, nVictims
}

// classifyFL runs the blue-path whitelist match over the flow state: the
// PL features of the flow's first packet combined with the FL features.
// The verdict is malicious when either table says so (the merged
// whitelist of §3.3.1). The FL vector materialises into the switch's
// scratch buffer, so classification is allocation-free.
func (sw *Switch) classifyFL(st *features.FlowState, firstPL []float64) int {
	verdict := 0
	if sw.cfg.FLRules != nil {
		verdict = sw.cfg.FLRules.Match(st.VectorInto(sw.flBuf[:]))
	}
	if verdict == 0 && sw.cfg.PLRules != nil && firstPL != nil {
		verdict = sw.cfg.PLRules.Match(firstPL)
	}
	return verdict
}

// classifyPL runs the brown/orange-path PL-only match for one packet.
func (sw *Switch) classifyPL(p *netpkt.Packet) int {
	if sw.cfg.PLRules == nil {
		return 0
	}
	return sw.cfg.PLRules.Match(features.PLVectorInto(sw.plBuf[:], p))
}

// emitDigest sends the flow verdict to the controller.
func (sw *Switch) emitDigest(key features.FlowKey, label int) Digest {
	d := Digest{Key: key, Label: label}
	sw.Counters.Digests++
	sw.Counters.DigestBytes += DigestBytes
	sw.notifySink(d)
	return d
}

// notifySink hands a digest to the configured DigestSink. The sink is
// the control-plane boundary: digests fire per *flow* (blue path), not
// per packet, and what a controller does with one is its own business —
// the hot-path allocation contract ends at this interface dispatch.
//
//iguard:coldpath per-flow control-plane boundary, outside the per-packet contract
func (sw *Switch) notifySink(d Digest) {
	if sw.cfg.Sink != nil {
		sw.cfg.Sink.OnDigest(d)
	}
}

// mirrorToCPU models the egress truncated-payload mirror used to update
// whitelist rules from benign traffic (§2 step 11).
func (sw *Switch) mirrorToCPU(p *netpkt.Packet) {
	sw.Counters.MirroredCPU++
	// Truncated to headers + metadata: 64 bytes.
	sw.Counters.MirroredBytes += 64
}

// ProcessPacket runs one packet through the pipeline and returns the
// decision taken. It is the per-packet hot path: iguard-vet statically
// verifies the whole call tree below it allocation-free (the runtime
// AllocsPerRun pins agree), with the digest sink as the only
// //iguard:coldpath exit.
//
//iguard:hotpath
func (sw *Switch) ProcessPacket(p *netpkt.Packet) Decision {
	key, fold := features.CanonicalFoldOf(p)
	return sw.processOne(p, key, fold)
}

// ProcessBatch runs a batch of packets through the pipeline, writing
// each packet's decision into out (len(out) must be ≥ len(pkts)). It
// is ProcessPacket in a loop: decisions, counters and digests are
// byte-identical to calling ProcessPacket on each packet in order,
// because both run the same walk. keys[i] is pkts[i]'s canonical flow
// key and folds[i] its FoldCanonical value, both computed once by the
// caller (features.CanonicalFoldOf; the serve producer needs them for
// shard routing anyway), so the switch never hashes a key twice. keys
// and folds must each hold at least len(pkts) entries. Same ownership
// contract as ProcessPacket.
//
//iguard:hotpath
func (sw *Switch) ProcessBatch(pkts []netpkt.Packet, keys []features.FlowKey, folds []uint32, out []Decision) {
	for i := range pkts {
		out[i] = sw.processOne(&pkts[i], keys[i], folds[i])
	}
}

// processOne is the pipeline walk shared by ProcessPacket and
// ProcessBatch: key is the packet's canonical flow key and fold its
// FoldCanonical value, both computed once by the caller.
func (sw *Switch) processOne(p *netpkt.Packet, key features.FlowKey, fold uint32) Decision {
	sw.Counters.Packets++
	now := p.Timestamp
	if sw.cfg.SweepInterval > 0 {
		if sw.lastSweep.IsZero() {
			sw.lastSweep = now
		} else if now.Sub(sw.lastSweep) >= sw.cfg.SweepInterval {
			sw.SweepTimeouts(now)
			sw.lastSweep = now
		}
	}
	// Red path: blacklist match, probed with the fold the packet
	// already carries.
	if _, hit := sw.blacklist.Get(key, fold); hit {
		sw.Counters.PathCounts[PathRed]++
		sw.Counters.Drops++
		// Blacklisted flows are always blocked, independent of the
		// drop-vs-quarantine policy for whitelist misses.
		return Decision{Path: PathRed, Predicted: 1, Dropped: true}
	}

	resident, free, victims, nVictims := sw.lookup(key, fold)

	if resident != nil {
		// Timeout of the resident flow itself (blue path, timeout arm).
		if resident.label == -1 && resident.state.IdleFor(now, sw.cfg.Timeout) {
			return sw.bluePath(resident, p, true)
		}
		if resident.label >= 0 {
			// Purple path: early decision from the flow label register.
			// Label storage itself times out to keep slots reusable.
			if now.Sub(resident.lastSeen) > sw.cfg.Timeout {
				*resident = slot{}
				return sw.admit(p, key, resident, now)
			}
			resident.lastSeen = now
			sw.Counters.PathCounts[PathPurple]++
			dropped := resident.label == 1 && sw.cfg.DropMalicious
			if dropped {
				sw.Counters.Drops++
			}
			return Decision{Path: PathPurple, Predicted: resident.label, Dropped: dropped}
		}
		// Accumulating flow: add the packet.
		resident.state.Add(p)
		resident.lastSeen = now
		if resident.state.Count >= sw.cfg.PktThreshold {
			return sw.bluePath(resident, p, false)
		}
		// Brown path: early packets, PL-only match.
		sw.Counters.PathCounts[PathBrown]++
		verdict := sw.classifyPL(p)
		dropped := verdict == 1 && sw.cfg.DropMalicious
		if dropped {
			sw.Counters.Drops++
		}
		return Decision{Path: PathBrown, Predicted: verdict, Dropped: dropped}
	}

	if free != nil {
		return sw.admit(p, key, free, now)
	}

	// Orange path: both candidate slots occupied by other flows.
	sw.Counters.PathCounts[PathOrange]++
	// Timed-out victims are classified and evicted first.
	for _, v := range victims[:nVictims] {
		if v.label == -1 && v.state.IdleFor(now, sw.cfg.Timeout) {
			verdict := sw.classifyFL(&v.state, v.plVec())
			sw.emitDigest(v.key, verdict)
			sw.Counters.Recirculated++
			*v = slot{}
			d := sw.admit(p, key, v, now)
			d.Path = PathOrange
			d.Recirculated = true
			return d
		}
	}
	// A classified victim (label 0/1) is evicted: clear and re-init with
	// the incoming packet, mirror to loopback to initialise the flow ID
	// (green path), match PL features for the packet's own verdict.
	for _, v := range victims[:nVictims] {
		if v.label >= 0 {
			*v = slot{}
			sw.Counters.Recirculated++
			sw.Counters.PathCounts[PathGreen]++
			d := sw.admit(p, key, v, now)
			d.Path = PathOrange
			d.Recirculated = true
			return d
		}
	}
	// All victims still collecting (label -1): the incoming flow stays
	// stateless; PL-only decision.
	sw.Counters.HardCollisions++
	verdict := sw.classifyPL(p)
	dropped := verdict == 1 && sw.cfg.DropMalicious
	if dropped {
		sw.Counters.Drops++
	}
	return Decision{Path: PathOrange, Predicted: verdict, Dropped: dropped}
}

// plVec returns the PL vector of the slot's first packet.
func (s *slot) plVec() []float64 { return s.firstPL[:] }

// admit initialises a slot with the packet's flow and runs the
// brown-path PL match (or blue when n == 1). key is the packet's
// canonical flow key, computed once by processOne's caller and
// threaded through rather than re-derived per admission.
func (sw *Switch) admit(p *netpkt.Packet, key features.FlowKey, s *slot, now time.Time) Decision {
	s.valid = true
	s.key = key
	s.label = -1
	s.state = features.FlowState{}
	features.PLVectorInto(s.firstPL[:], p)
	s.state.Add(p)
	s.lastSeen = now
	if s.state.Count >= sw.cfg.PktThreshold {
		return sw.bluePath(s, p, false)
	}
	sw.Counters.PathCounts[PathBrown]++
	verdict := sw.classifyPL(p)
	dropped := verdict == 1 && sw.cfg.DropMalicious
	if dropped {
		sw.Counters.Drops++
	}
	return Decision{Path: PathBrown, Predicted: verdict, Dropped: dropped}
}

// bluePath classifies the flow (n-th packet or timeout), emits the
// digest, clears the stateful storage, mirrors to the loopback port to
// write the flow-label register (green path), and mirrors benign flows
// to the CPU for whitelist updates.
func (sw *Switch) bluePath(s *slot, p *netpkt.Packet, timedOut bool) Decision {
	sw.Counters.PathCounts[PathBlue]++
	verdict := sw.classifyFL(&s.state, s.plVec())
	digest := sw.emitDigest(s.key, verdict)

	// Loopback mirror updates the flow-label register (green path).
	sw.Counters.Recirculated++
	sw.Counters.PathCounts[PathGreen]++
	s.label = verdict
	s.state = features.FlowState{}
	s.lastSeen = p.Timestamp

	pktVerdict := verdict
	if timedOut {
		// The packet that revealed the timeout was not part of the
		// classified window; it gets its own PL-feature verdict and the
		// flow starts accumulating again from this packet.
		pktVerdict = sw.classifyPL(p)
		s.label = -1
		s.state.Add(p)
		features.PLVectorInto(s.firstPL[:], p)
		// The flow's verdict still stands via the digest.
		if verdict == 1 {
			pktVerdict = 1
		}
	}
	if verdict == 0 {
		sw.mirrorToCPU(p)
	}
	dropped := pktVerdict == 1 && sw.cfg.DropMalicious
	if dropped {
		sw.Counters.Drops++
	}
	return Decision{Path: PathBlue, Predicted: pktVerdict, Dropped: dropped, Recirculated: true, Digest: digest, HasDigest: true}
}

// SweepTimeouts runs the control-plane timeout sweep at the given trace
// instant: flows idle past δ are classified from their accumulated
// state (blue-path semantics, with digest and recirculation accounted),
// and idle classified labels are reclaimed so the slots become free.
func (sw *Switch) SweepTimeouts(now time.Time) {
	sw.Counters.Sweeps++
	for ti := 0; ti < 2; ti++ {
		for i := range sw.tables[ti] {
			s := &sw.tables[ti][i]
			if !s.valid {
				continue
			}
			switch {
			case s.label == -1 && s.state.IdleFor(now, sw.cfg.Timeout):
				verdict := sw.classifyFL(&s.state, s.plVec())
				sw.emitDigest(s.key, verdict)
				sw.Counters.Recirculated++
				*s = slot{}
				sw.Counters.SweepReleases++
			case s.label >= 0 && now.Sub(s.lastSeen) > sw.cfg.Timeout:
				*s = slot{}
				sw.Counters.SweepReleases++
			}
		}
	}
}

// ActiveFlows returns the number of valid slots (classified or
// accumulating).
func (sw *Switch) ActiveFlows() int {
	n := 0
	for ti := 0; ti < 2; ti++ {
		for i := range sw.tables[ti] {
			if sw.tables[ti][i].valid {
				n++
			}
		}
	}
	return n
}

// ClearFlow releases the FL feature storage of a flow (controller
// cleanup after a digest). The flow-label register is a separate
// storage in the design (Fig. 4) and survives this cleanup — it is what
// the purple path reads for early decisions; the switch reclaims it via
// the idle timeout.
func (sw *Switch) ClearFlow(key features.FlowKey) {
	k := key.Canonical()
	fold := k.FoldCanonical()
	for ti := 0; ti < 2; ti++ {
		idx := features.IndexFold(fold, sw.seeds[ti], sw.cfg.Slots)
		s := &sw.tables[ti][idx]
		if s.valid && s.key == k {
			s.state = features.FlowState{}
		}
	}
}

// Usage returns the structural resource consumption of this deployment.
// Whitelist tables account under nibble range encoding: one TCAM entry
// per rule at the range-encoded key width.
func (sw *Switch) Usage() Usage {
	var specs []TCAMTableSpec
	if sw.cfg.PLRules != nil {
		specs = append(specs, TCAMTableSpec{Entries: len(sw.cfg.PLRules.Rules), KeyBits: sw.cfg.PLRules.RangeKeyBits()})
	}
	if sw.cfg.FLRules != nil {
		specs = append(specs, TCAMTableSpec{Entries: len(sw.cfg.FLRules.Rules), KeyBits: sw.cfg.FLRules.RangeKeyBits()})
	}
	return PipelineUsage(sw.cfg.Slots, sw.cfg.BlacklistCapacity, specs)
}

// Latency model constants (App. B.1): one pipeline pass plus a
// recirculation penalty for mirrored packets.
const (
	basePipelineLatency = 520 * time.Nanosecond
	recircLatency       = 420 * time.Nanosecond
)

// AvgLatency returns the modelled mean per-packet latency given the
// recirculation counters accumulated so far.
func (sw *Switch) AvgLatency() time.Duration {
	if sw.Counters.Packets == 0 {
		return 0
	}
	total := int64(sw.Counters.Packets)*int64(basePipelineLatency) +
		int64(sw.Counters.Recirculated)*int64(recircLatency)
	return time.Duration(total / int64(sw.Counters.Packets))
}
