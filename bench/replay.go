package bench

import (
	"fmt"
	"time"

	"iguard/internal/controller"
	"iguard/internal/features"
	"iguard/internal/netpkt"
	"iguard/internal/switchsim"
)

// replaySink is the digest sink of an isolated switch replay: it
// forwards every digest to the shard's controller and, depending on the
// replay, times the controller call or notes the trace time at which
// each flow was first judged malicious.
type replaySink struct {
	ctrl *controller.Controller
	r    *replay
}

func (s replaySink) OnDigest(d switchsim.Digest) {
	r := s.r
	if r.timed {
		t0 := r.tr.Now()
		s.ctrl.OnDigest(d)
		t1 := r.tr.Now()
		r.digestNS = append(r.digestNS, t1-t0)
		if len(r.digestNS)&(1<<sampleShift-1) == 1 {
			r.tr.Record("digest", r.batchSpan, t0, t1, 0)
		}
		return
	}
	s.ctrl.OnDigest(d)
	if d.Label != 1 {
		return
	}
	if id, ok := r.stream.FlowID[d.Key.Canonical()]; ok && r.installNS[id] == 0 {
		r.installNS[id] = r.nowNS
	}
}

// replay re-runs one node's packets through fresh per-shard switches,
// single-threaded, in the shard assignment a served pass recorded and
// with the sweep ticks the producer would broadcast. Decisions do not
// depend on batching or on which goroutine runs a shard, so the replay
// must reproduce the served pass's decisions exactly.
type replay struct {
	stream *Stream
	pkts   []netpkt.Packet
	shards int
	// batch is 1 for a per-packet ProcessPacket replay, else the
	// ProcessBatch size.
	batch int
	timed bool
	tr    *Tracer

	sw    []*switchsim.Switch
	ctrls []*controller.Controller
	codes []uint8

	// Detection replay: current trace time and each flow's first
	// malicious digest (unix ns, 0 for none).
	nowNS     int64
	installNS []int64

	// Timed replay: digest call durations, the open process_batch span,
	// and the switch time spent in ProcessBatch and sweeps.
	digestNS  []int64
	batchSpan int32
	switchNS  int64
}

func newReplay(m *Model, s *Stream, pkts []netpkt.Packet, shards, batch int, tr *Tracer) *replay {
	r := &replay{stream: s, pkts: pkts, shards: shards, batch: batch, timed: tr != nil, tr: tr, codes: make([]uint8, len(pkts))}
	if !r.timed {
		r.installNS = make([]int64, len(s.FlowMal))
	}
	for i := 0; i < shards; i++ {
		sw, ctrl := newShard(m, func(c *controller.Controller) switchsim.DigestSink { return replaySink{ctrl: c, r: r} })
		r.sw = append(r.sw, sw)
		r.ctrls = append(r.ctrls, ctrl)
	}
	return r
}

// run replays the stream in the served shard assignment shardOf.
func (r *replay) run(shardOf []uint8) {
	pend := make([][]int, r.shards)
	pkts := make([]netpkt.Packet, r.batch)
	keys := make([]features.FlowKey, r.batch)
	folds := make([]uint32, r.batch)
	out := make([]switchsim.Decision, r.batch)
	flush := func(sh int) {
		idx := pend[sh]
		if len(idx) == 0 {
			return
		}
		for j, i := range idx {
			pkts[j] = r.pkts[i]
			keys[j], folds[j] = features.CanonicalFoldOf(&pkts[j])
		}
		n := len(idx)
		if r.timed {
			t0 := r.tr.Now()
			r.batchSpan = r.tr.Begin("process_batch", 0, t0, n)
			r.sw[sh].ProcessBatch(pkts[:n], keys[:n], folds[:n], out[:n])
			t1 := r.tr.Now()
			r.tr.End(r.batchSpan, t1)
			r.switchNS += t1 - t0
		} else {
			r.sw[sh].ProcessBatch(pkts[:n], keys[:n], folds[:n], out[:n])
		}
		for j, i := range idx {
			r.codes[i] = encodeDecision(out[j])
		}
		pend[sh] = idx[:0]
	}
	var lastSeen, lastTick int64
	for i := range r.pkts {
		p := &r.pkts[i]
		ns := p.Timestamp.UnixNano()
		// The producer's trace clock: the first packet seeds it; a tick
		// fires when a strictly newer timestamp is SweepEvery past the
		// last tick, after the lane's pending batches are handed off.
		if lastSeen == 0 {
			lastSeen, lastTick = ns, ns
		} else if ns > lastSeen {
			lastSeen = ns
			if time.Duration(ns-lastTick) >= sweepEvery {
				lastTick = ns
				r.tick(ns, flush)
			}
		}
		sh := int(shardOf[i])
		if r.batch == 1 {
			r.nowNS = ns
			r.codes[i] = encodeDecision(r.sw[sh].ProcessPacket(p))
			continue
		}
		pend[sh] = append(pend[sh], i)
		if len(pend[sh]) == r.batch {
			flush(sh)
		}
	}
	for sh := range pend {
		flush(sh)
	}
}

// tick hands every shard its pending packets and then the sweep.
func (r *replay) tick(ns int64, flush func(int)) {
	now := time.Unix(0, ns).UTC()
	r.nowNS = ns
	for sh, sw := range r.sw {
		flush(sh)
		if r.timed {
			t0 := r.tr.Now()
			r.batchSpan = r.tr.Begin("sweep", 0, t0, 0)
			sw.SweepTimeouts(now)
			t1 := r.tr.Now()
			r.tr.End(r.batchSpan, t1)
			r.switchNS += t1 - t0
		} else {
			sw.SweepTimeouts(now)
		}
	}
}

// mismatches counts packets whose replayed decision differs from the
// served one.
func (r *replay) mismatches(served []uint8) int {
	n := 0
	for i, c := range r.codes {
		if c != served[i] {
			n++
		}
	}
	return n
}

// controllerStats sums the replay's controller counters.
func (r *replay) controllerStats() controller.Stats {
	var st controller.Stats
	for _, c := range r.ctrls {
		s := c.Stats()
		st.DigestsReceived += s.DigestsReceived
		st.RulesInstalled += s.RulesInstalled
		st.RulesEvicted += s.RulesEvicted
	}
	return st
}

// detection holds the deterministic detection outcome of one run,
// judged against each stream's ground truth.
type detection struct {
	attackPkts, attackPassed  int
	benignPkts, benignDropped int
	// mitPkts holds, per attack flow, the packets seen up to and
	// including its first drop (all its packets if none was dropped);
	// mitMS, per attack flow the switch judged malicious, the trace time
	// from its first packet to that verdict's digest.
	mitPkts, mitMS []float64
}

// detect replays each stream per packet to find when every flow was
// first judged malicious, checks that replay against the served
// reference decisions, and scores the decisions against ground truth.
func detect(m *Model, streams []*Stream, ref *passResult) (*detection, int, error) {
	det := &detection{}
	mismatched := 0
	for k, s := range streams {
		pkts, err := s.Packets()
		if err != nil {
			return nil, 0, err
		}
		rp := newReplay(m, s, pkts, s.Spec.Shards, 1, nil)
		rp.run(ref.recs[k].shard)
		mismatched += rp.mismatches(ref.recs[k].codes)
		codes := ref.recs[k].codes
		nf := len(s.FlowMal)
		seen := make([]int32, nf)
		firstDrop := make([]int32, nf)
		firstNS := make([]int64, nf)
		for i := range pkts {
			f := s.Flow[i]
			if seen[f] == 0 {
				firstNS[f] = pkts[i].Timestamp.UnixNano()
			}
			seen[f]++
			dropped := codes[i]&codeDrop != 0
			if dropped && firstDrop[f] == 0 {
				firstDrop[f] = seen[f]
			}
			if s.FlowMal[f] {
				det.attackPkts++
				if !dropped {
					det.attackPassed++
				}
			} else {
				det.benignPkts++
				if dropped {
					det.benignDropped++
				}
			}
		}
		for f, mal := range s.FlowMal {
			if !mal {
				continue
			}
			if firstDrop[f] > 0 {
				det.mitPkts = append(det.mitPkts, float64(firstDrop[f]))
			} else {
				det.mitPkts = append(det.mitPkts, float64(seen[f]))
			}
			if at := rp.installNS[f]; at > 0 {
				det.mitMS = append(det.mitMS, float64(at-firstNS[f])/1e6)
			}
		}
	}
	if len(det.mitPkts) == 0 {
		return nil, 0, fmt.Errorf("bench: workload has no attack flows")
	}
	return det, mismatched, nil
}
