// Package bench is iGuard's end-to-end benchmark. It generates each
// workload's traffic from a seed, trains the merged whitelist once,
// and drives the real serving pipeline only through the packages'
// public functions: netpkt decode, features folding, serve ingest and
// hand-off, switchsim and rules in the shards, the controller behind
// the digest sink, and fed between nodes. Layers are timed from the
// outside, around the calls into each layer.
//
// A run has two halves. The end-to-end half (trace 0) measures
// closed-loop throughput and open-loop latency with tracing off. The
// per-layer half (trace 1) runs one traced closed-loop pass and one
// traced open-loop pass, replays each shard's packets through isolated
// switches, and times each layer alone. Every pass is checked against
// a BatchSize 1 reference pass of the same inputs.
package bench

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"time"
)

// Trace modes.
const (
	TraceEndToEnd = 0
	TracePerLayer = 1
	TraceBoth     = 2
)

// Options configures one workload run.
type Options struct {
	Workload string
	Seed     int64
	// Seconds is the measuring budget of the run's timed phases.
	Seconds float64
	Trace   int
	// Scale multiplies every flow count (1 for the benchmark).
	Scale float64
	// Model, when set, is served instead of training one; set-up then
	// times only building the servers.
	Model *Model
	// OutDir receives the span file; empty writes none.
	OutDir string
	// Log receives progress lines; nil discards them.
	Log io.Writer
}

const (
	// minPasses is the fewest passes a timed phase runs, whatever its
	// budget.
	minPasses = 3
	// setupReps is how many times a run sets up; setup_s and setup_mb
	// are the medians.
	setupReps = 3
)

// Run runs one workload and returns its checked result.
func Run(o Options) (*Result, error) {
	w, err := WorkloadByName(o.Workload)
	if err != nil {
		return nil, err
	}
	if o.Scale <= 0 {
		o.Scale = 1
	}
	if o.Log == nil {
		o.Log = io.Discard
	}
	logf := func(format string, args ...any) {
		fmt.Fprintf(o.Log, "[%s] "+format+"\n", append([]any{w.Name}, args...)...)
	}
	runStart := time.Now()
	res := &Result{Workload: w.Name, Why: w.Why, Metrics: map[string]Metric{}, Host: hostInfo()}

	t0 := time.Now()
	streams, err := generateAll(w, o.Seed, o.Scale)
	if err != nil {
		return nil, err
	}
	genS := time.Since(t0).Seconds()
	res.set("bench.gen_s", genS, nil, 0)
	// Generation garbage is large; hand it back before measuring.
	debug.FreeOSMemory()
	federate := len(streams) > 1
	res.Settings = settingsFor(o, streams, federate)
	logf("generated %d packets in %.1fs", res.Settings.Packets, genS)

	// The first set-up rep builds the model the run serves; the others
	// are spread over the timed phase.
	st := newSetupTimer(o.Model, streams, federate)
	model, err := st.rep()
	if err != nil {
		return nil, err
	}

	closedCfg := passConfig{batch: batchSize, federate: federate}
	warm, err := runPass(model, streams, closedCfg)
	if err != nil {
		return nil, err
	}
	ref, err := runPass(model, streams, passConfig{batch: 1})
	if err != nil {
		return nil, err
	}
	res.account("reference", ref, nil)
	res.account("warm-up", warm, ref)
	det, mismatched, err := detect(model, streams, ref)
	if err != nil {
		return nil, err
	}
	if mismatched > 0 {
		res.fail(int64(mismatched), "per-packet switch replay differs from the served decisions in %d packets", mismatched)
	}

	setDetection(det, res)

	// The untraced phases take the whole budget of an end-to-end run and
	// part of a per-layer run, which needs them as its baseline.
	share := 1.0
	if o.Trace == TracePerLayer {
		share = 0.6
	}
	untracedNS, err := servePhases(o.Seconds*share, model, streams, ref, st, setupReps-1, res, logf)
	if err != nil {
		return nil, err
	}
	res.set("setup_s", median(st.secs), st.secs, 0)
	res.set("setup_mb", median(st.mbs), st.mbs, 0)
	if o.Trace != TraceEndToEnd {
		if err := perLayer(o, model, streams, ref, untracedNS, res, logf); err != nil {
			return nil, err
		}
	}
	res.Correct = len(res.Failures) == 0
	res.set("failed_frac", float64(res.Failed)/float64(max(res.Attempted, 1)), nil, 0)
	res.Settings.RunS = time.Since(runStart).Seconds()
	return res, nil
}

// settingsFor records the run's configuration.
func settingsFor(o Options, streams []*Stream, federate bool) Settings {
	s := Settings{Seed: o.Seed, Seconds: o.Seconds, Scale: o.Scale, Trace: o.Trace,
		Input: "pre-decoded packets", Serve: fmt.Sprintf("BatchSize %d, QueueDepth %d, Block, SweepEvery %v, 1 producer lane, %d-slot tables, n=%d, δ=%v, LRU blacklist %d",
			batchSize, queueDepth, sweepEvery, tableSlots, pktThreshold, flowTimeout, blacklistCap)}
	for _, st := range streams {
		s.OfferedPPS = append(s.OfferedPPS, st.Spec.Rate)
		s.Shards = append(s.Shards, st.Spec.Shards)
		s.Packets = append(s.Packets, st.N)
		if st.Spec.Pcap {
			s.Input = "pcap from memory"
		}
	}
	if federate {
		s.Transport = "loopback TCP"
	}
	return s
}

// setupTimer times set-up: training the model (unless one is given)
// and building the serving topology, which each rep then tears down.
type setupTimer struct {
	given    *Model
	streams  []*Stream
	federate bool
	// recBytes is the benchmark's own decision buffers, which are not
	// the system's memory.
	recBytes  int
	secs, mbs []float64
}

func newSetupTimer(given *Model, streams []*Stream, federate bool) *setupTimer {
	t := &setupTimer{given: given, streams: streams, federate: federate}
	for _, s := range streams {
		t.recBytes += 2*s.N + 8*(s.N>>sampleShift+1)
	}
	return t
}

// rep sets up once, recording the time taken and the heap retained,
// and returns the model.
func (t *setupTimer) rep() (*Model, error) {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	t0 := time.Now()
	m := t.given
	if m == nil {
		var err error
		if m, err = TrainModel(); err != nil {
			return nil, err
		}
	}
	topo, err := buildTopology(m, t.streams, batchSize, t.federate, time.Now(), nil)
	if err != nil {
		return nil, err
	}
	t.secs = append(t.secs, time.Since(t0).Seconds())
	runtime.GC()
	runtime.ReadMemStats(&after)
	t.mbs = append(t.mbs, float64(int64(after.HeapAlloc)-int64(before.HeapAlloc)-int64(t.recBytes))/(1<<20))
	topo.close()
	return m, nil
}

// account adds one pass to the run's totals and checks it, and its
// decisions against the reference pass when one is given.
func (r *Result) account(what string, p *passResult, ref *passResult) {
	r.Attempted += int64(p.pkts)
	r.Failed += p.failed
	for _, f := range p.failures {
		r.Failures = append(r.Failures, what+": "+f)
	}
	if ref == nil {
		return
	}
	for k, rec := range p.recs {
		if p.fps[k] == ref.fps[k] {
			continue
		}
		diff := 0
		for i, c := range rec.codes {
			if c != ref.recs[k].codes[i] {
				diff++
			}
		}
		r.fail(int64(diff), "%s: node %d decisions differ from the BatchSize 1 reference in %d packets", what, k, diff)
	}
}

// servePhases runs the untraced closed-loop passes (0.4 of budget) and
// open-loop passes (0.6), interleaved, and sets throughput and latency.
// It also runs the set-up reps still owed, spread over the phase.
// Interleaving makes every timed metric sample the whole phase, so a
// spell of host slowness shifts each a little instead of one a lot. It
// returns the closed-loop wall ns per packet, the baseline the traced
// pass is compared with.
func servePhases(budget float64, m *Model, streams []*Stream, ref *passResult, st *setupTimer, reps int, res *Result, logf func(string, ...any)) (float64, error) {
	closedCfg := passConfig{batch: batchSize, federate: len(streams) > 1}
	openCfg := closedCfg
	openCfg.open = true
	closedBudget, openBudget := 0.4*budget, 0.6*budget

	var pps, lat, p50s, p99s []float64
	var pkts, wall, closedS, openS float64
	closedN, openN := 0, 0
	for {
		needClosed := closedN < minPasses || closedS < closedBudget
		needOpen := openN < minPasses || openS < openBudget
		if !needClosed && !needOpen {
			break
		}
		// Run whichever kind is further behind its share.
		open := needOpen && (!needClosed || openS/openBudget < closedS/closedBudget)
		t0 := time.Now()
		if open {
			p, err := runPass(m, streams, openCfg)
			if err != nil {
				return 0, err
			}
			res.account(fmt.Sprintf("open pass %d", openN), p, ref)
			lat = append(lat, p.latUS...)
			p50s = append(p50s, percentile(p.latUS, 0.5))
			p99s = append(p99s, percentile(p.latUS, 0.99))
			openN++
			openS += time.Since(t0).Seconds()
		} else {
			p, err := runPass(m, streams, closedCfg)
			if err != nil {
				return 0, err
			}
			res.account(fmt.Sprintf("closed pass %d", closedN), p, ref)
			pps = append(pps, float64(p.pkts)/p.wall.Seconds())
			pkts += float64(p.pkts)
			wall += p.wall.Seconds()
			closedN++
			closedS += time.Since(t0).Seconds()
		}
		for ; reps > 0 && closedS+openS >= budget*float64(len(st.secs))/float64(len(st.secs)+reps); reps-- {
			if _, err := st.rep(); err != nil {
				return 0, err
			}
		}
	}
	for ; reps > 0; reps-- {
		if _, err := st.rep(); err != nil {
			return 0, err
		}
	}

	// Pass rates cluster in two modes, by how the producer and shards
	// happen to share the processors; a median of a few passes flips
	// between them, the total rate does not.
	res.set("throughput_pps", pkts/wall, pps, 0)
	res.set("latency_p50_us", percentile(lat, 0.5), p50s, len(lat))
	// A pass's p99 swings with the few stalls it happens to catch; the
	// median across passes is the steadier summary.
	res.set("latency_p99_us", median(p99s), p99s, len(lat))
	res.Settings.ClosedPasses, res.Settings.ClosedS = closedN, closedS
	res.Settings.OpenPasses, res.Settings.OpenS = openN, openS
	logf("%d closed-loop passes: %.3f Mpps; %d open-loop passes: %d latency samples, p50 %.1fus p99 %.1fus",
		closedN, pkts/wall/1e6, openN, len(lat), res.Metrics["latency_p50_us"].Value, res.Metrics["latency_p99_us"].Value)
	return wall / pkts * 1e9, nil
}

// setDetection sets the detection metrics.
func setDetection(det *detection, res *Result) {
	res.set("attack_pass_frac", float64(det.attackPassed)/float64(max(det.attackPkts, 1)), nil, det.attackPkts)
	res.set("benign_drop_frac", float64(det.benignDropped)/float64(max(det.benignPkts, 1)), nil, det.benignPkts)
	res.set("mitigate_pkts_p50", percentile(det.mitPkts, 0.5), nil, len(det.mitPkts))
	res.set("mitigate_pkts_p99", percentile(det.mitPkts, 0.99), nil, len(det.mitPkts))
	res.set("mitigate_trace_ms_p50", percentile(det.mitMS, 0.5), nil, len(det.mitMS))
}

// perLayer runs the traced passes and the isolated layer replays and
// sets the per-layer metrics. untraced is the untraced closed-loop wall
// ns per packet.
func perLayer(o Options, m *Model, streams []*Stream, ref *passResult, untraced float64, res *Result, logf func(string, ...any)) error {
	total, flows := 0, 0
	for _, s := range streams {
		total += s.N
		flows += len(s.FlowMal)
	}
	tr := NewTracer(total*3/10 + 2*flows + 4096)
	closedCfg := passConfig{batch: batchSize, federate: len(streams) > 1, tracer: tr}
	tc, err := runPass(m, streams, closedCfg)
	if err != nil {
		return err
	}
	res.account("traced closed pass", tc, ref)
	openCfg := closedCfg
	openCfg.open = true
	to, err := runPass(m, streams, openCfg)
	if err != nil {
		return err
	}
	res.account("traced open pass", to, ref)

	setServeLayers(tc, to, res)
	switchNS, err := replayShards(m, streams, tc, ref, tr, res)
	if err != nil {
		return err
	}
	setFedLayer(to, res)
	if err := microReplays(m, streams[0], res); err != nil {
		return err
	}

	// Where the closed-loop wall time went.
	n := float64(tc.pkts)
	wall := float64(tc.wall.Nanoseconds())
	shards := 0
	for _, s := range streams {
		shards += s.Spec.Shards
	}
	res.set("bench.gen_lag_us_p99", percentile(to.lagUS, 0.99), nil, len(to.lagUS))
	res.set("bench.producer_busy_frac", float64(tc.decodeNS+tc.ingestNS)/wall, nil, 0)
	res.set("bench.shard_busy_frac", float64(switchNS)/(float64(shards)*wall), nil, 0)
	res.set("bench.unexplained_ns_per_pkt", untraced-float64(tc.decodeNS+tc.ingestNS)/n, nil, 0)
	res.set("bench.trace_overhead_frac", wall/n/untraced-1, nil, 0)

	res.Layers = SelfTimes(tr.Spans())
	if d := tr.Dropped(); d > 0 {
		logf("span buffer full: %d spans not kept", d)
	}
	if o.OutDir != "" {
		if err := os.MkdirAll(o.OutDir, 0o755); err != nil {
			return fmt.Errorf("bench: output dir: %w", err)
		}
		path := filepath.Join(o.OutDir, res.Workload+".spans.jsonl")
		if err := WriteSpans(path, tr.Spans()); err != nil {
			return err
		}
		res.Spans = path
	}
	logf("traced: ingest %.1f ns/pkt, switch self %.1f ns/pkt, %d spans",
		res.Metrics["serve.ingest_ns_per_pkt"].Value, res.Metrics["switchsim.self_ns_per_pkt"].Value, len(tr.Spans()))
	return nil
}

// setServeLayers sets the serve and switch counters of the traced
// passes: the generator's time in IngestBatch, the hand-off shape, the
// drain, decision waits and apply times, and the path mix.
func setServeLayers(tc, to *passResult, res *Result) {
	res.set("serve.ingest_ns_per_pkt", float64(tc.ingestNS)/float64(tc.pkts), nil, 0)
	var pathCounts [6]int
	var batches uint64
	decided, hard, releases, skew := 0, 0, 0, 0.0
	for _, st := range tc.stats {
		decided += st.Packets
		batches += st.Batches
		hard += st.HardCollisions
		for i, c := range st.PathCounts {
			pathCounts[i] += c
		}
		most := 0
		for _, sh := range st.Shards {
			most = max(most, sh.Switch.Packets)
			releases += sh.Switch.SweepReleases
		}
		skew = max(skew, float64(most)*float64(len(st.Shards))/float64(max(st.Packets, 1)))
	}
	res.set("serve.batch_fill", float64(decided)/float64(max(batches, 1)), nil, 0)
	res.set("serve.shard_skew", skew, nil, 0)
	res.set("serve.drain_ms", float64(tc.drainNS)/1e6, nil, 0)
	res.set("serve.decision_wait_us_p50", percentile(to.waitUS, 0.5), nil, len(to.waitUS))
	res.set("serve.decision_wait_us_p99", percentile(to.waitUS, 0.99), nil, len(to.waitUS))
	res.set("serve.apply_install_us_p50", percentile(to.applyUS, 0.5), nil, len(to.applyUS))
	res.set("serve.apply_install_us_p99", percentile(to.applyUS, 0.99), nil, len(to.applyUS))
	for i, name := range []string{"red", "brown", "blue", "orange", "purple", "green"} {
		res.set("switchsim.path_frac."+name, float64(pathCounts[i])/float64(max(decided, 1)), nil, 0)
	}
	res.set("switchsim.hard_collision_frac", float64(hard)/float64(max(decided, 1)), nil, 0)
	res.set("switchsim.sweep_releases", float64(releases), nil, 0)
}

// replayShards replays each node's shards in isolation, in the traced
// pass's shard assignment, with the digest sink timed, and sets the
// switch and controller metrics. It returns the switch time (digests
// included) summed over shards.
func replayShards(m *Model, streams []*Stream, tc, ref *passResult, tr *Tracer, res *Result) (int64, error) {
	var switchNS, digestTotal int64
	var digestNS []float64
	installs, evictions, digests := 0, 0, 0
	for k, s := range streams {
		pkts, err := s.Packets()
		if err != nil {
			return 0, err
		}
		rp := newReplay(m, s, pkts, s.Spec.Shards, batchSize, tr)
		rp.run(tc.recs[k].shard)
		if d := rp.mismatches(ref.recs[k].codes); d > 0 {
			res.fail(int64(d), "isolated switch replay of node %d differs from the served decisions in %d packets", k, d)
		}
		res.Attempted += int64(s.N)
		switchNS += rp.switchNS
		for _, d := range rp.digestNS {
			digestTotal += d
			digestNS = append(digestNS, float64(d))
		}
		cs := rp.controllerStats()
		installs += cs.RulesInstalled
		evictions += cs.RulesEvicted
		digests += cs.DigestsReceived
	}
	res.set("switchsim.self_ns_per_pkt", float64(switchNS-digestTotal)/float64(tc.pkts), nil, 0)
	res.set("controller.digest_ns_p50", percentile(digestNS, 0.5), nil, len(digestNS))
	res.set("controller.digest_ns_p99", percentile(digestNS, 0.99), nil, len(digestNS))
	res.set("controller.installs", float64(installs), nil, 0)
	res.set("controller.evictions", float64(evictions), nil, 0)
	res.set("controller.install_per_digest", float64(installs)/float64(max(digests, 1)), nil, 0)
	return switchNS, nil
}

// setFedLayer sets the federation metrics from the traced open-loop
// pass; they read zero on a workload without a hub.
func setFedLayer(to *passResult, res *Result) {
	res.set("fed_mitigate_ms_p50", percentile(to.propUS, 0.5)/1e3, nil, len(to.propUS))
	res.set("fed_mitigate_ms_p99", percentile(to.propUS, 0.99)/1e3, nil, len(to.propUS))
	res.set("fed.slow_kicks", float64(to.hub.slowKicks), nil, 0)
	res.set("fed.sessions_b", float64(to.hub.sessionsB), nil, 0)
	amp := 0.0
	if to.announced > 0 {
		amp = float64(to.applies) / float64(to.announced)
	}
	res.set("fed.apply_amplification", amp, nil, 0)
	res.set("fed.outbox_drops", float64(to.hub.outboxDrops), nil, 0)
}

// microReplays times decode, fold, PL match and FL match alone over the
// first node's packet prefix.
func microReplays(m *Model, s *Stream, res *Result) error {
	pkts, err := s.Packets()
	if err != nil {
		return err
	}
	prefix := pkts[:min(len(pkts), microPrefix)]
	data, err := encodePcap(prefix)
	if err != nil {
		return err
	}
	decNS, allocs, bytesPer, err := decodeCost(data)
	if err != nil {
		return err
	}
	res.set("netpkt.decode_ns_per_pkt", decNS, nil, 0)
	res.set("netpkt.decode_allocs_per_pkt", allocs, nil, 0)
	res.set("netpkt.decode_bytes_per_pkt", bytesPer, nil, 0)
	res.set("features.fold_ns_per_pkt", foldCost(prefix), nil, 0)
	res.set("rules.pl_match_ns_per_pkt", plMatchCost(m.PL, prefix), nil, 0)
	res.set("rules.fl_match_ns_per_flow", flMatchCost(m.FL, prefix, s.Flow), nil, 0)
	return nil
}
