package bench

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"io"
	"runtime"
	"time"

	"iguard/internal/netpkt"
	"iguard/internal/serve"
)

// passConfig selects how one pass drives its topology.
type passConfig struct {
	// batch is the servers' BatchSize (1 for the reference pass).
	batch int
	// open paces chunks at each node's offered rate; otherwise every
	// chunk is handed off as soon as the previous call returns.
	open bool
	// federate wires the hub and agents (fed-pair only).
	federate bool
	// tracer, when non-nil, records spans; nil runs untraced.
	tracer *Tracer
}

// passResult is what one pass measured and checked.
type passResult struct {
	pkts int
	wall time.Duration
	// fps holds each node's decision fingerprint.
	fps []uint64
	// Latency (due → decision), decision wait (IngestBatch return →
	// decision) and generator lateness (send − due), all in µs.
	latUS, waitUS, lagUS []float64
	stats                []serve.Stats
	recs                 []*recorder
	// Control-plane measurements (federated passes only).
	propUS, applyUS []float64
	announced       int
	applies         int
	hub             hubFacts
	// Span totals of the generator's own calls (traced passes), and the
	// time Flush and Close took at the end of the pass.
	decodeNS, ingestNS, drainNS int64
	// failed counts packets offered but not decided, ingest errors and
	// unpropagated keys; failures says why.
	failed   int64
	failures []string
}

// hubFacts snapshots the federation counters one pass produced.
type hubFacts struct {
	slowKicks, sessionsB, outboxDrops uint64
}

// feed is one node's generator state within a pass.
type feed struct {
	n        *node
	p        *serve.Producer
	chunks   int
	next     int
	interval float64 // ns between chunk due times
	rd       *netpkt.PcapReader
	buf      []netpkt.Packet
	retNS    []int64 // per chunk: IngestBatch return (ns since base)
	ingestID []int32 // per chunk: ingest span id
}

// runPass builds a fresh topology, drives every stream through it once
// and tears it down, checking the pass as it goes.
func runPass(m *Model, streams []*Stream, pc passConfig) (*passResult, error) {
	runtime.GC()
	base := time.Now()
	if pc.tracer != nil {
		base = pc.tracer.epoch
	}
	topo, err := buildTopology(m, streams, pc.batch, pc.federate, base, pc.tracer)
	if err != nil {
		return nil, err
	}
	defer topo.close()
	res := &passResult{}
	feeds := make([]*feed, len(topo.nodes))
	for i, n := range topo.nodes {
		nPkts := n.stream.N
		res.pkts += nPkts
		f := &feed{
			n:        n,
			p:        n.srv.Producer(0),
			chunks:   (nPkts + chunkLen - 1) / chunkLen,
			interval: chunkLen / n.stream.Spec.Rate * 1e9,
			retNS:    make([]int64, (nPkts+chunkLen-1)/chunkLen),
			ingestID: make([]int32, (nPkts+chunkLen-1)/chunkLen),
		}
		if n.stream.Spec.Pcap {
			f.rd, err = netpkt.NewPcapReader(bytes.NewReader(n.stream.Pcap))
			if err != nil {
				return nil, err
			}
			f.buf = make([]netpkt.Packet, chunkLen)
		}
		feeds[i] = f
	}
	if pc.open {
		res.lagUS = make([]float64, 0, res.pkts/chunkLen+len(feeds))
	}
	tr := pc.tracer
	since := func() int64 { return int64(time.Since(base)) }
	start := since()
	passID := tr.Begin("pass", 0, start, res.pkts)
	for {
		// The next chunk is the earliest due across nodes: one pacer
		// interleaves every node's schedule.
		var f *feed
		for _, c := range feeds {
			if c.next < c.chunks && (f == nil || float64(c.next)*c.interval < float64(f.next)*f.interval) {
				f = c
			}
		}
		if f == nil {
			break
		}
		due := start + int64(float64(f.next)*f.interval)
		if pc.open {
			waitUntil(base, due)
			res.lagUS = append(res.lagUS, float64(since()-due)/1e3)
		}
		lo := f.next * chunkLen
		hi := min(lo+chunkLen, f.n.stream.N)
		var chunk []netpkt.Packet
		if f.rd != nil {
			t0 := since()
			k, rerr := f.rd.NextValidBatch(f.buf[:hi-lo])
			if rerr != nil && rerr != io.EOF {
				return nil, fmt.Errorf("bench: decode: %w", rerr)
			}
			chunk = f.buf[:k]
			if tr != nil {
				t1 := since()
				tr.Record("decode", passID, t0, t1, k)
				res.decodeNS += t1 - t0
			}
		} else {
			chunk = f.n.stream.Pkts[lo:hi]
		}
		var t0 int64
		if tr != nil {
			t0 = since()
		}
		_, _, ierr := f.p.IngestBatch(chunk)
		if ierr != nil {
			res.failed += int64(len(chunk))
			res.failures = append(res.failures, fmt.Sprintf("ingest: %v", ierr))
		}
		if tr != nil {
			t1 := since()
			f.retNS[f.next] = t1
			f.ingestID[f.next] = tr.Record("ingest", passID, t0, t1, len(chunk))
			res.ingestNS += t1 - t0
		}
		f.next++
	}
	if err := finishPass(topo, feeds, res, tr, passID, since); err != nil {
		return nil, err
	}
	res.wall = time.Duration(since() - start)
	tr.End(passID, since())
	if topo.fed != nil {
		collectFed(topo, res)
	}
	topo.close()
	for i, n := range topo.nodes {
		res.stats = append(res.stats, n.srv.Stats())
		res.recs = append(res.recs, n.rec)
		res.fps = append(res.fps, checkNode(n, res.stats[i], res))
	}
	collectLatency(feeds, start, pc, res)
	return res, nil
}

// finishPass hands off every pending batch and drains the servers. A
// federated pass measures wall time up to the point both nodes have
// decided every packet; waiting for node B to apply node A's installs
// is a separate check that wall time leaves out.
func finishPass(topo *topology, feeds []*feed, res *passResult, tr *Tracer, passID int32, since func() int64) error {
	drain := since()
	defer func() { res.drainNS = since() - drain }()
	for _, f := range feeds {
		t0 := since()
		if err := f.p.Flush(); err != nil {
			return fmt.Errorf("bench: flush: %w", err)
		}
		tr.Record("flush", passID, t0, since(), 0)
	}
	t0 := since()
	if topo.fed == nil {
		for _, n := range topo.nodes {
			if err := n.srv.Close(); err != nil {
				return fmt.Errorf("bench: close: %w", err)
			}
		}
		tr.Record("close", passID, t0, since(), 0)
		return nil
	}
	// Node A first: its close drains every install into the agent's
	// outbox. Node B's Stats is a mailbox barrier behind its last batch.
	if err := topo.nodes[0].srv.Close(); err != nil {
		return fmt.Errorf("bench: close: %w", err)
	}
	topo.nodes[1].srv.Stats()
	tr.Record("close", passID, t0, since(), 0)
	return nil
}

// waitUntil blocks until due (ns since base). Go's timers can wake a
// millisecond late on an idle processor, so the pacer only sleeps
// through long gaps and yields the processor through the last two
// milliseconds, which keeps it punctual without holding a shard off
// its CPU.
func waitUntil(base time.Time, due int64) {
	const coarse = 2 * time.Millisecond
	for {
		d := time.Duration(due - int64(time.Since(base)))
		if d <= 0 {
			return
		}
		if d > coarse {
			time.Sleep(d - coarse/2)
			continue
		}
		runtime.Gosched()
	}
}

// checkNode checks one node's pass: under Block every offered packet is
// ingested and decided, nothing is queue-dropped. It returns the node's
// decision fingerprint.
func checkNode(n *node, st serve.Stats, res *passResult) uint64 {
	want := n.stream.N
	undecided := 0
	for _, c := range n.rec.codes {
		if c&codeDecided == 0 {
			undecided++
		}
	}
	if undecided > 0 {
		res.failed += int64(undecided)
		res.failures = append(res.failures, fmt.Sprintf("%d of %d packets undecided", undecided, want))
	}
	if st.Ingested != uint64(want) || st.Packets != want || st.QueueDrops != 0 {
		res.failures = append(res.failures, fmt.Sprintf("ingested=%d processed=%d queueDrops=%d, want %d/%d/0",
			st.Ingested, st.Packets, st.QueueDrops, want, want))
		if st.Packets < want && undecided == 0 {
			res.failed += int64(want - st.Packets)
		}
	}
	return fingerprint(n.rec.codes)
}

// fingerprint is FNV-64a over the per-seq decision codes (seq, path,
// verdict and drop, in seq order).
func fingerprint(codes []uint8) uint64 {
	h := fnv.New64a()
	h.Write(codes)
	return h.Sum64()
}

// collectLatency turns the sampled decision stamps into latency (from
// each chunk's due time, open loop only) and decision-wait samples
// (from each chunk's IngestBatch return, traced passes), and builds the
// sampled decision spans, parented to their chunk's ingest span.
func collectLatency(feeds []*feed, start int64, pc passConfig, res *passResult) {
	if !pc.open && pc.tracer == nil {
		return
	}
	for _, f := range feeds {
		dec := f.n.rec.decNS
		n := f.n.stream.N
		for s := 0; s < n; s += 1 << sampleShift {
			d := dec[s>>sampleShift]
			c := s / chunkLen
			if pc.open {
				due := start + int64(float64(c)*f.interval)
				res.latUS = append(res.latUS, float64(d-due)/1e3)
			}
			if pc.tracer != nil {
				ret := f.retNS[c]
				res.waitUS = append(res.waitUS, float64(max(d-ret, 0))/1e3)
				pc.tracer.Record("decision", f.ingestID[c], ret, max(d, ret), 1)
			}
		}
	}
}

// collectFed waits for propagation and snapshots the federation's
// counters, then stops the agents so node B can close.
func collectFed(topo *topology, res *passResult) {
	f := topo.fed
	if missing := f.awaitPropagation(10 * time.Second); missing > 0 {
		res.failed += int64(missing)
		res.failures = append(res.failures, fmt.Sprintf("%d announced keys never applied at node B", missing))
	}
	f.stopAgents()
	hs := f.hub.Stats()
	sa, sb := f.agentA.Stats(), f.agentB.Stats()
	res.hub = hubFacts{slowKicks: hs.SlowKicks, sessionsB: sb.Sessions, outboxDrops: sa.OutboxDrops}
	f.mu.Lock()
	res.propUS = f.propUS
	res.applyUS = f.applyUS
	res.announced = len(f.announced)
	res.applies = f.applies
	f.mu.Unlock()
}
