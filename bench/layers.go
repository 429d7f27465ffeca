package bench

import (
	"bytes"
	"io"
	"runtime"
	"time"

	"iguard/internal/features"
	"iguard/internal/netpkt"
	"iguard/internal/rules"
)

// microPrefix bounds the packets the per-layer micro replays (decode,
// fold, PL match, FL match) run over: enough to reach steady state,
// small enough to repeat several times in a run.
const microPrefix = 1 << 17

// microReps is how many times each micro replay runs; its metric is the
// median.
const microReps = 5

// sinkInt keeps the compiler from discarding a micro replay's work.
var sinkInt int

// medianNSPerItem times fn (which processes items items) microReps
// times and returns the median ns per item.
func medianNSPerItem(items int, fn func()) float64 {
	if items == 0 {
		return 0
	}
	per := make([]float64, microReps)
	for i := range per {
		t0 := time.Now()
		fn()
		per[i] = float64(time.Since(t0).Nanoseconds()) / float64(items)
	}
	return median(per)
}

// decodeCost measures PcapReader.NextValidBatch over an in-memory pcap:
// ns, heap allocations and heap bytes per packet.
func decodeCost(data []byte) (nsPerPkt, allocsPerPkt, bytesPerPkt float64, err error) {
	buf := make([]netpkt.Packet, chunkLen)
	pass := func() (int, error) {
		r, err := netpkt.NewPcapReader(bytes.NewReader(data))
		if err != nil {
			return 0, err
		}
		total := 0
		for {
			n, err := r.NextValidBatch(buf)
			total += n
			if err == io.EOF {
				return total, nil
			}
			if err != nil {
				return total, err
			}
		}
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	n, err := pass()
	runtime.ReadMemStats(&after)
	if err != nil || n == 0 {
		return 0, 0, 0, err
	}
	allocsPerPkt = float64(after.Mallocs-before.Mallocs) / float64(n)
	bytesPerPkt = float64(after.TotalAlloc-before.TotalAlloc) / float64(n)
	nsPerPkt = medianNSPerItem(n, func() {
		if _, e := pass(); e != nil {
			err = e
		}
	})
	return nsPerPkt, allocsPerPkt, bytesPerPkt, err
}

// encodePcap writes pkts as an in-memory classic pcap.
func encodePcap(pkts []netpkt.Packet) ([]byte, error) {
	var b bytes.Buffer
	// Header-only frames: 16 B record header plus at most 54 B of frame.
	b.Grow(24 + 70*len(pkts))
	w := netpkt.NewPcapWriter(&b)
	for i := range pkts {
		if err := w.WritePacket(&pkts[i]); err != nil {
			return nil, err
		}
	}
	if err := w.Flush(); err != nil {
		return nil, err
	}
	return b.Bytes(), nil
}

// foldCost measures features.CanonicalFoldOf, the producer's per-packet
// key and fold.
func foldCost(pkts []netpkt.Packet) float64 {
	return medianNSPerItem(len(pkts), func() {
		var acc uint32
		for i := range pkts {
			_, f := features.CanonicalFoldOf(&pkts[i])
			acc ^= f
		}
		sinkInt += int(acc)
	})
}

// plMatchCost measures the switch's batch PL match: per 64-packet
// batch, EncodeColumnInto over the four feature columns and one
// MatchColumns. The feature-major values are laid out beforehand, as
// ProcessBatch has them.
func plMatchCost(pl *rules.CompiledRuleSet, pkts []netpkt.Packet) float64 {
	const dims = features.PLDim
	nb := (len(pkts) + chunkLen - 1) / chunkLen
	vals := make([][]float64, nb)
	var v [dims]float64
	for b := range vals {
		lo, hi := b*chunkLen, min((b+1)*chunkLen, len(pkts))
		n := hi - lo
		col := make([]float64, dims*n)
		for i := lo; i < hi; i++ {
			features.PLVectorInto(v[:], &pkts[i])
			for f := 0; f < dims; f++ {
				col[f*n+i-lo] = v[f]
			}
		}
		vals[b] = col
	}
	codes := make([]uint64, dims*chunkLen)
	dst := make([]int, chunkLen)
	var scratch rules.BatchScratch
	return medianNSPerItem(len(pkts), func() {
		acc := 0
		for _, col := range vals {
			n := len(col) / dims
			for f := 0; f < dims; f++ {
				pl.Quantizer.EncodeColumnInto(codes[f*n:f*n+n], f, col[f*n:f*n+n])
			}
			pl.MatchColumns(dst[:n], codes, n, n, &scratch)
			acc += dst[0]
		}
		sinkInt += acc
	})
}

// flMatchCost measures the blue-path FL match on the workload's own
// flow-level vectors: each flow's registers (flow[i] is packet i's
// flow) cut every n packets, the rest at the end of the prefix.
func flMatchCost(fl *rules.CompiledRuleSet, pkts []netpkt.Packet, flow []int32) float64 {
	const dims = features.FLDim
	states := map[int32]*features.FlowState{}
	var vecs []float64
	var v [dims]float64
	for i := range pkts {
		st := states[flow[i]]
		if st == nil {
			st = &features.FlowState{}
			states[flow[i]] = st
		}
		st.Add(&pkts[i])
		if st.Count == pktThreshold {
			vecs = append(vecs, st.VectorInto(v[:])...)
			*st = features.FlowState{}
		}
	}
	for _, st := range states {
		if st.Count > 0 {
			vecs = append(vecs, st.VectorInto(v[:])...)
		}
	}
	n := len(vecs) / dims
	return medianNSPerItem(n, func() {
		acc := 0
		for i := 0; i < n; i++ {
			acc += fl.Match(vecs[i*dims : (i+1)*dims])
		}
		sinkInt += acc
	})
}
