package serve

// This file is the server's stream ingest: Replay reads a Source on
// one goroutine, computes each packet's canonical flow key and key
// fold on decode workers, and serves the decoded batches to one
// consumer per producer lane, so parsing and key folding run
// concurrently with the lanes' routing and the shards' matching.

import (
	"context"
	"errors"
	"io"
	"sync"

	"iguard/internal/features"
	"iguard/internal/netpkt"
)

// replayReadLen is the smallest read Replay makes: servers with
// BatchSize below it still read this many packets per Source call, so
// a small batch size does not also shrink every pipeline stage's unit.
const replayReadLen = 64

// decodedBatch is one pipeline hand-off unit: packets read from the
// source with their canonical flow keys and key folds, parallel
// slice-for-slice (keys and folds keep full length; the first
// len(pkts) entries are valid).
type decodedBatch struct {
	pkts  []netpkt.Packet
	keys  []features.FlowKey
	folds []uint32
}

// parallelBatchSource fans one Source (not required to be safe for
// concurrent use — a single reader goroutine owns it) across decode
// workers and serves the decoded batches to any number of consumers.
// It runs until the source ends or ctx is done: consumers loop next
// and hand each consumed batch back on free; once the stream ends,
// every consumer's next returns the source's final error (io.EOF for a
// clean end), or ctx's error after cancellation.
type parallelBatchSource struct {
	ctx  context.Context
	free chan *decodedBatch // pooled buffers; capacity covers the pool
	fill chan *decodedBatch // read, not yet decoded
	out  chan *decodedBatch // decoded, ready for a consumer

	// wg counts the reader and the decode workers; out closes once all
	// have exited.
	wg sync.WaitGroup

	// err is the reader's final error. It is written before the reader
	// calls wg.Done, and consumers read it only after out closes, which
	// happens after wg.Wait — a happens-before chain, no lock needed.
	err error
}

// newParallelBatchSource starts a reader and the given number of
// decode workers over src, with depth pooled buffers of size packets
// each. The pool bounds how far the reader runs ahead of the
// consumers: it blocks on an empty pool, which is the backpressure.
// The source is owned by the pipeline from here on and is not closed
// by it.
func newParallelBatchSource(ctx context.Context, src Source, workers, size, depth int) *parallelBatchSource {
	ps := &parallelBatchSource{
		ctx:  ctx,
		free: make(chan *decodedBatch, depth),
		fill: make(chan *decodedBatch, depth),
		out:  make(chan *decodedBatch, depth),
	}
	for i := 0; i < depth; i++ {
		ps.free <- &decodedBatch{
			pkts:  make([]netpkt.Packet, size),
			keys:  make([]features.FlowKey, size),
			folds: make([]uint32, size),
		}
	}
	ps.wg.Add(workers + 1)
	for i := 0; i < workers; i++ {
		go ps.decodeWorker()
	}
	go ps.reader(src)
	go func() {
		ps.wg.Wait()
		close(ps.out)
	}()
	return ps
}

// reader is the single goroutine that touches src: it fills pooled
// buffers from the source and hands them to the decode workers. On
// the source's end or error, or on cancellation, it records the
// final error and closes fill, which winds the workers down in order.
func (ps *parallelBatchSource) reader(src Source) {
	defer ps.wg.Done()
	defer close(ps.fill)
	var db *decodedBatch
	for {
		if db == nil {
			select {
			case db = <-ps.free:
			case <-ps.ctx.Done():
				ps.err = ps.ctx.Err()
				return
			}
		}
		n, err := src.NextBatch(db.pkts[:cap(db.pkts)])
		if n > 0 {
			db.pkts = db.pkts[:n]
			select {
			case ps.fill <- db:
				db = nil
			case <-ps.ctx.Done():
				ps.err = ps.ctx.Err()
				return
			}
		}
		if err != nil {
			ps.err = err // io.EOF for a clean end; every consumer sees it
			return
		}
	}
}

// decodeWorker computes canonical keys and folds for read batches —
// the producer-side share of the packet pipeline, moved off the
// ingest lanes so it overlaps them.
func (ps *parallelBatchSource) decodeWorker() {
	defer ps.wg.Done()
	for db := range ps.fill {
		for i := range db.pkts {
			db.folds[i] = features.PacketFold(&db.pkts[i])
			features.CanonicalInto(&db.keys[i], &db.pkts[i])
		}
		select {
		case ps.out <- db:
		case <-ps.ctx.Done():
			return
		}
	}
}

// next returns the next decoded batch, owned by the caller until it
// sends it back on free. With one worker and one consumer, batches
// arrive in source order; with several of either, order across batches
// is unspecified (that is the concurrency).
func (ps *parallelBatchSource) next() (*decodedBatch, error) {
	if err := ps.ctx.Err(); err != nil {
		return nil, err
	}
	select {
	case db, ok := <-ps.out:
		if !ok {
			return nil, ps.err
		}
		return db, nil
	case <-ps.ctx.Done():
		return nil, ps.ctx.Err()
	}
}

// Replay pumps src through every ingest lane at once until the stream
// ends, a source or ingest error, or ctx cancellation, and returns how
// many packets the lanes accepted — shed ones included; the Drop
// policy counts those in Stats.QueueDrops. A reader goroutine and one
// decode worker per lane read and fold the stream off the lanes'
// goroutines, and each lane consumes decoded batches, ingests them,
// and flushes its pending tail at end of stream. The error is the
// failing lane's (errors.Join when several fail); cancellation
// returns ctx's error. With one lane the replay is a pipeline in
// source order, byte-identical to driving that lane's IngestBatch
// directly; with more, packets interleave across lanes batch by batch
// and decisions follow the per-lane ordering contract (see
// Config.OnDecision). Replay occupies every lane, so the caller must
// not drive a Producer concurrently with it. After a cancellation or
// a lane's failure, Replay returns without waiting for a Source read
// in progress; the reader goroutine exits when that read returns.
func (s *Server) Replay(ctx context.Context, src Source) (accepted uint64, err error) {
	ctx, cancel := context.WithCancel(ctx)
	defer cancel() // stops the reader and workers when a lane fails early
	lanes := len(s.producers)
	// One in-flight buffer per pipeline stage per lane keeps every
	// stage busy without unbounded read-ahead.
	ps := newParallelBatchSource(ctx, src, lanes, max(s.cfg.BatchSize, replayReadLen), 3*lanes+1)

	var (
		mu   sync.Mutex
		errs []error
		wg   sync.WaitGroup
	)
	wg.Add(lanes)
	for _, p := range s.producers {
		go func(p *Producer) {
			defer wg.Done()
			a, lerr := p.replay(ps)
			mu.Lock()
			accepted += a
			if lerr != nil {
				errs = append(errs, lerr)
			}
			mu.Unlock()
		}(p)
	}
	wg.Wait()
	if len(errs) == 1 {
		return accepted, errs[0]
	}
	return accepted, errors.Join(errs...)
}

// replay is one lane's consumer loop: it ingests decoded batches until
// the stream ends, then flushes the lane's pending tail.
func (p *Producer) replay(ps *parallelBatchSource) (accepted uint64, err error) {
	for {
		db, err := ps.next()
		if err == io.EOF {
			return accepted, p.Flush()
		}
		if err != nil {
			return accepted, err
		}
		n := len(db.pkts)
		err = p.ingestDecoded(db.pkts, db.keys[:n], db.folds[:n])
		ps.free <- db // never blocks: free's capacity covers the pool
		if err != nil {
			return accepted, err
		}
		accepted += uint64(n)
	}
}
