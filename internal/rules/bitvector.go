package rules

import "sort"

// This file implements the bit-vector packet-classification index
// (Lakshman–Stiliadis) that makes CompiledRuleSet matching constant
// time in the rule count modulo a word-wise AND: the software analogue
// of the single TCAM lookup the paper's whitelist costs on hardware.
//
// Layout. For each feature the rule ranges are projected onto the
// quantised axis, cutting it into at most 2R+1 elementary intervals
// (every rule edge is an interval boundary, so rule membership is
// uniform within an interval). Each interval owns a bitmap of
// ceil(R/64) words with bit r set when rule r's range covers the whole
// interval. A lookup resolves each feature's code to its interval —
// one direct table load for switch-realistic bit widths, a binary
// search over the ≤2R+1 boundaries for wider fields — and ANDs the
// per-feature bitmaps word by word. Any surviving bit is a whitelist
// rule containing the code vector, which is exactly the linear scan's
// acceptance condition, so verdicts are identical by construction at
// every bit width.

// bvMaxDims bounds the stack-allocated per-feature interval buffer in
// MatchCodes. Rule sets wider than this (none exist in iGuard: FL is
// 13-dimensional, PL is 4) match via the linear fallback.
const bvMaxDims = 32

// bvDirectLevelCap is the largest per-feature level count that gets a
// direct code→interval table (4 B per level; 256 KiB per feature at 16
// bits). Wider fields — e.g. the library default of 20 bits — locate
// intervals by binary search instead, keeping the index O(R) per
// feature instead of O(2^bits).
const bvDirectLevelCap = 1 << 16

// bvFeature is one feature's slice of the index.
type bvFeature struct {
	// levels is the feature's quantisation level count; codes at or
	// beyond it lie outside every rule range.
	levels uint64
	// nivs is the elementary-interval count (== len(bounds)).
	nivs int
	// bitmaps holds the elementary-interval rule bitmaps flattened
	// word-major: word w of interval j lives at bitmaps[w*nivs+j].
	bitmaps []uint64
	// direct maps code → elementary-interval index; nil when levels
	// exceeds bvDirectLevelCap.
	direct []uint32
	// bounds holds the sorted interval start codes (bounds[0] == 0),
	// searched when direct is nil.
	bounds []uint64
}

// locate resolves a code (< levels) to its elementary-interval index.
func (f *bvFeature) locate(code uint64) uint32 {
	if f.direct != nil {
		return f.direct[code]
	}
	// Greatest j with bounds[j] <= code; bounds[0] == 0 anchors it.
	lo, hi := 0, len(f.bounds)-1
	for lo < hi {
		mid := int(uint(lo+hi+1) >> 1)
		if f.bounds[mid] <= code {
			lo = mid
		} else {
			hi = mid - 1
		}
	}
	return uint32(lo)
}

// bvIndex is the whole-ruleset bit-vector index.
type bvIndex struct {
	// words is the bitmap width: ceil(len(rules)/64).
	words int
	feats []bvFeature
}

// bytes reports the index's memory footprint.
func (ix *bvIndex) bytes() int {
	total := 0
	for i := range ix.feats {
		f := &ix.feats[i]
		total += 8*len(f.bitmaps) + 4*len(f.direct) + 8*len(f.bounds)
	}
	return total
}

// buildBVIndex constructs the index for the compiled rules, or returns
// nil when the shape is outside what the matcher handles (no rules,
// degenerate dimensionality, or a rule whose range count disagrees
// with the quantizer) — MatchCodes then uses the linear scan.
func buildBVIndex(rs []TCAMRule, q *Quantizer) *bvIndex {
	dims := len(q.Bits)
	if len(rs) == 0 || dims == 0 || dims > bvMaxDims {
		return nil
	}
	for _, r := range rs {
		if len(r.Ranges) != dims {
			return nil
		}
	}
	words := (len(rs) + 63) / 64
	ix := &bvIndex{words: words, feats: make([]bvFeature, dims)}
	starts := make([]uint64, 0, 2*len(rs)+1)
	for i := 0; i < dims; i++ {
		levels := q.Levels(i)
		// Every rule edge starts an elementary interval; so does 0.
		starts = starts[:0]
		starts = append(starts, 0)
		for _, r := range rs {
			rg := r.Ranges[i]
			if rg.Lo > 0 && rg.Lo < levels {
				starts = append(starts, rg.Lo)
			}
			if rg.Hi+1 < levels {
				starts = append(starts, rg.Hi+1)
			}
		}
		sort.Slice(starts, func(a, b int) bool { return starts[a] < starts[b] })
		uniq := starts[:1]
		for _, s := range starts[1:] {
			if s != uniq[len(uniq)-1] {
				uniq = append(uniq, s)
			}
		}
		f := &ix.feats[i]
		f.levels = levels
		f.nivs = len(uniq)
		f.bounds = append([]uint64(nil), uniq...)
		f.bitmaps = make([]uint64, len(uniq)*words)
		for ri, r := range rs {
			rg := r.Ranges[i]
			// Intervals whose start lies in [Lo, Hi] are fully covered:
			// Hi+1 is itself a boundary, so no interval straddles it.
			for j := range f.bounds {
				if f.bounds[j] >= rg.Lo && f.bounds[j] <= rg.Hi {
					f.bitmaps[(ri/64)*f.nivs+j] |= 1 << (ri % 64)
				}
			}
		}
		if levels <= bvDirectLevelCap {
			f.direct = make([]uint32, levels)
			j := 0
			for code := uint64(0); code < levels; code++ {
				for j+1 < len(f.bounds) && f.bounds[j+1] <= code {
					j++
				}
				f.direct[code] = uint32(j)
			}
		}
	}
	return ix
}
