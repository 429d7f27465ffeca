package rules

import (
	"math"
	"math/bits"
	"sort"
)

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
// interval. A lookup takes the features in order: it resolves each
// feature's code to its interval — one direct table load for
// switch-realistic bit widths, a binary search over the ≤2R+1
// boundaries for wider fields — and ANDs that interval's bitmap into
// an accumulator as soon as it has located it, one 64-rule word at a
// time, stopping as soon as no rule of the word survives (see
// CompiledRuleSet.MatchCodes). Any bit surviving every feature is a
// whitelist rule containing the code vector, which is exactly the
// linear scan's acceptance condition, so verdicts are identical by
// construction at every bit width; a vector whose first features
// already rule out every rule (the usual miss) never locates the
// rest.
//
// Float thresholds. A feature without a direct table also keeps, for
// each interval start code b, the least float64 that Quantizer.Encode
// maps to b or above. Encode is monotone, so x lies in interval j
// exactly when j is the greatest index whose threshold is ≤ x, and
// Match can binary-search the raw feature value without quantising it:
// no divide, no floor, the same verdict. Thresholds are stored as
// order-preserving integer keys of the floats (orderedKey), so the
// search is the same integer search as over codes.

// bvMaxDims bounds the dimensionality the index serves, and so the
// stack-allocated buffers of Match and MatchCodes (codes, intervals).
// Rule sets wider than this (none exist in iGuard: FL is
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
	// bitmaps holds the elementary-interval rule bitmaps flattened
	// interval-major: word w of interval j lives at bitmaps[j*words+w],
	// so one interval's words are adjacent.
	bitmaps []uint64
	// direct maps code → elementary-interval index; nil when levels
	// exceeds bvDirectLevelCap.
	direct []uint32
	// bounds holds the sorted interval start codes (bounds[0] == 0),
	// searched when direct is nil.
	bounds []uint64
	// thresholds holds, for each interval start bounds[j] that some
	// value reaches, the orderedKey of the least float64 that Encode
	// maps to bounds[j] or above (thresholds[0] is -Inf's key). Starts
	// no value reaches (all of them but 0 when the feature's span is
	// ≤ 0) are left off the end. It is nil when direct is set or when
	// Encode is not monotone for the feature (a non-finite span), and
	// Match then quantises.
	thresholds []uint64
}

// locate resolves a code (< levels) to its elementary-interval index.
func (f *bvFeature) locate(code uint64) uint32 {
	if f.direct != nil {
		return f.direct[code]
	}
	return lastAtMost(f.bounds, code)
}

// locateFloat resolves a feature value (not NaN) to its
// elementary-interval index via thresholds: the same interval locate
// finds for the value's code.
func (f *bvFeature) locateFloat(v float64) uint32 {
	return lastAtMost(f.thresholds, orderedKey(v))
}

// lastAtMost returns the greatest j with s[j] <= x, for s sorted
// ascending with s[0] <= x. Each step halves the candidate run and
// moves its base by arithmetic on the borrow of x − s[mid] rather than
// by a branch, so a search over random values pays no mispredictions.
func lastAtMost(s []uint64, x uint64) uint32 {
	base, n := uint(0), uint(len(s))
	for n > 1 {
		half := n / 2
		_, borrow := bits.Sub64(x, s[base+half], 0) // 1 iff x < s[mid]
		base += half & (uint(borrow) - 1)
		n -= half
	}
	return uint32(base)
}

// bvIndex is the whole-ruleset bit-vector index.
type bvIndex struct {
	// words is the bitmap width: ceil(len(rules)/64).
	words int
	feats []bvFeature
	// floatThresholds reports that every feature has thresholds, so
	// that Match can locate a float vector without quantising it.
	floatThresholds bool
}

// bytes reports the index's memory footprint.
func (ix *bvIndex) bytes() int {
	total := 0
	for i := range ix.feats {
		f := &ix.feats[i]
		total += 8*len(f.bitmaps) + 4*len(f.direct) + 8*len(f.bounds) + 8*len(f.thresholds)
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
	ix := &bvIndex{words: words, feats: make([]bvFeature, dims), floatThresholds: true}
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
		f.bounds = append([]uint64(nil), uniq...)
		f.bitmaps = make([]uint64, len(uniq)*words)
		for ri, r := range rs {
			rg := r.Ranges[i]
			// Intervals whose start lies in [Lo, Hi] are fully covered:
			// Hi+1 is itself a boundary, so no interval straddles it.
			for j := range f.bounds {
				if f.bounds[j] >= rg.Lo && f.bounds[j] <= rg.Hi {
					f.bitmaps[j*words+ri/64] |= 1 << (ri % 64)
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
		} else {
			f.thresholds = floatThresholds(q, i, f.bounds)
		}
		ix.floatThresholds = ix.floatThresholds && f.thresholds != nil
	}
	return ix
}

// floatThresholds returns, for each code in bounds (sorted, bounds[0]
// == 0), the orderedKey of the least float64 x with q.Encode(i, x) >=
// code, stopping at the first code no value reaches. It returns nil
// when the feature's span is not finite: Encode is then not monotone
// (it meets Inf/Inf).
func floatThresholds(q *Quantizer, i int, bounds []uint64) []uint64 {
	span := q.Max[i] - q.Min[i]
	if math.IsInf(span, 0) || math.IsNaN(span) {
		return nil
	}
	levels := float64(q.Levels(i))
	out := make([]uint64, 1, len(bounds))
	out[0] = orderedKey(math.Inf(-1))
	top := q.Encode(i, math.Inf(1))
	for _, b := range bounds[1:] {
		if b > top {
			break
		}
		// Decode's bucket edge is the analytic guess; the search
		// corrects its rounding.
		guess := q.Min[i] + float64(b)/levels*span
		out = append(out, leastReaching(q, i, b, guess))
	}
	return out
}

// orderedKey maps a non-NaN float64 to a uint64 with the same order
// (−0 sorts just below +0): negative floats have every bit flipped,
// the others only the sign bit. orderedFloat is its inverse.
func orderedKey(x float64) uint64 {
	u := math.Float64bits(x)
	return u ^ (uint64(int64(u)>>63) | 1<<63)
}

func orderedFloat(k uint64) float64 {
	if k>>63 != 0 {
		return math.Float64frombits(k &^ (1 << 63))
	}
	return math.Float64frombits(^k)
}

// leastReaching returns the orderedKey of the least float64 x with
// q.Encode(i, x) >= b, for a code b in [1, Encode(+Inf)] and a
// monotone Encode. It gallops from guess in steps of 1, 2, 4, …
// representable floats until it brackets the answer, then bisects the
// bracket, so a guess a few floats off costs a few Encode calls and a
// poor one at most about 128.
func leastReaching(q *Quantizer, i int, b uint64, guess float64) uint64 {
	reaches := func(k uint64) bool { return q.Encode(i, orderedFloat(k)) >= b }
	// Invariant: lo does not reach b, hi does. Encode(-Inf) is 0 < b.
	lo, hi := orderedKey(math.Inf(-1)), orderedKey(math.Inf(1))
	if g := orderedKey(guess); !math.IsNaN(guess) && lo < g && g < hi {
		if reaches(g) {
			hi = g
			for step := uint64(1); hi-lo > step; step *= 2 {
				if c := hi - step; reaches(c) {
					hi = c
				} else {
					lo = c
					break
				}
			}
		} else {
			lo = g
			for step := uint64(1); hi-lo > step; step *= 2 {
				if c := lo + step; reaches(c) {
					hi = c
					break
				}
				lo += step
			}
		}
	}
	for hi-lo > 1 {
		mid := lo + (hi-lo)/2
		if reaches(mid) {
			hi = mid
		} else {
			lo = mid
		}
	}
	return hi
}
