package rules

import (
	"encoding/binary"
	"fmt"
	"math"
)

// Quantizer maps continuous feature values into the integer domain a
// switch matches on: feature i spans [Min[i], Max[i]] and is encoded as
// a Bits[i]-bit unsigned integer.
type Quantizer struct {
	Min  []float64
	Max  []float64
	Bits []int
}

// NewQuantizer builds a quantizer with uniform bit width for every
// feature over the given per-feature ranges.
func NewQuantizer(min, max []float64, bits int) *Quantizer {
	if len(min) != len(max) {
		panic(fmt.Sprintf("rules: quantizer bounds mismatch %d vs %d", len(min), len(max)))
	}
	b := make([]int, len(min))
	for i := range b {
		b[i] = bits
	}
	return &Quantizer{Min: append([]float64(nil), min...), Max: append([]float64(nil), max...), Bits: b}
}

// Levels returns the number of quantisation levels for feature i.
func (q *Quantizer) Levels(i int) uint64 { return uint64(1) << q.Bits[i] }

// Encode maps value v of feature i into [0, 2^bits−1], clamping
// out-of-range values.
func (q *Quantizer) Encode(i int, v float64) uint64 {
	span := q.Max[i] - q.Min[i]
	if span <= 0 {
		return 0
	}
	levels := float64(q.Levels(i))
	code := math.Floor((v - q.Min[i]) / span * levels)
	if code < 0 {
		code = 0
	}
	if code > levels-1 {
		code = levels - 1
	}
	return uint64(code)
}

// Decode returns the lower edge of code's quantisation bucket for
// feature i.
func (q *Quantizer) Decode(i int, code uint64) float64 {
	span := q.Max[i] - q.Min[i]
	return q.Min[i] + float64(code)/float64(q.Levels(i))*span
}

// EncodeVector quantises a whole feature vector.
func (q *Quantizer) EncodeVector(x []float64) []uint64 {
	return q.EncodeVectorInto(make([]uint64, len(x)), x)
}

// EncodeVectorInto quantises x into dst, which must have capacity at
// least len(x), and returns dst[:len(x)]. It is the allocation-free
// form of EncodeVector for per-packet hot paths with caller-owned
// scratch.
//
//iguard:hotpath
func (q *Quantizer) EncodeVectorInto(dst []uint64, x []float64) []uint64 {
	dst = dst[:len(x)]
	for i, v := range x {
		dst[i] = q.Encode(i, v)
	}
	return dst
}

// IntRange is an inclusive integer range [Lo, Hi] over a quantised
// feature.
type IntRange struct {
	Lo, Hi uint64
}

// TCAMRule is one whitelist rule quantised to integer ranges.
type TCAMRule struct {
	Ranges []IntRange
	Label  int
}

// QuantizeRule converts a hypercube rule into integer ranges under q by
// snapping each box edge to its *nearest* bucket boundary. Adjacent
// cells share edges, so snapping keeps the quantised arrangement
// watertight: no cracks between benign cells and no swallowing of
// malicious slivers wider than half a bucket — mislabels are confined
// to within half a bucket of true region edges. Returns ok=false when
// the box collapses to an empty range at this bit width (sub-bucket
// rules vanish; their space falls to the malicious default).
func QuantizeRule(r Rule, q *Quantizer) (TCAMRule, bool) {
	out := TCAMRule{Label: r.Label, Ranges: make([]IntRange, len(r.Box))}
	for i, iv := range r.Box {
		span := q.Max[i] - q.Min[i]
		levels := int64(q.Levels(i))
		if span <= 0 {
			out.Ranges[i] = IntRange{Lo: 0, Hi: uint64(levels - 1)}
			continue
		}
		bucket := span / float64(levels)
		loB := int64(math.Round((iv.Lo - q.Min[i]) / bucket))
		hiB := int64(math.Round((iv.Hi - q.Min[i]) / bucket))
		if loB < 0 {
			loB = 0
		}
		if hiB > levels {
			hiB = levels
		}
		if hiB <= loB {
			return TCAMRule{}, false
		}
		out.Ranges[i] = IntRange{Lo: uint64(loB), Hi: uint64(hiB - 1)}
	}
	return out, true
}

// Prefix is a ternary match value/mask pair of the given bit width.
type Prefix struct {
	Value uint64
	// MaskBits is the number of leading exact bits; the remaining
	// width−MaskBits bits are wildcards.
	MaskBits int
}

// RangeToPrefixes expands an inclusive integer range into the minimal
// set of prefixes covering it — the classic TCAM range-expansion
// algorithm. A w-bit range expands into at most 2w−2 prefixes.
func RangeToPrefixes(r IntRange, width int) []Prefix {
	var out []Prefix
	lo, hi := r.Lo, r.Hi
	if hi < lo {
		return nil
	}
	max := uint64(1)<<width - 1
	for lo <= hi {
		// Largest block starting at lo, aligned and within [lo, hi].
		size := uint64(1)
		for {
			next := size << 1
			if next == 0 || lo&(next-1) != 0 || lo+next-1 > hi {
				break
			}
			size = next
		}
		bits := 0
		for s := size; s > 1; s >>= 1 {
			bits++
		}
		out = append(out, Prefix{Value: lo, MaskBits: width - bits})
		if lo+size-1 == max {
			break // would overflow
		}
		lo += size
	}
	return out
}

// Valid reports whether the prefix is well-formed at the given width:
// the mask length lies in [0, width], width is representable, the value
// fits the width, and every wildcarded (low) bit of the value is zero.
func (p Prefix) Valid(width int) bool {
	if width < 1 || width > 63 || p.MaskBits < 0 || p.MaskBits > width {
		return false
	}
	if p.Value >= uint64(1)<<width {
		return false
	}
	wild := uint64(1)<<(width-p.MaskBits) - 1
	return p.Value&wild == 0
}

// Range returns the inclusive integer interval a valid prefix covers.
func (p Prefix) Range(width int) IntRange {
	size := uint64(1) << (width - p.MaskBits)
	base := p.Value &^ (size - 1)
	return IntRange{Lo: base, Hi: base + size - 1}
}

// MaxRangeExpansion returns the worst-case prefix count of expanding
// one w-bit range: the classic 2w−2 bound (1 for w ≤ 1).
func MaxRangeExpansion(width int) int {
	if width <= 1 {
		return 1
	}
	return 2*width - 2
}

// PrefixesCoverExactly reports whether ps tiles exactly [r.Lo, r.Hi]:
// every prefix valid at the width, blocks contiguous in ascending
// order with no overlap, and the union equal to the range. This is the
// introspection hook p4lint uses to verify emitted rule entries against
// the expansion that should have produced them.
func PrefixesCoverExactly(ps []Prefix, width int, r IntRange) bool {
	if r.Hi < r.Lo || len(ps) == 0 {
		return len(ps) == 0 && r.Hi < r.Lo
	}
	next := r.Lo
	for i, p := range ps {
		if !p.Valid(width) {
			return false
		}
		pr := p.Range(width)
		if pr.Lo != next {
			return false
		}
		if pr.Hi == r.Hi {
			return i == len(ps)-1
		}
		if pr.Hi > r.Hi {
			return false
		}
		next = pr.Hi + 1
	}
	return false
}

// TCAMEntries returns the number of TCAM entries rule r occupies after
// per-field prefix expansion: the product of per-field prefix counts
// (multi-field ranges cross-multiply in a prefix-encoded TCAM).
func TCAMEntries(r TCAMRule, q *Quantizer) int {
	entries := 1
	for i, rg := range r.Ranges {
		// Full-range fields cost a single wildcard entry.
		if rg.Lo == 0 && rg.Hi == q.Levels(i)-1 {
			continue
		}
		n := len(RangeToPrefixes(rg, q.Bits[i]))
		if n == 0 {
			return 0
		}
		entries *= n
	}
	return entries
}

// CompiledRuleSet is a rule set quantised for switch installation.
type CompiledRuleSet struct {
	Rules        []TCAMRule
	Quantizer    *Quantizer
	DefaultLabel int
	// TotalEntries is the TCAM entry count after prefix expansion.
	TotalEntries int
	// KeyBits is the total match-key width (Σ feature bits).
	KeyBits int
	// bv is the bit-vector match index built by Compile; nil (e.g. on a
	// hand-assembled set) falls back to the linear scan.
	bv *bvIndex
}

// BVIndexBytes reports the memory footprint of the bit-vector match
// index in bytes, or 0 when the set matches via the linear scan.
func (c *CompiledRuleSet) BVIndexBytes() int {
	if c.bv == nil {
		return 0
	}
	return c.bv.bytes()
}

// MatcherKind names the active match implementation: "bitvector" when
// Compile built the constant-time index, "linear" otherwise.
func (c *CompiledRuleSet) MatcherKind() string {
	if c.bv == nil {
		return "linear"
	}
	return "bitvector"
}

// Compile quantises the rule set under q, drops rules that vanish at
// this resolution, and accounts TCAM entries. Only whitelist (label 0)
// rules are installed; everything else defaults to the malicious label,
// matching the paper's whitelist deployment.
func Compile(rs *RuleSet, q *Quantizer) *CompiledRuleSet {
	out := &CompiledRuleSet{Quantizer: q, DefaultLabel: 1}
	for _, b := range q.Bits {
		out.KeyBits += b
	}
	// Deduplicate rules that collapse to identical integer ranges. The
	// key is the raw little-endian range encoding: cheap, and stable by
	// construction rather than by fmt formatting convention. keyBuf is
	// reused across rules; the map only copies it on insert (Go elides
	// the string conversion for lookups).
	seen := map[string]bool{}
	var keyBuf []byte
	for _, r := range rs.Rules {
		if r.Label != 0 {
			continue
		}
		tr, ok := QuantizeRule(r, q)
		if !ok {
			continue
		}
		keyBuf = keyBuf[:0]
		for _, rg := range tr.Ranges {
			keyBuf = binary.LittleEndian.AppendUint64(keyBuf, rg.Lo)
			keyBuf = binary.LittleEndian.AppendUint64(keyBuf, rg.Hi)
		}
		if seen[string(keyBuf)] {
			continue
		}
		seen[string(keyBuf)] = true
		out.Rules = append(out.Rules, tr)
		out.TotalEntries += TCAMEntries(tr, q)
	}
	out.bv = buildBVIndex(out.Rules, q)
	return out
}

// RangeKeyBits returns the TCAM key width of one rule under
// Tofino-style 4-bit nibble range encoding (DIRPE): each b-bit range
// field occupies ceil(b/4) nibbles of 16 one-hot bits, letting every
// rule install as a single TCAM entry instead of a per-field prefix
// cross-product.
func (c *CompiledRuleSet) RangeKeyBits() int {
	const bitsPerNibble = 16
	total := 0
	for _, b := range c.Quantizer.Bits {
		total += (b + 3) / 4 * bitsPerNibble
	}
	return total
}

// Match returns 0 when the quantised x falls in any installed whitelist
// rule, else the default (malicious) label. A NaN feature value matches
// no rule, so x holding one gets the default label on every platform
// (Go leaves uint64(NaN), and so Encode of NaN, to the platform).
// When every feature has float thresholds (see bitvector.go; features
// wider than 16 bits with a finite span, as at the default 20 bits),
// Match locates each feature's interval from the raw value and walks
// the index as MatchCodes does; otherwise it quantises x and asks
// MatchCodes, whose direct code tables serve the narrower features.
// The choice is made once per rule set, not per feature: a branch per
// feature in the walk cost whitelisted vectors 12–32% in
// BenchmarkMatchFloat's pl/ and fl/ hit streams. Either way the verdict is MatchCodes'
// on the quantised vector, and the call is allocation-free on every
// iGuard feature space.
//
//iguard:hotpath
func (c *CompiledRuleSet) Match(x []float64) int {
	if len(x) > bvMaxDims {
		return c.matchWide(x)
	}
	ix := c.bv
	if ix == nil || !ix.floatThresholds {
		if hasNaN(x) {
			return c.DefaultLabel
		}
		var buf [bvMaxDims]uint64
		return c.MatchCodes(c.Quantizer.EncodeVectorInto(buf[:], x))
	}
	feats, words := ix.feats, ix.words
	var rowBuf [bvMaxDims]uint32
	rows := rowBuf[:len(feats)]
	located := 0
	for w := 0; w < words; w++ {
		acc := ^uint64(0)
		i := 0
		for ; i < located; i++ {
			if acc &= feats[i].bitmaps[int(rows[i])*words+w]; acc == 0 {
				break
			}
		}
		if acc == 0 {
			continue
		}
		for ; i < len(feats); i++ {
			v := x[i]
			if math.IsNaN(v) {
				return c.DefaultLabel
			}
			f := &feats[i]
			rows[i] = f.locateFloat(v)
			located++
			if acc &= f.bitmaps[int(rows[i])*words+w]; acc == 0 {
				break
			}
		}
		if acc != 0 {
			return 0
		}
	}
	return c.DefaultLabel
}

// matchWide handles vectors wider than the stack buffer. No iGuard
// feature space is this wide (FL is 13, PL is 4), so the allocation is
// off the per-packet contract.
//
//iguard:coldpath only reachable for >bvMaxDims-dimensional vectors
func (c *CompiledRuleSet) matchWide(x []float64) int {
	if hasNaN(x) {
		return c.DefaultLabel
	}
	return c.MatchCodes(c.Quantizer.EncodeVector(x))
}

// hasNaN reports whether any value of x is NaN.
func hasNaN(x []float64) bool {
	for _, v := range x {
		if math.IsNaN(v) {
			return true
		}
	}
	return false
}

// MatchCodes is Match over already-quantised feature codes, the form the
// switch data plane actually sees. With the bit-vector index (built by
// Compile) it walks the bitmap one 64-rule word at a time. For each
// word it ANDs, feature by feature in order, the word of the feature's
// interval bitmap into an accumulator, and moves to the next word the
// moment the accumulator is empty. A feature's interval is located the
// first time the walk reaches the feature and kept for the later
// words, so a vector whose first features rule out every rule, the
// usual whitelist miss, never locates the rest, and no feature is
// located twice. A bit surviving every feature is a rule covering the
// vector. A code out of its feature's domain misses every rule and
// ends the walk with the default label; a feature the walk never
// reaches cannot change a verdict the accumulator already decided.
// The cost is at most one interval lookup per feature plus a word-wise
// AND over ceil(rules/64)-word bitmaps — no per-rule branching, the
// software analogue of the hardware's single TCAM lookup.
//
//iguard:hotpath
func (c *CompiledRuleSet) MatchCodes(codes []uint64) int {
	ix := c.bv
	if ix == nil {
		return c.matchCodesLinear(codes)
	}
	feats, words := ix.feats, ix.words
	var rowBuf [bvMaxDims]uint32
	rows := rowBuf[:len(feats)]
	located := 0
	for w := 0; w < words; w++ {
		acc := ^uint64(0)
		i := 0
		for ; i < located; i++ {
			if acc &= feats[i].bitmaps[int(rows[i])*words+w]; acc == 0 {
				break
			}
		}
		if acc == 0 {
			continue
		}
		for ; i < len(feats); i++ {
			f := &feats[i]
			// Quantised rule ranges never extend past the level count,
			// so an out-of-domain code misses every rule.
			if codes[i] >= f.levels {
				return c.DefaultLabel
			}
			rows[i] = f.locate(codes[i])
			located++
			if acc &= f.bitmaps[int(rows[i])*words+w]; acc == 0 {
				break
			}
		}
		if acc != 0 {
			return 0
		}
	}
	return c.DefaultLabel
}

// matchCodesLinear is the reference O(rules × features) scan, kept as
// the fallback for hand-assembled sets and as the oracle the
// differential tests pin the bit-vector matcher against.
func (c *CompiledRuleSet) matchCodesLinear(codes []uint64) int {
	for _, r := range c.Rules {
		hit := true
		for i, rg := range r.Ranges {
			if codes[i] < rg.Lo || codes[i] > rg.Hi {
				hit = false
				break
			}
		}
		if hit {
			return 0
		}
	}
	return c.DefaultLabel
}
