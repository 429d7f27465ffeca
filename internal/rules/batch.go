package rules

// This file is the batch face of the matcher: MatchColumns answers a
// batch of quantised vectors laid out feature-major ("columns") by
// gathering each column and asking MatchCodes, so its verdicts are
// MatchCodes' by construction. No serving path calls it — the switch
// matches each packet that needs a PL verdict on its own, through
// Match — but the benchmark's per-layer PL-match timing
// (bench/layers.go) still drives this face with EncodeColumnInto.

// BatchScratch is the scratch argument of MatchColumns. The gather
// keeps no state between columns, so the type is empty; it remains so
// MatchColumns keeps the signature its benchmark caller uses.
type BatchScratch struct{}

// EncodeColumnInto quantises one feature's values for a whole batch:
// dst[j] = Encode(feature, vals[j]). dst must have capacity at least
// len(vals). It is the feature-major companion of EncodeVectorInto.
//
//iguard:hotpath
func (q *Quantizer) EncodeColumnInto(dst []uint64, feature int, vals []float64) []uint64 {
	dst = dst[:len(vals)]
	for j, v := range vals {
		dst[j] = q.Encode(feature, v)
	}
	return dst
}

// MatchColumns matches n quantised vectors at once, writing each
// column's verdict (0 whitelisted, else the default label) into
// dst[:n]. codes is feature-major: feature f's code for column i is
// codes[f*stride+i], so a batch quantised with EncodeColumnInto at
// stride n plugs in directly. Each column is gathered into a stack
// buffer and answered by MatchCodes, so verdicts are exactly
// MatchCodes' and the call is allocation-free on every iGuard feature
// space. The scratch argument is unused (see BatchScratch).
//
//iguard:hotpath
func (c *CompiledRuleSet) MatchColumns(dst []int, codes []uint64, stride, n int, _ *BatchScratch) {
	dims := len(c.Quantizer.Bits)
	var stack [bvMaxDims]uint64
	buf := stack[:]
	if dims > bvMaxDims {
		buf = wideCodes(dims)
	}
	buf = buf[:dims]
	for i := 0; i < n; i++ {
		for f := range buf {
			buf[f] = codes[f*stride+i]
		}
		dst[i] = c.MatchCodes(buf)
	}
}

// wideCodes allocates the gather buffer for vectors wider than the
// stack buffer. No iGuard feature space is this wide (FL is 13, PL is
// 4), so the allocation is off the per-packet contract.
//
//iguard:coldpath only reachable for >bvMaxDims-dimensional vectors
func wideCodes(dims int) []uint64 { return make([]uint64, dims) }
