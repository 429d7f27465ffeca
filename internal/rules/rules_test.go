package rules

import (
	"bytes"
	"math"
	"testing"
	"testing/quick"

	"iguard/internal/mathx"
)

func TestIntervalBasics(t *testing.T) {
	iv := Interval{Lo: 1, Hi: 3}
	if !iv.Contains(1) || !iv.Contains(2.9) {
		t.Error("Contains lower edge / interior failed")
	}
	if iv.Contains(3) {
		t.Error("upper edge must be exclusive")
	}
	if iv.Empty() {
		t.Error("non-empty interval reported empty")
	}
	if (Interval{Lo: 2, Hi: 2}).Empty() != true {
		t.Error("zero-width interval should be empty")
	}
	if got := iv.Width(); got != 2 {
		t.Errorf("Width = %v", got)
	}
	if got := iv.Mid(); got != 2 {
		t.Errorf("Mid = %v", got)
	}
	inter := iv.Intersect(Interval{Lo: 2, Hi: 5})
	if inter.Lo != 2 || inter.Hi != 3 {
		t.Errorf("Intersect = %+v", inter)
	}
	if w := (Interval{Lo: 3, Hi: 1}).Width(); w != 0 {
		t.Errorf("negative-width interval Width = %v, want 0", w)
	}
}

func TestBoxBasics(t *testing.T) {
	b := NewBox([]float64{0, 10}, []float64{1, 20})
	if !b.Contains([]float64{0.5, 15}) {
		t.Error("Contains interior failed")
	}
	if b.Contains([]float64{1.5, 15}) {
		t.Error("Contains out-of-range failed")
	}
	if b.Contains([]float64{0.5}) {
		t.Error("dimension mismatch should not match")
	}
	if b.Empty() {
		t.Error("non-empty box reported empty")
	}
	if got := b.Volume(); got != 10 {
		t.Errorf("Volume = %v", got)
	}
	c := b.Center()
	if c[0] != 0.5 || c[1] != 15 {
		t.Errorf("Center = %v", c)
	}
	clone := b.Clone()
	clone[0] = Interval{Lo: 99, Hi: 100}
	if b[0].Lo == 99 {
		t.Error("Clone aliases the original")
	}
	if b.String() == "" {
		t.Error("String is empty")
	}
}

func TestBoxIntersect(t *testing.T) {
	a := NewBox([]float64{0, 0}, []float64{2, 2})
	b := NewBox([]float64{1, 1}, []float64{3, 3})
	inter := a.Intersect(b)
	if inter.Empty() {
		t.Fatal("overlap reported empty")
	}
	if inter[0].Lo != 1 || inter[0].Hi != 2 {
		t.Errorf("intersect dim0 = %+v", inter[0])
	}
	disjoint := NewBox([]float64{5, 5}, []float64{6, 6})
	if !a.Intersect(disjoint).Empty() {
		t.Error("disjoint intersect not empty")
	}
}

func TestFullBox(t *testing.T) {
	b := FullBox(3, 0, 256)
	if len(b) != 3 {
		t.Fatalf("dims = %d", len(b))
	}
	for _, iv := range b {
		if iv.Lo != 0 || iv.Hi != 256 {
			t.Errorf("interval = %+v", iv)
		}
	}
}

// gridLeaves builds a tree's leaf tiling by splitting the universe at
// the given per-dimension cut points.
func gridLeaves(universe Box, cuts [][]float64) []Box {
	boxes := []Box{universe.Clone()}
	for d, ps := range cuts {
		var next []Box
		for _, b := range boxes {
			edges := append([]float64{b[d].Lo}, ps...)
			edges = append(edges, b[d].Hi)
			for i := 0; i+1 < len(edges); i++ {
				if edges[i+1] <= edges[i] {
					continue
				}
				nb := b.Clone()
				nb[d] = Interval{Lo: edges[i], Hi: edges[i+1]}
				next = append(next, nb)
			}
		}
		boxes = next
	}
	return boxes
}

func TestGenerateLabelsAndTiles(t *testing.T) {
	universe := FullBox(2, 0, 10)
	tree1 := gridLeaves(universe, [][]float64{{5}, nil}) // split x at 5
	tree2 := gridLeaves(universe, [][]float64{nil, {3}}) // split y at 3
	classify := func(x []float64) int {
		if x[0] >= 5 && x[1] >= 3 {
			return 1
		}
		return 0
	}
	rs, err := Generate(universe, [][]Box{tree1, tree2}, classify, DefaultGenOptions())
	if err != nil {
		t.Fatal(err)
	}
	if rs.Len() == 0 {
		t.Fatal("no rules generated")
	}
	// The rule set must agree with the classifier everywhere.
	r := mathx.NewRand(2)
	for trial := 0; trial < 500; trial++ {
		x := []float64{r.Float64() * 10, r.Float64() * 10}
		if got, want := rs.Match(x), classify(x); got != want {
			t.Fatalf("Match(%v) = %d, want %d", x, got, want)
		}
	}
	// Merging should reduce the 4-cell partition: three benign cells
	// merge into at most 2 rules plus 1 malicious.
	if rs.Len() > 3 {
		t.Errorf("rules after merge = %d, want <= 3", rs.Len())
	}
	// Exactly one malicious rule.
	mal := 0
	for _, rr := range rs.Rules {
		if rr.Label == 1 {
			mal++
		}
	}
	if mal != 1 {
		t.Errorf("malicious rules = %d, want 1", mal)
	}
}

func TestGenerateMaxCellsError(t *testing.T) {
	universe := FullBox(1, 0, 100)
	var cuts []float64
	for i := 1; i < 100; i++ {
		cuts = append(cuts, float64(i))
	}
	tree := gridLeaves(universe, [][]float64{cuts})
	_, err := Generate(universe, [][]Box{tree}, func([]float64) int { return 0 }, GenOptions{MaxCells: 10})
	if err == nil {
		t.Error("want error when cells exceed MaxCells")
	}
}

func TestGenerateEmptyUniverse(t *testing.T) {
	if _, err := Generate(Box{{Lo: 1, Hi: 1}}, nil, func([]float64) int { return 0 }, DefaultGenOptions()); err == nil {
		t.Error("want error on empty universe")
	}
}

func TestGenerateOutsideTreeBoundsDefaultsMalicious(t *testing.T) {
	// A tree whose leaves only tile part of the universe: the covered
	// region follows the classifier; everything outside defaults to the
	// malicious label (never whitelisted).
	universe := FullBox(1, 0, 10)
	treeBounds := NewBox([]float64{2}, []float64{8})
	leaves := gridLeaves(treeBounds, [][]float64{{5}})
	rs, err := Generate(universe, [][]Box{leaves}, func(x []float64) int { return 0 }, DefaultGenOptions())
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range []float64{2.5, 7.5} {
		if got := rs.Match([]float64{v}); got != 0 {
			t.Errorf("inside Match(%v) = %d, want 0", v, got)
		}
	}
	for _, v := range []float64{0.5, 9.5} {
		if got := rs.Match([]float64{v}); got != 1 {
			t.Errorf("outside Match(%v) = %d, want 1 (default)", v, got)
		}
	}
}

func TestWhitelistAndMerge(t *testing.T) {
	rs := &RuleSet{
		Rules: []Rule{
			{Box: NewBox([]float64{0}, []float64{1}), Label: 0},
			{Box: NewBox([]float64{1}, []float64{2}), Label: 1},
		},
		Dim: 1, DefaultLabel: 1,
	}
	wl := rs.Whitelist()
	if len(wl) != 1 || wl[0].Label != 0 {
		t.Errorf("Whitelist = %+v", wl)
	}
	other := &RuleSet{Rules: []Rule{{Box: NewBox([]float64{5}, []float64{6}), Label: 0}}, Dim: 1, DefaultLabel: 1}
	merged := rs.Merge(other)
	if merged.Len() != 3 {
		t.Errorf("merged Len = %d, want 3", merged.Len())
	}
}

func TestRuleSetJSONRoundTrip(t *testing.T) {
	rs := &RuleSet{
		Rules:        []Rule{{Box: NewBox([]float64{0, 5}, []float64{1, 6}), Label: 0}},
		Dim:          2,
		DefaultLabel: 1,
	}
	var buf bytes.Buffer
	if err := rs.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 1 || got.Dim != 2 || got.DefaultLabel != 1 {
		t.Errorf("round trip = %+v", got)
	}
	if got.Rules[0].Box[1].Lo != 5 {
		t.Errorf("box lost values: %+v", got.Rules[0].Box)
	}
}

func TestReadJSONError(t *testing.T) {
	if _, err := ReadJSON(bytes.NewBufferString("{nope")); err == nil {
		t.Error("want decode error")
	}
}

func TestConsistency(t *testing.T) {
	rs := &RuleSet{
		Rules:        []Rule{{Box: NewBox([]float64{0}, []float64{5}), Label: 0}},
		Dim:          1,
		DefaultLabel: 1,
	}
	forest := func(x []float64) int {
		if x[0] < 5 {
			return 0
		}
		return 1
	}
	samples := [][]float64{{1}, {2}, {6}, {7}}
	if got := Consistency(rs, forest, samples); got != 1 {
		t.Errorf("Consistency = %v, want 1", got)
	}
	disagree := func(x []float64) int { return 1 - forest(x) }
	if got := Consistency(rs, disagree, samples); got != 0 {
		t.Errorf("Consistency = %v, want 0", got)
	}
	if got := Consistency(rs, forest, nil); got != 1 {
		t.Errorf("empty Consistency = %v, want 1", got)
	}
}

func TestMergeAdjacentChain(t *testing.T) {
	// Three benign cells in a row merge to one.
	ruleList := []Rule{
		{Box: NewBox([]float64{0}, []float64{1}), Label: 0},
		{Box: NewBox([]float64{1}, []float64{2}), Label: 0},
		{Box: NewBox([]float64{2}, []float64{3}), Label: 0},
	}
	out := MergeAdjacent(ruleList)
	if len(out) != 1 {
		t.Fatalf("merged = %d rules, want 1", len(out))
	}
	if out[0].Box[0].Lo != 0 || out[0].Box[0].Hi != 3 {
		t.Errorf("merged box = %+v", out[0].Box)
	}
}

func TestMergeAdjacentRespectsLabels(t *testing.T) {
	ruleList := []Rule{
		{Box: NewBox([]float64{0}, []float64{1}), Label: 0},
		{Box: NewBox([]float64{1}, []float64{2}), Label: 1},
	}
	out := MergeAdjacent(ruleList)
	if len(out) != 2 {
		t.Errorf("different labels merged: %d rules", len(out))
	}
}

func TestMergeAdjacentNonAdjacent(t *testing.T) {
	ruleList := []Rule{
		{Box: NewBox([]float64{0}, []float64{1}), Label: 0},
		{Box: NewBox([]float64{5}, []float64{6}), Label: 0},
	}
	out := MergeAdjacent(ruleList)
	if len(out) != 2 {
		t.Errorf("non-adjacent rules merged: %d rules", len(out))
	}
}

func TestMergeAdjacent2D(t *testing.T) {
	// 2x2 grid all benign merges to a single rule.
	var ruleList []Rule
	for _, x := range []float64{0, 1} {
		for _, y := range []float64{0, 1} {
			ruleList = append(ruleList, Rule{Box: NewBox([]float64{x, y}, []float64{x + 1, y + 1}), Label: 0})
		}
	}
	out := MergeAdjacent(ruleList)
	if len(out) != 1 {
		t.Errorf("2x2 merge = %d rules, want 1", len(out))
	}
}

func TestQuantizerEncodeDecode(t *testing.T) {
	q := NewQuantizer([]float64{0}, []float64{100}, 8)
	if got := q.Encode(0, 0); got != 0 {
		t.Errorf("Encode(0) = %d", got)
	}
	if got := q.Encode(0, 100); got != 255 {
		t.Errorf("Encode(max) = %d, want 255 (clamped)", got)
	}
	if got := q.Encode(0, -5); got != 0 {
		t.Errorf("Encode(below) = %d, want 0", got)
	}
	if got := q.Encode(0, 200); got != 255 {
		t.Errorf("Encode(above) = %d, want 255", got)
	}
	// Decode returns the bucket's lower edge.
	if got := q.Decode(0, 0); got != 0 {
		t.Errorf("Decode(0) = %v", got)
	}
	if got := q.Decode(0, 128); math.Abs(got-50) > 0.5 {
		t.Errorf("Decode(128) = %v, want ~50", got)
	}
}

func TestQuantizerMonotone(t *testing.T) {
	q := NewQuantizer([]float64{0}, []float64{1}, 6)
	f := func(a, b float64) bool {
		a, b = math.Abs(math.Mod(a, 1)), math.Abs(math.Mod(b, 1))
		if a > b {
			a, b = b, a
		}
		return q.Encode(0, a) <= q.Encode(0, b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestRangeToPrefixes(t *testing.T) {
	// [0, 255] over 8 bits is a single wildcard prefix.
	ps := RangeToPrefixes(IntRange{0, 255}, 8)
	if len(ps) != 1 || ps[0].MaskBits != 0 {
		t.Errorf("full range prefixes = %+v", ps)
	}
	// [1, 14] over 4 bits is the classic worst case: 1, 2-3, 4-7, 8-11,
	// 12-13, 14 → 6 = 2w−2 prefixes.
	ps = RangeToPrefixes(IntRange{1, 14}, 4)
	if len(ps) != 6 {
		t.Errorf("worst case prefixes = %d, want 6", len(ps))
	}
	// A single value is one host prefix.
	ps = RangeToPrefixes(IntRange{7, 7}, 4)
	if len(ps) != 1 || ps[0].MaskBits != 4 {
		t.Errorf("single value prefixes = %+v", ps)
	}
	// Inverted range is empty.
	if ps := RangeToPrefixes(IntRange{5, 2}, 4); ps != nil {
		t.Errorf("inverted range = %+v", ps)
	}
}

func TestRangeToPrefixesCoverExactly(t *testing.T) {
	f := func(a, b uint8) bool {
		lo, hi := uint64(a%64), uint64(b%64)
		if lo > hi {
			lo, hi = hi, lo
		}
		ps := RangeToPrefixes(IntRange{lo, hi}, 6)
		covered := map[uint64]int{}
		for _, p := range ps {
			span := uint64(1) << (6 - p.MaskBits)
			for v := p.Value; v < p.Value+span; v++ {
				covered[v]++
			}
		}
		for v := uint64(0); v < 64; v++ {
			want := 0
			if v >= lo && v <= hi {
				want = 1
			}
			if covered[v] != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestCompileAndMatch(t *testing.T) {
	rs := &RuleSet{
		Rules: []Rule{
			{Box: NewBox([]float64{0, 0}, []float64{50, 100}), Label: 0},
			{Box: NewBox([]float64{50, 0}, []float64{100, 100}), Label: 1},
		},
		Dim: 2, DefaultLabel: 1,
	}
	q := NewQuantizer([]float64{0, 0}, []float64{100, 100}, 8)
	c := Compile(rs, q)
	if len(c.Rules) != 1 {
		t.Fatalf("compiled rules = %d, want 1 (whitelist only)", len(c.Rules))
	}
	if c.TotalEntries == 0 {
		t.Error("TotalEntries = 0")
	}
	if c.KeyBits != 16 {
		t.Errorf("KeyBits = %d, want 16", c.KeyBits)
	}
	if got := c.Match([]float64{25, 50}); got != 0 {
		t.Errorf("benign Match = %d", got)
	}
	if got := c.Match([]float64{75, 50}); got != 1 {
		t.Errorf("malicious Match = %d", got)
	}
	codes := q.EncodeVector([]float64{25, 50})
	if got := c.MatchCodes(codes); got != 0 {
		t.Errorf("MatchCodes = %d", got)
	}
}

func TestCompileDeduplicates(t *testing.T) {
	// Two float rules that quantise identically must compile once.
	rs := &RuleSet{
		Rules: []Rule{
			{Box: NewBox([]float64{0}, []float64{310}), Label: 0},
			{Box: NewBox([]float64{0}, []float64{320}), Label: 0},
		},
		Dim: 1, DefaultLabel: 1,
	}
	q := NewQuantizer([]float64{0}, []float64{1000}, 4)
	c := Compile(rs, q)
	if len(c.Rules) != 1 {
		t.Errorf("compiled rules = %d, want 1 after dedup", len(c.Rules))
	}
}

func TestTCAMEntriesFullRangeFree(t *testing.T) {
	q := NewQuantizer([]float64{0, 0}, []float64{100, 100}, 8)
	r := TCAMRule{Ranges: []IntRange{{0, 255}, {10, 20}}, Label: 0}
	entries := TCAMEntries(r, q)
	want := len(RangeToPrefixes(IntRange{10, 20}, 8))
	if entries != want {
		t.Errorf("entries = %d, want %d (wildcard field free)", entries, want)
	}
}

func TestGenerateVotedMatchesMajority(t *testing.T) {
	universe := FullBox(2, 0, 10)
	// Three trees, each splitting one way; majority label must match a
	// brute-force vote.
	tree1 := gridLeaves(universe, [][]float64{{5}, nil})
	tree2 := gridLeaves(universe, [][]float64{nil, {5}})
	tree3 := gridLeaves(universe, [][]float64{{3}, nil})
	labelFor := func(leaves []Box, fn func(c []float64) int) []int {
		out := make([]int, len(leaves))
		for i, b := range leaves {
			out[i] = fn(b.Center())
		}
		return out
	}
	l1 := labelFor(tree1, func(c []float64) int {
		if c[0] >= 5 {
			return 1
		}
		return 0
	})
	l2 := labelFor(tree2, func(c []float64) int {
		if c[1] >= 5 {
			return 1
		}
		return 0
	})
	l3 := labelFor(tree3, func(c []float64) int {
		if c[0] >= 3 {
			return 1
		}
		return 0
	})

	rs, err := GenerateVoted(universe, [][]Box{tree1, tree2, tree3}, [][]int{l1, l2, l3}, DefaultGenOptions())
	if err != nil {
		t.Fatal(err)
	}
	vote := func(x []float64) int {
		v := 0
		if x[0] >= 5 {
			v++
		}
		if x[1] >= 5 {
			v++
		}
		if x[0] >= 3 {
			v++
		}
		if 2*v > 3 {
			return 1
		}
		return 0
	}
	r := mathx.NewRand(9)
	for i := 0; i < 500; i++ {
		x := []float64{r.Float64() * 10, r.Float64() * 10}
		if got, want := rs.Match(x), vote(x); got != want {
			t.Fatalf("Match(%v) = %d, want %d", x, got, want)
		}
	}
}

func TestGenerateVotedShortCircuits(t *testing.T) {
	// A forest whose first two (of three) trees label everything
	// malicious: the verdict is decided at depth 2, so the third tree's
	// heavy fragmentation must not blow up the cell count.
	universe := FullBox(1, 0, 100)
	allMal := []Box{universe.Clone()}
	var cuts []float64
	for i := 1; i < 100; i++ {
		cuts = append(cuts, float64(i))
	}
	fineTree := gridLeaves(universe, [][]float64{cuts})
	fineLabels := make([]int, len(fineTree))
	rs, err := GenerateVoted(universe,
		[][]Box{allMal, allMal, fineTree},
		[][]int{{1}, {1}, fineLabels},
		GenOptions{MaxCells: 4})
	if err != nil {
		t.Fatalf("short-circuit failed to bound cells: %v", err)
	}
	if rs.Len() != 1 {
		t.Errorf("rules = %d, want 1 merged malicious region", rs.Len())
	}
}

func TestGenerateVotedValidation(t *testing.T) {
	universe := FullBox(1, 0, 1)
	if _, err := GenerateVoted(Box{{Lo: 1, Hi: 1}}, nil, nil, DefaultGenOptions()); err == nil {
		t.Error("want error on empty universe")
	}
	if _, err := GenerateVoted(universe, [][]Box{{universe}}, nil, DefaultGenOptions()); err == nil {
		t.Error("want error on leaf/label mismatch")
	}
}

func TestGenerateVotedTieIsBenign(t *testing.T) {
	universe := FullBox(1, 0, 10)
	tree1 := gridLeaves(universe, [][]float64{{5}})
	tree2 := gridLeaves(universe, [][]float64{{5}})
	// Tree1 says malicious below 5, tree2 says malicious at/above 5:
	// every point gets exactly 1 of 2 votes — a tie, so benign.
	rs, err := GenerateVoted(universe, [][]Box{tree1, tree2}, [][]int{{1, 0}, {0, 1}}, DefaultGenOptions())
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range []float64{1, 6, 9} {
		if got := rs.Match([]float64{v}); got != 0 {
			t.Errorf("tie Match(%v) = %d, want 0", v, got)
		}
	}
}

func TestQuantizeRuleSnapsToNearestBoundary(t *testing.T) {
	q := NewQuantizer([]float64{0}, []float64{160}, 4) // bucket = 10
	// Box [12, 57): edges snap to 10 and 60 -> codes [1, 5].
	tr, ok := QuantizeRule(Rule{Box: NewBox([]float64{12}, []float64{57}), Label: 0}, q)
	if !ok {
		t.Fatal("rule vanished")
	}
	if tr.Ranges[0].Lo != 1 || tr.Ranges[0].Hi != 5 {
		t.Errorf("range = %+v, want [1,5]", tr.Ranges[0])
	}
	// Adjacent boxes sharing an edge stay watertight: [0,57) and
	// [57,160) cover codes [0,5] and [6,15].
	a, _ := QuantizeRule(Rule{Box: NewBox([]float64{0}, []float64{57})}, q)
	b, _ := QuantizeRule(Rule{Box: NewBox([]float64{57}, []float64{160})}, q)
	if a.Ranges[0].Hi+1 != b.Ranges[0].Lo {
		t.Errorf("crack or overlap at the seam: %+v vs %+v", a.Ranges[0], b.Ranges[0])
	}
	// A sub-bucket box vanishes.
	if _, ok := QuantizeRule(Rule{Box: NewBox([]float64{12}, []float64{14})}, q); ok {
		t.Error("sub-bucket rule survived")
	}
}
