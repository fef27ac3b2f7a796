package table

import (
	"reflect"
	"strings"
	"testing"
	"time"
)

func sampleSales(t *testing.T) *Table {
	t.Helper()
	tbl := MustNew("sales",
		[]string{"region", "product", "amount", "qty"},
		[]Kind{KindString, KindString, KindFloat, KindInt})
	rows := [][]Value{
		{Str("east"), Str("widget"), Float(100), Int(2)},
		{Str("east"), Str("gadget"), Float(250), Int(1)},
		{Str("west"), Str("widget"), Float(75), Int(3)},
		{Str("west"), Str("gadget"), Float(300), Int(4)},
		{Str("west"), Str("widget"), Float(125), Int(1)},
	}
	for _, r := range rows {
		tbl.MustAppendRow(r...)
	}
	return tbl
}

func TestNewRejectsDuplicateColumns(t *testing.T) {
	if _, err := New("t", []string{"a", "A"}, []Kind{KindInt, KindInt}); err == nil {
		t.Fatal("expected duplicate column error")
	}
	if _, err := New("t", []string{"a"}, []Kind{KindInt, KindInt}); err == nil {
		t.Fatal("expected arity mismatch error")
	}
}

func TestAppendRowCoerces(t *testing.T) {
	tbl := MustNew("t", []string{"n"}, []Kind{KindFloat})
	tbl.MustAppendRow(Str("3.5"))
	if got := tbl.Get(0, "n"); got.Kind != KindFloat || got.F != 3.5 {
		t.Errorf("coerced value = %v", got)
	}
}

func TestAppendRowArityError(t *testing.T) {
	tbl := MustNew("t", []string{"a", "b"}, []Kind{KindInt, KindInt})
	if err := tbl.AppendRow(Int(1)); err == nil {
		t.Fatal("expected arity error")
	}
}

func TestColumnLookupCaseInsensitive(t *testing.T) {
	tbl := sampleSales(t)
	if tbl.ColumnIndex("AMOUNT") != 2 {
		t.Error("case-insensitive lookup failed")
	}
	if tbl.Column("missing") != nil {
		t.Error("missing column should be nil")
	}
}

func TestFilterAndLimit(t *testing.T) {
	tbl := sampleSales(t)
	west := tbl.Filter(func(r int) bool { return tbl.Get(r, "region").S == "west" })
	if west.NumRows() != 3 {
		t.Fatalf("west rows = %d, want 3", west.NumRows())
	}
	if got := west.Limit(2).NumRows(); got != 2 {
		t.Errorf("limit = %d rows, want 2", got)
	}
	if got := west.Limit(-1).NumRows(); got != 3 {
		t.Errorf("negative limit should keep all rows, got %d", got)
	}
}

func TestSortMultiKey(t *testing.T) {
	tbl := sampleSales(t)
	sorted, err := tbl.Sort(SortKey{Column: "region"}, SortKey{Column: "amount", Desc: true})
	if err != nil {
		t.Fatal(err)
	}
	var amounts []float64
	for i := 0; i < sorted.NumRows(); i++ {
		amounts = append(amounts, sorted.Get(i, "amount").F)
	}
	want := []float64{250, 100, 300, 125, 75}
	if !reflect.DeepEqual(amounts, want) {
		t.Errorf("sorted amounts = %v, want %v", amounts, want)
	}
}

func TestSortUnknownColumn(t *testing.T) {
	tbl := sampleSales(t)
	if _, err := tbl.Sort(SortKey{Column: "nope"}); err == nil {
		t.Fatal("expected error for unknown sort column")
	}
}

func TestDistinct(t *testing.T) {
	tbl := MustNew("t", []string{"a"}, []Kind{KindInt})
	for _, v := range []int64{1, 2, 1, 3, 2} {
		tbl.MustAppendRow(Int(v))
	}
	d := tbl.Distinct()
	if d.NumRows() != 3 {
		t.Errorf("distinct rows = %d, want 3", d.NumRows())
	}
}

func TestGroupByAggregates(t *testing.T) {
	tbl := sampleSales(t)
	g, err := tbl.GroupBy([]string{"region"}, []Aggregation{
		{Func: AggSum, Column: "amount", As: "total"},
		{Func: AggCount, Column: "*", As: "n"},
		{Func: AggMax, Column: "amount", As: "peak"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if g.NumRows() != 2 {
		t.Fatalf("groups = %d, want 2", g.NumRows())
	}
	// Groups keep first-appearance order: east then west.
	if g.Get(0, "region").S != "east" {
		t.Errorf("first group = %v", g.Get(0, "region"))
	}
	if got := g.Get(0, "total").F; got != 350 {
		t.Errorf("east total = %v, want 350", got)
	}
	if got := g.Get(1, "n").I; got != 3 {
		t.Errorf("west count = %v, want 3", got)
	}
	if got := g.Get(1, "peak").F; got != 300 {
		t.Errorf("west peak = %v, want 300", got)
	}
}

func TestGroupByGlobalOnEmptyTable(t *testing.T) {
	tbl := MustNew("t", []string{"x"}, []Kind{KindInt})
	g, err := tbl.GroupBy(nil, []Aggregation{{Func: AggCount, Column: "*", As: "n"}})
	if err != nil {
		t.Fatal(err)
	}
	if g.NumRows() != 1 || g.Get(0, "n").I != 0 {
		t.Errorf("global aggregate over empty table = %v", g)
	}
}

func TestGroupByNullHandling(t *testing.T) {
	tbl := MustNew("t", []string{"k", "v"}, []Kind{KindString, KindFloat})
	tbl.MustAppendRow(Str("a"), Float(1))
	tbl.MustAppendRow(Str("a"), Null())
	tbl.MustAppendRow(Str("a"), Float(3))
	g, err := tbl.GroupBy([]string{"k"}, []Aggregation{
		{Func: AggCount, Column: "v", As: "cnt"},
		{Func: AggAvg, Column: "v", As: "avg"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if g.Get(0, "cnt").I != 2 {
		t.Errorf("COUNT(v) should skip nulls, got %v", g.Get(0, "cnt"))
	}
	if g.Get(0, "avg").F != 2 {
		t.Errorf("AVG(v) should skip nulls, got %v", g.Get(0, "avg"))
	}
}

func TestGroupByMedianAndStdDev(t *testing.T) {
	tbl := MustNew("t", []string{"v"}, []Kind{KindFloat})
	for _, f := range []float64{1, 2, 3, 4} {
		tbl.MustAppendRow(Float(f))
	}
	g, err := tbl.GroupBy(nil, []Aggregation{
		{Func: AggMedian, Column: "v", As: "med"},
		{Func: AggStdDev, Column: "v", As: "sd"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := g.Get(0, "med").F; got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
	sd := g.Get(0, "sd").F
	if sd < 1.29 || sd > 1.30 {
		t.Errorf("stddev = %v, want ~1.291", sd)
	}
}

// cellStrings renders a column's cells for comparison; NULL renders as
// "NULL".
func cellStrings(c Column) []string {
	out := make([]string, c.Len())
	for i := range out {
		if v := c.Value(i); v.IsNull() {
			out[i] = "NULL"
		} else {
			out[i] = v.AsString()
		}
	}
	return out
}

func TestJoinInner(t *testing.T) {
	cust := ColumnFromStrings("cust", []string{"alice", "bob", "carol", "bob"}, nil)
	name := ColumnFromStrings("name", []string{"bob", "alice", "bob"}, nil)
	tier := ColumnFromStrings("tier", []string{"silver", "gold", "bronze"}, nil)

	pairs := NewJoinPairs(JoinInner)
	if pairs.Lnull != nil || pairs.Rnull != nil {
		t.Fatal("inner join pairs must carry no null masks")
	}
	probe := NewHashProbe([]*Column{&cust}, []*Column{&name})
	for l := 0; l < cust.Len(); l++ {
		for _, r := range probe(l) {
			pairs.Match(l, r)
		}
	}
	// Left rows in probe order; duplicate right matches in ascending
	// right-row order; carol has no match and is dropped.
	if !reflect.DeepEqual(pairs.Lidx, []int{0, 1, 1, 3, 3}) || !reflect.DeepEqual(pairs.Ridx, []int{1, 0, 2, 0, 2}) {
		t.Fatalf("pairs = %v / %v", pairs.Lidx, pairs.Ridx)
	}
	got := cellStrings(tier.GatherPairs(pairs.Ridx, pairs.Rnull))
	if want := []string{"gold", "silver", "bronze", "silver", "bronze"}; !reflect.DeepEqual(got, want) {
		t.Errorf("joined tier = %v, want %v", got, want)
	}
}

func TestJoinLeftKeepsUnmatched(t *testing.T) {
	lk := ColumnFromInts("k", []int64{1, 9}, nil)
	v := ColumnFromStrings("v", []string{"hit"}, nil)

	pairs := NewJoinPairs(JoinLeft)
	if pairs.Lnull != nil || pairs.Rnull == nil {
		t.Fatal("left join pads only the right side")
	}
	pairs.Match(0, 0)
	pairs.PadRight(1)
	if got := cellStrings(lk.GatherPairs(pairs.Lidx, pairs.Lnull)); !reflect.DeepEqual(got, []string{"1", "9"}) {
		t.Errorf("left keys = %v", got)
	}
	if got := cellStrings(v.GatherPairs(pairs.Ridx, pairs.Rnull)); !reflect.DeepEqual(got, []string{"hit", "NULL"}) {
		t.Errorf("right values = %v, want the unmatched row NULL-padded", got)
	}
}

func TestJoinRightKeepsUnmatched(t *testing.T) {
	lk := ColumnFromInts("k", []int64{1, 1}, nil)
	v := ColumnFromStrings("v", []string{"hit", "lonely"}, nil)

	pairs := NewJoinPairs(JoinRight)
	if pairs.Lnull == nil || pairs.Rnull != nil {
		t.Fatal("right join pads only the left side")
	}
	// Right-row order: both left rows match right row 0, then the
	// unmatched right row pads the left side.
	pairs.Match(0, 0)
	pairs.Match(1, 0)
	pairs.PadLeft(1)
	if got := cellStrings(lk.GatherPairs(pairs.Lidx, pairs.Lnull)); !reflect.DeepEqual(got, []string{"1", "1", "NULL"}) {
		t.Errorf("left keys = %v, want the padded row NULL", got)
	}
	if got := cellStrings(v.GatherPairs(pairs.Ridx, pairs.Rnull)); !reflect.DeepEqual(got, []string{"hit", "hit", "lonely"}) {
		t.Errorf("right values = %v", got)
	}
}

func TestJoinFullOuter(t *testing.T) {
	lk := ColumnFromInts("k", []int64{1, 9}, nil)
	v := ColumnFromStrings("v", []string{"lonely", "hit", "also lonely"}, nil)

	pairs := NewJoinPairs(JoinFull)
	if pairs.Lnull == nil || pairs.Rnull == nil {
		t.Fatal("full join pads both sides")
	}
	// Match (0,1), a left-preserved row for 9 (whose placeholder right
	// index 0 must not count as a match), then the sweep appends the
	// unmatched right rows 0 and 2 in ascending order.
	pairs.Match(0, 1)
	pairs.PadRight(1)
	pairs.SweepUnmatchedRight(v.Len())
	if got := cellStrings(lk.GatherPairs(pairs.Lidx, pairs.Lnull)); !reflect.DeepEqual(got, []string{"1", "9", "NULL", "NULL"}) {
		t.Errorf("left keys = %v", got)
	}
	if got := cellStrings(v.GatherPairs(pairs.Ridx, pairs.Rnull)); !reflect.DeepEqual(got, []string{"hit", "NULL", "lonely", "also lonely"}) {
		t.Errorf("right values = %v", got)
	}
}

func TestGatherPairsNullMask(t *testing.T) {
	c := ColumnFromInts("x", []int64{10, 20, 30}, []bool{false, true, false})
	out := c.GatherPairs([]int{2, 0, 1, 0}, []bool{false, true, false, false})
	want := []any{int64(30), nil, nil, int64(10)} // masked, then storage NULL
	for i, w := range want {
		v := out.Value(i)
		if w == nil {
			if !v.IsNull() {
				t.Errorf("cell %d = %v, want NULL", i, v)
			}
			continue
		}
		if v.IsNull() || v.I != w.(int64) {
			t.Errorf("cell %d = %v, want %v", i, v, w)
		}
	}
	// nil mask degenerates to a plain gather.
	plain := c.GatherPairs([]int{1, 2}, nil)
	if !plain.Value(0).IsNull() || plain.Value(1).I != 30 {
		t.Errorf("nil-mask gather = %v, %v", plain.Value(0), plain.Value(1))
	}
}

// TestJoinNullKeysNeverMatch pins SQL's NULL ≠ NULL join rule on every
// NewHashProbe path: typed int keys, typed string keys, and composite keys
// hashed through Value.Key. A NULL on either side never matches, even
// another NULL.
func TestJoinNullKeysNeverMatch(t *testing.T) {
	ints := func(vals []int64, nulls []bool) *Column { c := ColumnFromInts("k", vals, nulls); return &c }
	strs := func(vals []string, nulls []bool) *Column { c := ColumnFromStrings("k", vals, nulls); return &c }
	// Left rows: 0 = NULL, 1 = a value the right side holds only as NULL
	// storage, 2 = a real match (right row 1).
	cases := []struct {
		name        string
		left, right []*Column
	}{
		{"typed int",
			[]*Column{ints([]int64{0, 5, 7}, []bool{true, false, false})},
			[]*Column{ints([]int64{0, 7, 5}, []bool{true, false, true})}},
		{"typed string",
			[]*Column{strs([]string{"", "x", "y"}, []bool{true, false, false})},
			[]*Column{strs([]string{"", "y", "x"}, []bool{true, false, true})}},
		{"composite",
			[]*Column{ints([]int64{1, 1, 2}, nil), strs([]string{"", "x", "y"}, []bool{true, false, false})},
			[]*Column{ints([]int64{1, 2, 1}, nil), strs([]string{"", "y", "x"}, []bool{true, false, true})}},
	}
	for _, tc := range cases {
		probe := NewHashProbe(tc.left, tc.right)
		for l, want := range [][]int{nil, nil, {1}} {
			if got := probe(l); !reflect.DeepEqual(got, want) {
				t.Errorf("%s: probe(%d) = %v, want %v", tc.name, l, got, want)
			}
		}
	}
}

func TestEqualDataIgnoresRowOrder(t *testing.T) {
	a := MustNew("a", []string{"x"}, []Kind{KindInt})
	a.MustAppendRow(Int(1))
	a.MustAppendRow(Int(2))
	b := MustNew("b", []string{"y"}, []Kind{KindInt})
	b.MustAppendRow(Int(2))
	b.MustAppendRow(Int(1))
	if !EqualData(a, b) {
		t.Error("permuted rows should be equal")
	}
	b.MustAppendRow(Int(1))
	if EqualData(a, b) {
		t.Error("different multiplicities should not be equal")
	}
}

func TestEqualDataFloatIntUnification(t *testing.T) {
	a := MustNew("a", []string{"x"}, []Kind{KindFloat})
	a.MustAppendRow(Float(3.0))
	b := MustNew("b", []string{"x"}, []Kind{KindInt})
	b.MustAppendRow(Int(3))
	if !EqualData(a, b) {
		t.Error("3.0 and 3 should compare equal under EX semantics")
	}
}

func TestValueCompareAcrossKinds(t *testing.T) {
	if Compare(Int(2), Float(2.0)) != 0 {
		t.Error("2 vs 2.0")
	}
	if Compare(Null(), Int(0)) != -1 {
		t.Error("NULL should sort first")
	}
	if Compare(Str("a"), Str("b")) != -1 {
		t.Error("string compare")
	}
	t1 := Time(time.Date(2023, 1, 1, 0, 0, 0, 0, time.UTC))
	t2 := Time(time.Date(2024, 1, 1, 0, 0, 0, 0, time.UTC))
	if Compare(t1, t2) != -1 {
		t.Error("time compare")
	}
}

func TestInfer(t *testing.T) {
	cases := []struct {
		in   string
		kind Kind
	}{
		{"42", KindInt},
		{"3.14", KindFloat},
		{"true", KindBool},
		{"2023-05-01", KindTime},
		{"hello", KindString},
		{"", KindNull},
		{"  ", KindNull},
	}
	for _, c := range cases {
		if got := Infer(c.in).Kind; got != c.kind {
			t.Errorf("Infer(%q).Kind = %v, want %v", c.in, got, c.kind)
		}
	}
}

func TestReadCSV(t *testing.T) {
	csvData := "region,amount,when\neast,100,2023-01-02\nwest,250.5,2023-02-03\n"
	tbl, err := ReadCSV("sales", strings.NewReader(csvData))
	if err != nil {
		t.Fatal(err)
	}
	if tbl.NumRows() != 2 || tbl.NumCols() != 3 {
		t.Fatalf("shape = %dx%d", tbl.NumRows(), tbl.NumCols())
	}
	if tbl.Column("when").Kind != KindTime {
		t.Errorf("when kind = %v, want time", tbl.Column("when").Kind)
	}
	if tbl.Get(1, "amount").Kind != KindFloat {
		t.Errorf("amount should coerce to first-seen kind")
	}
}

func TestCSVRoundTrip(t *testing.T) {
	tbl := sampleSales(t)
	var sb strings.Builder
	if err := tbl.WriteCSV(&sb); err != nil {
		t.Fatal(err)
	}
	back, err := ReadCSV("sales", strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	if !EqualData(tbl, back) {
		t.Error("CSV round trip changed data")
	}
}

func TestProfileStats(t *testing.T) {
	tbl := sampleSales(t)
	stats := tbl.Profile(3)
	if len(stats) != 4 {
		t.Fatalf("stats for %d columns", len(stats))
	}
	amount := stats[2]
	if !amount.IsNumeric {
		t.Error("amount should be numeric")
	}
	if amount.Min.F != 75 || amount.Max.F != 300 {
		t.Errorf("amount min/max = %v/%v", amount.Min, amount.Max)
	}
	if amount.Mean != 170 {
		t.Errorf("amount mean = %v, want 170", amount.Mean)
	}
	region := stats[0]
	if !region.IsCategorical {
		t.Error("region should be categorical")
	}
	if region.Distinct != 2 {
		t.Errorf("region distinct = %d", region.Distinct)
	}
	if len(region.SampleValues) == 0 {
		t.Error("expected sample values")
	}
}

func TestProfileTemporalDetection(t *testing.T) {
	tbl := MustNew("t", []string{"ftime", "other"}, []Kind{KindString, KindString})
	tbl.MustAppendRow(Str("20230101"), Str("x"))
	stats := tbl.Profile(1)
	if !stats[0].IsTimeLike {
		t.Error("ftime should be detected as time-like by name")
	}
	if stats[1].IsTimeLike {
		t.Error("other should not be time-like")
	}
}

func TestSliceBounds(t *testing.T) {
	tbl := sampleSales(t)
	if got := tbl.Slice(-5, 100).NumRows(); got != 5 {
		t.Errorf("clamped slice rows = %d", got)
	}
	if got := tbl.Slice(4, 2).NumRows(); got != 0 {
		t.Errorf("inverted slice rows = %d", got)
	}
}
