package main

import (
	"context"
	"fmt"
	"math"
	"math/rand/v2"
	"runtime"
	"sort"
	"time"

	"datalab/internal/sqlengine"
	"datalab/internal/table"
)

// The warehouse_sql workload: one closed-loop client sends Catalog.QueryCtx
// and drains every batch, over a million-row fact table shaped like the
// benchgen enterprise tables (id, three string dimensions, three measures,
// a date), a 100k-row orders table joined on the id, and a 50-row channel
// dimension. Engine kernels do almost all the work; the templates vary
// only literals, so the plan cache amortizes parsing.

const (
	factRows      = 1_000_000
	ordersRows    = 100_000
	channels      = 50 // rows of dim_channel
	loadBatchRows = 8192
	whSetupReps   = 8
	whInstances   = 4 // literal variants per template
)

var (
	productNames = []string{"TencentBI", "TencentCloud", "TencentAds", "TencentGames"}
	groupCodes   = []string{"TEG", "WXG", "IEG", "CSIG"}
	cityTiers    = []string{"tier1", "tier2", "tier3"}
	regions      = []string{"north", "south", "east", "west", "central"}
	epoch        = time.Date(2022, 1, 1, 0, 0, 0, 0, time.UTC)
	channelIDs   = func() []string {
		ids := make([]string, channels)
		for i := range ids {
			ids[i] = fmt.Sprintf("ch_%02d", i)
		}
		return ids
	}()
)

const factDays = 1096 // ftime spans 2022-01-01 .. 2024-12-31

// warehouseData is the generator's own copy of every table, in plain Go
// slices. The oracles read only these.
type warehouseData struct {
	prod, chl, bg []uint8 // codes into productNames, channelIDs, groupCodes
	income, gmv   []float64
	dau           []int64
	day           []int32 // ftime as days since epoch
	oUin          []int64
	oRefund       []float64
	oTier         []uint8

	tables []*table.Table // the same data as engine columns, loaded in batches
}

func newRand(seed int64, stream uint64) *rand.Rand {
	return rand.New(rand.NewPCG(uint64(seed), stream))
}

func genWarehouse(seed int64) *warehouseData {
	r := newRand(seed, 1)
	d := &warehouseData{
		prod: make([]uint8, factRows), chl: make([]uint8, factRows), bg: make([]uint8, factRows),
		income: make([]float64, factRows), gmv: make([]float64, factRows),
		dau: make([]int64, factRows), day: make([]int32, factRows),
	}
	for i := 0; i < factRows; i++ {
		d.prod[i] = uint8(r.IntN(len(productNames)))
		d.chl[i] = uint8(r.IntN(channels))
		d.bg[i] = uint8(r.IntN(len(groupCodes)))
		d.income[i] = float64(r.IntN(1_000_000)) / 100
		// The fractional part makes every gmv_val distinct, so rankings
		// and top-K answers have no ties.
		d.gmv[i] = float64(r.IntN(1_000_000)) + float64(i)*1e-7
		d.dau[i] = int64(r.IntN(10_000))
		d.day[i] = int32(r.IntN(factDays))
	}
	d.oUin = make([]int64, ordersRows)
	d.oRefund = make([]float64, ordersRows)
	d.oTier = make([]uint8, ordersRows)
	for i := 0; i < ordersRows; i++ {
		d.oUin[i] = int64(r.IntN(factRows))
		d.oRefund[i] = float64(r.IntN(100_000)) / 10
		d.oTier[i] = uint8(r.IntN(len(cityTiers)))
	}

	uin := make([]int64, factRows)
	prod, chl, bg := make([]string, factRows), make([]string, factRows), make([]string, factRows)
	ftime := make([]time.Time, factRows)
	for i := range uin {
		uin[i] = int64(i)
		prod[i], chl[i], bg[i] = productNames[d.prod[i]], channelIDs[d.chl[i]], groupCodes[d.bg[i]]
		ftime[i] = epoch.AddDate(0, 0, int(d.day[i]))
	}
	oid := make([]int64, ordersRows)
	tier := make([]string, ordersRows)
	for i := range oid {
		oid[i] = int64(i)
		tier[i] = cityTiers[d.oTier[i]]
	}
	names, region := make([]string, channels), make([]string, channels)
	for c := range names {
		names[c] = fmt.Sprintf("channel %02d", c)
		region[c] = regions[c%len(regions)]
	}
	d.tables = []*table.Table{
		{Name: "fact", Columns: []table.Column{
			table.ColumnFromInts("uin", uin, nil),
			table.ColumnFromStrings("prod_class4_name", prod, nil),
			table.ColumnFromStrings("chl_id", chl, nil),
			table.ColumnFromStrings("bg_cd", bg, nil),
			table.ColumnFromFloats("shouldincome_after", d.income, nil),
			table.ColumnFromFloats("gmv_val", d.gmv, nil),
			table.ColumnFromInts("dau_cnt", d.dau, nil),
			table.ColumnFromTimes("ftime", ftime, nil),
		}},
		{Name: "orders", Columns: []table.Column{
			table.ColumnFromInts("oid_seq", oid, nil),
			table.ColumnFromInts("uin", d.oUin, nil),
			table.ColumnFromFloats("rfnd_amt", d.oRefund, nil),
			table.ColumnFromStrings("cty_lvl", tier, nil),
		}},
		{Name: "dim_channel", Columns: []table.Column{
			table.ColumnFromStrings("chl_id", channelIDs, nil),
			table.ColumnFromStrings("chl_name", names, nil),
			table.ColumnFromStrings("region", region, nil),
		}},
	}
	return d
}

func (d *warehouseData) rows() int64 {
	n := int64(0)
	for _, t := range d.tables {
		n += int64(t.NumRows())
	}
	return n
}

// load builds a catalog through the table layer's streaming append path:
// every table starts as empty columns sized for all its rows, takes its
// rows as values through Appender.Append in loadBatchRows batches, and is
// published once, so each table is one flat chunk and no batch regrows the
// arena. It appends each batch's append time (ms) to batchMS and returns
// the catalog and the load time.
func (d *warehouseData) load(batchMS *[]float64) (*sqlengine.Catalog, time.Duration, error) {
	cat := sqlengine.NewCatalog()
	var loading time.Duration
	for _, src := range d.tables {
		n, nc := src.NumRows(), len(src.Columns)
		t0 := time.Now()
		empty := &table.Table{Name: src.Name, Columns: make([]table.Column, nc)}
		for i, c := range src.Columns {
			empty.Columns[i] = presized(c.Name, c.Kind, n)
		}
		app := table.NewAppender(empty)
		loading += time.Since(t0)
		cells := make([]table.Value, min(n, loadBatchRows)*nc)
		rows := make([][]table.Value, min(n, loadBatchRows))
		for lo := 0; lo < n; lo += loadBatchRows {
			batch := rows[:min(lo+loadBatchRows, n)-lo]
			for r := range batch {
				batch[r] = cells[r*nc : (r+1)*nc]
				for i := range src.Columns {
					batch[r][i] = src.Columns[i].Value(lo + r)
				}
			}
			t0 := time.Now()
			err := app.Append(batch...)
			el := time.Since(t0)
			if err != nil {
				return nil, 0, err
			}
			loading += el
			*batchMS = append(*batchMS, ms(el))
		}
		t0 = time.Now()
		app.Publish()
		cat.RegisterAppender(app)
		loading += time.Since(t0)
	}
	return cat, loading, nil
}

// presized returns an empty column with room for n cells.
func presized(name string, kind table.Kind, n int) table.Column {
	nulls := make([]bool, 0, n)
	switch kind {
	case table.KindInt:
		return table.ColumnFromInts(name, make([]int64, 0, n), nulls)
	case table.KindFloat:
		return table.ColumnFromFloats(name, make([]float64, 0, n), nulls)
	case table.KindString:
		return table.ColumnFromStrings(name, make([]string, 0, n), nulls)
	case table.KindTime:
		return table.ColumnFromTimes(name, make([]time.Time, 0, n), nulls)
	}
	return table.NewColumn(name, kind)
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// whQuery is one literal instance of a query template with its expected
// answer.
type whQuery struct {
	class    string // engine operator class the template exercises
	name     string
	sql      string
	examined int64 // rows the query must read, from the table sizes
	check    func(*sqlengine.Result) error
}

// whTemplate builds one instance of a template from the data and a
// literal source. Literals vary within a few percent, so every seed asks
// for about the same amount of work.
type whTemplate func(d *warehouseData, r *rand.Rand) whQuery

func whTemplates() []whTemplate {
	filterSel := func(sel float64) whTemplate {
		return func(d *warehouseData, r *rand.Rand) whQuery { return filterGMV(d, r, sel) }
	}
	return []whTemplate{
		filterSel(0.001), filterSel(0.01), filterSel(0.1), filterSel(0.5),
		filterDim, groupOneKey, groupTwoKeys, joinOrders, joinDim,
		windowRank, windowRunningSum, sortTopK, sortMultiKey, scalarSubquery, caseGroup,
	}
}

// buildInstances returns whInstances literal variants of every template.
func buildInstances(d *warehouseData, seed int64) [][]whQuery {
	r := newRand(seed, 2)
	tpls := whTemplates()
	out := make([][]whQuery, len(tpls))
	for i, t := range tpls {
		for k := 0; k < whInstances; k++ {
			out[i] = append(out[i], t(d, r))
		}
	}
	return out
}

func filterGMV(d *warehouseData, r *rand.Rand, sel float64) whQuery {
	t := math.Floor(1e6*(1-sel*(0.98+0.04*r.Float64()))) + 0.5
	n, sum := int64(0), int64(0)
	for i, g := range d.gmv {
		if g > t {
			n++
			sum += int64(i)
		}
	}
	return whQuery{
		class: "filter", name: fmt.Sprintf("filter_gmv_%g", sel),
		sql:      fmt.Sprintf("SELECT uin, gmv_val FROM fact WHERE gmv_val > %.1f", t),
		examined: factRows,
		check:    checkCountSum(n, sum, 0),
	}
}

func filterDim(d *warehouseData, r *rand.Rand) whQuery {
	g, k := uint8(r.IntN(len(groupCodes))), int64(95+r.IntN(10))
	n, sum := int64(0), int64(0)
	for i := range d.bg {
		if d.bg[i] == g && d.dau[i] < k {
			n++
			sum += d.dau[i]
		}
	}
	return whQuery{
		class: "filter", name: "filter_dim",
		sql:      fmt.Sprintf("SELECT uin, chl_id, dau_cnt FROM fact WHERE bg_cd = '%s' AND dau_cnt < %d", groupCodes[g], k),
		examined: factRows,
		check:    checkCountSum(n, sum, 2),
	}
}

// groupAcc accumulates the expected rows of a grouped query.
type groupAcc map[string]*[2]float64

func (g groupAcc) add(key string, a, b float64) {
	acc := g[key]
	if acc == nil {
		acc = &[2]float64{}
		g[key] = acc
	}
	acc[0] += a
	acc[1] += b
}

func groupOneKey(d *warehouseData, r *rand.Rand) whQuery {
	k := int64(4900 + r.IntN(200))
	want := groupAcc{}
	for i := range d.bg {
		if d.dau[i] >= k {
			want.add(groupCodes[d.bg[i]], 1, d.gmv[i])
		}
	}
	return whQuery{
		class: "group", name: "group_1key",
		sql:      fmt.Sprintf("SELECT bg_cd, COUNT(*) AS n, SUM(gmv_val) AS s FROM fact WHERE dau_cnt >= %d GROUP BY bg_cd", k),
		examined: factRows,
		check:    checkGroups(want, 1),
	}
}

func groupTwoKeys(d *warehouseData, r *rand.Rand) whQuery {
	day := int32(390 + r.IntN(20))
	want := groupAcc{}
	for i := range d.day {
		if d.day[i] >= day {
			want.add(productNames[d.prod[i]]+"|"+channelIDs[d.chl[i]], 1, float64(d.dau[i]))
		}
	}
	return whQuery{
		class: "group", name: "group_2key",
		sql: fmt.Sprintf("SELECT prod_class4_name, chl_id, COUNT(*) AS n, SUM(dau_cnt) AS s FROM fact "+
			"WHERE ftime >= '%s' GROUP BY prod_class4_name, chl_id", epoch.AddDate(0, 0, int(day)).Format("2006-01-02")),
		examined: factRows,
		check:    checkGroups(want, 2),
	}
}

func joinOrders(d *warehouseData, r *rand.Rand) whQuery {
	x := float64(4900+r.IntN(200)) + 0.05
	want := groupAcc{}
	for i, u := range d.oUin {
		if d.oRefund[i] > x {
			want.add(groupCodes[d.bg[u]], 1, d.oRefund[i])
		}
	}
	return whQuery{
		class: "join", name: "join_orders",
		sql: fmt.Sprintf("SELECT f.bg_cd, COUNT(*) AS n, SUM(o.rfnd_amt) AS s FROM orders o JOIN fact f ON o.uin = f.uin "+
			"WHERE o.rfnd_amt > %.2f GROUP BY f.bg_cd", x),
		examined: factRows + ordersRows,
		check:    checkGroups(want, 1),
	}
}

func joinDim(d *warehouseData, r *rand.Rand) whQuery {
	k := int64(1950 + r.IntN(100))
	want := groupAcc{}
	for i := range d.chl {
		if d.dau[i] < k {
			want.add(regions[int(d.chl[i])%len(regions)], 1, d.gmv[i])
		}
	}
	return whQuery{
		class: "join", name: "join_dim",
		sql: fmt.Sprintf("SELECT d.region, COUNT(*) AS n, SUM(f.gmv_val) AS s FROM fact f JOIN dim_channel d "+
			"ON f.chl_id = d.chl_id WHERE f.dau_cnt < %d GROUP BY d.region", k),
		examined: factRows + channels,
		check:    checkGroups(want, 1),
	}
}

// sampleRows picks n distinct rows satisfying ok.
func sampleRows(r *rand.Rand, rows int, n int, ok func(i int) bool) []int {
	var out []int
	seen := map[int]bool{}
	for len(out) < n {
		i := r.IntN(rows)
		if ok(i) && !seen[i] {
			seen[i] = true
			out = append(out, i)
		}
	}
	return out
}

func windowRank(d *warehouseData, r *rand.Rand) whQuery {
	k := int64(195 + r.IntN(10))
	n := int64(0)
	for i := range d.dau {
		if d.dau[i] < k {
			n++
		}
	}
	known := map[int64]float64{}
	for _, u := range sampleRows(r, factRows, 4, func(i int) bool { return d.dau[i] < k }) {
		rank := 1.0
		for i := range d.dau {
			if d.dau[i] < k && d.bg[i] == d.bg[u] && d.gmv[i] > d.gmv[u] {
				rank++
			}
		}
		known[int64(u)] = rank
	}
	return whQuery{
		class: "window", name: "window_rank",
		sql: fmt.Sprintf("SELECT uin, bg_cd, gmv_val, RANK() OVER (PARTITION BY bg_cd ORDER BY gmv_val DESC) AS rk "+
			"FROM fact WHERE dau_cnt < %d", k),
		examined: factRows,
		check:    checkKnownRows(n, known, 3, 0),
	}
}

func windowRunningSum(d *warehouseData, r *rand.Rand) whQuery {
	k := 49_000 + r.IntN(2_000)
	known := map[int64]float64{}
	for _, u := range sampleRows(r, k, 4, func(int) bool { return true }) {
		s := 0.0
		for i := 0; i <= u; i++ {
			if d.chl[i] == d.chl[u] {
				s += d.gmv[i]
			}
		}
		known[int64(u)] = s
	}
	return whQuery{
		class: "window", name: "window_running_sum",
		sql: fmt.Sprintf("SELECT uin, chl_id, SUM(gmv_val) OVER (PARTITION BY chl_id ORDER BY uin) AS rs "+
			"FROM fact WHERE uin < %d", k),
		examined: factRows,
		check:    checkKnownRows(int64(k), known, 2, 1e-9),
	}
}

// topIDs returns the ids of the first k rows satisfying ok under less.
func topIDs(n, k int, ok func(i int) bool, less func(a, b int) bool) []int64 {
	var cand []int
	for i := 0; i < n; i++ {
		if ok(i) {
			cand = append(cand, i)
		}
	}
	sort.Slice(cand, func(a, b int) bool { return less(cand[a], cand[b]) })
	out := make([]int64, 0, k)
	for _, i := range cand[:min(k, len(cand))] {
		out = append(out, int64(i))
	}
	return out
}

func sortTopK(d *warehouseData, r *rand.Rand) whQuery {
	g, k := uint8(r.IntN(len(groupCodes))), 10+r.IntN(40)
	ids := topIDs(factRows, k, func(i int) bool { return d.bg[i] == g },
		func(a, b int) bool { return d.gmv[a] > d.gmv[b] })
	return whQuery{
		class: "sort", name: "sort_topk",
		sql:      fmt.Sprintf("SELECT uin, gmv_val FROM fact WHERE bg_cd = '%s' ORDER BY gmv_val DESC LIMIT %d", groupCodes[g], k),
		examined: factRows,
		check:    checkOrderedIDs(ids),
	}
}

func sortMultiKey(d *warehouseData, r *rand.Rand) whQuery {
	c, k := uint8(r.IntN(channels)), 10+r.IntN(40)
	ids := topIDs(factRows, k, func(i int) bool { return d.chl[i] == c },
		func(a, b int) bool {
			if d.dau[a] != d.dau[b] {
				return d.dau[a] < d.dau[b]
			}
			return d.gmv[a] > d.gmv[b]
		})
	return whQuery{
		class: "sort", name: "sort_multikey",
		sql: fmt.Sprintf("SELECT uin, dau_cnt, gmv_val FROM fact WHERE chl_id = '%s' "+
			"ORDER BY dau_cnt ASC, gmv_val DESC LIMIT %d", channelIDs[c], k),
		examined: factRows,
		check:    checkOrderedIDs(ids),
	}
}

func scalarSubquery(d *warehouseData, r *rand.Rand) whQuery {
	g := uint8(r.IntN(len(groupCodes)))
	s, c := 0.0, 0.0
	for i := range d.bg {
		if d.bg[i] == g {
			s += d.gmv[i]
			c++
		}
	}
	avg := s / c
	n, sum := int64(0), int64(0)
	for i, v := range d.gmv {
		if v > avg {
			n++
			sum += int64(i)
		}
	}
	return whQuery{
		class: "subquery", name: "scalar_subquery",
		sql: fmt.Sprintf("SELECT COUNT(*) AS n, SUM(uin) AS s FROM fact WHERE gmv_val > "+
			"(SELECT AVG(gmv_val) FROM fact WHERE bg_cd = '%s')", groupCodes[g]),
		examined: 2 * factRows,
		check:    checkGroups(groupAcc{"": &[2]float64{float64(n), float64(sum)}}, 0),
	}
}

func caseGroup(d *warehouseData, r *rand.Rand) whQuery {
	k := int64(2450 + r.IntN(100))
	want := groupAcc{}
	for i := range d.bg {
		if d.dau[i] >= k {
			hi := 0.0
			if d.gmv[i] > 500000 {
				hi = 1
			}
			want.add(groupCodes[d.bg[i]], hi, 1)
		}
	}
	return whQuery{
		class: "case", name: "case_band",
		sql: fmt.Sprintf("SELECT bg_cd, SUM(CASE WHEN gmv_val > 500000.0 THEN 1 ELSE 0 END) AS hi, COUNT(*) AS n "+
			"FROM fact WHERE dau_cnt >= %d GROUP BY bg_cd", k),
		examined: factRows,
		check:    checkGroups(want, 1),
	}
}

// checkCountSum expects n rows whose integer column col sums to sum.
func checkCountSum(n, sum int64, col int) func(*sqlengine.Result) error {
	return func(res *sqlengine.Result) error {
		gotN, gotSum := int64(0), int64(0)
		for b := res.Next(); b != nil; b = res.Next() {
			for i := 0; i < b.NumRows(); i++ {
				v, ok := b.Int64(col, i)
				if !ok {
					return fmt.Errorf("row %d column %d is not an integer", gotN+int64(i), col)
				}
				gotSum += v
			}
			gotN += int64(b.NumRows())
		}
		if gotN != n || gotSum != sum {
			return fmt.Errorf("got %d rows summing to %d, want %d rows summing to %d", gotN, gotSum, n, sum)
		}
		return nil
	}
}

// closeEnough compares a float aggregate with a relative tolerance that
// covers summation-order differences.
func closeEnough(got, want float64) bool {
	return math.Abs(got-want) <= 1e-9*math.Max(1, math.Abs(want))
}

// checkGroups expects one row per key of want: nkeys string key columns
// (joined with "|") followed by two numeric columns.
func checkGroups(want groupAcc, nkeys int) func(*sqlengine.Result) error {
	return func(res *sqlengine.Result) error {
		seen := 0
		for b := res.Next(); b != nil; b = res.Next() {
			for i := 0; i < b.NumRows(); i++ {
				key := ""
				for k := 0; k < nkeys; k++ {
					if k > 0 {
						key += "|"
					}
					key += b.String(k, i)
				}
				exp, ok := want[key]
				if !ok {
					return fmt.Errorf("unexpected group %q", key)
				}
				for j := 0; j < 2; j++ {
					got, ok := b.Float64(nkeys+j, i)
					if !ok || !closeEnough(got, exp[j]) {
						return fmt.Errorf("group %q column %d = %v, want %v", key, nkeys+j, got, exp[j])
					}
				}
				seen++
			}
		}
		if seen != len(want) {
			return fmt.Errorf("got %d groups, want %d", seen, len(want))
		}
		return nil
	}
}

// checkKnownRows expects n rows, and for every known id (column 0) the
// value of column col, within relative tolerance tol.
func checkKnownRows(n int64, known map[int64]float64, col int, tol float64) func(*sqlengine.Result) error {
	return func(res *sqlengine.Result) error {
		got, found := int64(0), 0
		for b := res.Next(); b != nil; b = res.Next() {
			for i := 0; i < b.NumRows(); i++ {
				id, _ := b.Int64(0, i)
				want, ok := known[id]
				if !ok {
					continue
				}
				found++
				v, ok := b.Float64(col, i)
				if !ok || math.Abs(v-want) > tol*math.Max(1, math.Abs(want)) {
					return fmt.Errorf("row uin=%d column %d = %v, want %v", id, col, v, want)
				}
			}
			got += int64(b.NumRows())
		}
		if got != n || found != len(known) {
			return fmt.Errorf("got %d rows with %d known ids, want %d rows with %d", got, found, n, len(known))
		}
		return nil
	}
}

// checkOrderedIDs expects exactly ids in column 0, in order.
func checkOrderedIDs(ids []int64) func(*sqlengine.Result) error {
	return func(res *sqlengine.Result) error {
		var got []int64
		for b := res.Next(); b != nil; b = res.Next() {
			for i := 0; i < b.NumRows(); i++ {
				id, _ := b.Int64(0, i)
				got = append(got, id)
			}
		}
		if len(got) != len(ids) {
			return fmt.Errorf("got %d rows, want %d", len(got), len(ids))
		}
		for i := range ids {
			if got[i] != ids[i] {
				return fmt.Errorf("row %d has uin %d, want %d", i, got[i], ids[i])
			}
		}
		return nil
	}
}

// whRunner executes queries and tallies what they cost.
type whRunner struct {
	ctx      context.Context
	cat      *sqlengine.Catalog
	oc       *outcome
	rtr      *rtReader
	ops      int64
	returned int64
	examined int64
	rt       rtDelta
}

// exec runs one query, drains it, and checks the answer. It returns the
// time spent in QueryCtx and the drain loop. With a tracer it records a
// span around each call; checking is never timed.
func (w *whRunner) exec(q whQuery, tr *tracer) (time.Duration, error) {
	req := w.ops
	w.ops++
	before := w.rtr.read()
	root := tr.begin("warehouse.query", -1, req)
	t0 := time.Now()
	sp := tr.begin("sqlengine."+q.class+".QueryCtx", root, req)
	res, err := w.cat.QueryCtx(w.ctx, q.sql)
	tr.end(sp)
	if err != nil {
		tr.end(root)
		return 0, fmt.Errorf("%s: %w", q.name, err)
	}
	sp = tr.begin("sqlengine.drain", root, req)
	rows := 0
	for b := res.Next(); b != nil; b = res.Next() {
		rows += b.NumRows()
	}
	tr.end(sp)
	el := time.Since(t0)
	tr.end(root)
	w.rt.add(before.to(w.rtr.read()))
	w.returned += int64(rows)
	w.examined += q.examined
	if tr != nil {
		fp := tr.begin("sqlengine.Fingerprint", -1, req)
		sqlengine.Fingerprint(q.sql)
		tr.end(fp)
	}
	if err := res.Rewind(); err != nil {
		return el, fmt.Errorf("%s: rewind: %w", q.name, err)
	}
	if err := q.check(res); err != nil {
		w.oc.wrongf("warehouse_sql %s: %s: %v", q.name, q.sql, err)
	}
	res.Close()
	return el, nil
}

func runWarehouse(ctx context.Context, cfg config, tr *tracer) (*outcome, error) {
	d := genWarehouse(cfg.seed)
	insts := buildInstances(d, cfg.seed)
	oc := &outcome{}
	var cat *sqlengine.Catalog
	var loadMS []float64
	for rep := 0; rep < whSetupReps; rep++ {
		cat = nil
		runtime.GC()
		t0 := time.Now()
		var steps []float64
		c, loading, err := d.load(&steps)
		if err != nil {
			return nil, fmt.Errorf("load: %w", err)
		}
		oc.setup = append(oc.setup, time.Since(t0).Seconds())
		loadMS = append(loadMS, ms(loading))
		oc.ingestRate = append(oc.ingestRate, float64(d.rows())/loading.Seconds())
		oc.ingestLat = append(oc.ingestLat, steps)
		cat = c
	}
	chunks, rows := int64(0), int64(0)
	for _, t := range d.tables {
		s, ok := cat.Snapshot(t.Name)
		if !ok {
			return nil, fmt.Errorf("table %s missing from the catalog", t.Name)
		}
		chunks += int64(s.NumChunks())
		rows += int64(s.NumRows())
	}
	d.tables = nil // loaded; the oracles keep only the generator's slices
	runtime.GC()

	w := &whRunner{ctx: ctx, cat: cat, oc: oc, rtr: newRTReader()}
	// Warm-up: one instance of every template fills the plan cache (the
	// other instances share its fingerprint template) and is checked too.
	for _, tpl := range insts {
		if _, err := w.exec(tpl[0], nil); err != nil {
			return nil, err
		}
	}
	*w = whRunner{ctx: ctx, cat: cat, oc: oc, rtr: w.rtr}

	if cfg.trace {
		return oc, warehouseTraced(cfg, tr, w, insts, loadMS, chunks, rows)
	}
	end := deadline(cfg)
	for c := 0; c == 0 || time.Now().Before(end); c++ {
		runtime.GC()
		for _, tpl := range insts {
			el, err := w.exec(tpl[c%whInstances], nil)
			oc.attempted++
			if err != nil {
				oc.failed++
				oc.wrongf("warehouse_sql: %v", err)
				continue
			}
			oc.lat = append(oc.lat, ms(el))
			oc.busy += el.Seconds()
		}
	}
	oc.rt, oc.rtOps = w.rt, w.ops
	return oc, nil
}

// warehouseTraced alternates untraced and traced cycles over the same
// instances: per-layer times come from the traced cycles, and the ratio of
// traced to untraced cycle time is the tracing overhead.
func warehouseTraced(cfg config, tr *tracer, w *whRunner, insts [][]whQuery, loadMS []float64, chunks, rows int64) error {
	oc := w.oc
	var plain, traced []float64 // seconds per cycle
	var rt rtDelta
	var tracedOps, parses, hits, misses, examined, returned int64
	end := deadline(cfg)
	for c := 0; c < 2 || time.Now().Before(end) || c%2 == 1; c++ {
		runtime.GC()
		on := c%2 == 1
		var t *tracer
		if on {
			t = tr
		}
		pcs0, parse0 := w.cat.PlanCacheStats(), sqlengine.ParseCalls()
		w.rt, w.examined, w.returned = rtDelta{}, 0, 0
		cycle := 0.0
		for _, tpl := range insts {
			el, err := w.exec(tpl[(c/2)%whInstances], t)
			oc.attempted++
			if err != nil {
				oc.failed++
				oc.wrongf("warehouse_sql: %v", err)
				continue
			}
			cycle += el.Seconds()
		}
		if !on {
			plain = append(plain, cycle)
			continue
		}
		traced = append(traced, cycle)
		pcs1 := w.cat.PlanCacheStats()
		hits += pcs1.Hits - pcs0.Hits
		misses += pcs1.Misses - pcs0.Misses
		parses += sqlengine.ParseCalls() - parse0
		rt.add(w.rt)
		tracedOps += int64(len(insts))
		examined += w.examined
		returned += w.returned
	}

	m := zeroLayers()
	sum := summarize(tr.snapshot())
	for _, class := range []string{"filter", "group", "join", "window", "sort", "subquery", "case"} {
		m["sqlengine."+class+".query_ms"] = metric{sum["sqlengine."+class+".QueryCtx"].meanMS(), "ms"}
	}
	m["sqlengine.drain_ms"] = metric{sum["sqlengine.drain"].meanMS(), "ms"}
	m["sqlengine.fingerprint_us"] = metric{sum["sqlengine.Fingerprint"].meanUS(), "us"}
	m["sqlengine.plan_cache_hit_ratio"] = metric{ratio(hits, hits+misses), "ratio"}
	m["sqlengine.parse_calls"] = metric{float64(parses), "count"}
	m["sqlengine.rows_examined_per_row_returned"] = metric{ratio(examined, returned), "ratio"}
	m["table.load_ms"] = metric{median(loadMS), "ms"}
	m["table.chunks"] = metric{float64(chunks), "count"}
	m["table.rows_per_publish"] = metric{ratio(rows, chunks), "count"}
	runtimeLayers(m, rt, tracedOps)
	m["trace_overhead_ratio"] = metric{mean(traced) / mean(plain), "ratio"}
	oc.layers = m
	return nil
}

// ratio returns a/b, or 0 when b is 0 (as PlanCacheStats.HitRate does).
func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}
