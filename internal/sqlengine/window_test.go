package sqlengine

import (
	"strings"
	"testing"

	"datalab/internal/table"
)

// queryBoth runs q through the vectorized and the scalar engine, requires
// byte-identical results, and returns the vectorized table.
func queryBoth(t *testing.T, c *Catalog, q string) *table.Table {
	t.Helper()
	vec, err := queryTable(c, q)
	if err != nil {
		t.Fatalf("query %q: %v", q, err)
	}
	sca, err := c.QueryScalar(q)
	if err != nil {
		t.Fatalf("query %q (scalar): %v", q, err)
	}
	if dv, ds := dumpTable(vec), dumpTable(sca); dv != ds {
		t.Fatalf("query %q: vectorized vs scalar mismatch\n-- vectorized --\n%s\n-- scalar --\n%s", q, dv, ds)
	}
	return vec
}

// expectCells asserts the result's cells, row by row, via canonical keys.
func expectCells(t *testing.T, q string, got *table.Table, want [][]table.Value) {
	t.Helper()
	if got.NumRows() != len(want) {
		t.Fatalf("query %q: rows = %d, want %d\n%s", q, got.NumRows(), len(want), dumpTable(got))
	}
	for i, row := range want {
		if len(row) != got.NumCols() {
			t.Fatalf("query %q: cols = %d, want %d", q, got.NumCols(), len(row))
		}
		for j, w := range row {
			if g := got.Columns[j].Value(i); g.Key() != w.Key() {
				t.Errorf("query %q: cell (%d,%d) = %s, want %s", q, i, j, g.Key(), w.Key())
			}
		}
	}
}

func TestWindowRowNumberPartitioned(t *testing.T) {
	c := testCatalog(t)
	q := "SELECT id, ROW_NUMBER() OVER (PARTITION BY region ORDER BY amount) AS rn FROM sales WHERE amount IS NOT NULL ORDER BY id"
	expectCells(t, q, queryBoth(t, c, q), [][]table.Value{
		{table.Int(1), table.Int(1)}, // east 100
		{table.Int(2), table.Int(2)}, // east 250
		{table.Int(3), table.Int(1)}, // west 75
		{table.Int(4), table.Int(3)}, // west 300
		{table.Int(5), table.Int(2)}, // west 125
	})
}

func TestWindowRankAndDenseRankTies(t *testing.T) {
	c := testCatalog(t)
	// qty by id: 2, 1, 3, 4, 1, 2 — two tied pairs.
	q := "SELECT id, RANK() OVER (ORDER BY qty) AS r, DENSE_RANK() OVER (ORDER BY qty) AS dr FROM sales ORDER BY id"
	expectCells(t, q, queryBoth(t, c, q), [][]table.Value{
		{table.Int(1), table.Int(3), table.Int(2)},
		{table.Int(2), table.Int(1), table.Int(1)},
		{table.Int(3), table.Int(5), table.Int(3)},
		{table.Int(4), table.Int(6), table.Int(4)},
		{table.Int(5), table.Int(1), table.Int(1)},
		{table.Int(6), table.Int(3), table.Int(2)},
	})
}

func TestWindowRunningSumPerPartition(t *testing.T) {
	c := testCatalog(t)
	q := "SELECT id, SUM(amount) OVER (PARTITION BY region ORDER BY id) AS rs FROM sales ORDER BY id"
	expectCells(t, q, queryBoth(t, c, q), [][]table.Value{
		{table.Int(1), table.Float(100)},
		{table.Int(2), table.Float(350)},
		{table.Int(3), table.Float(75)},
		{table.Int(4), table.Float(375)},
		{table.Int(5), table.Float(500)},
		{table.Int(6), table.Null()}, // north: only a NULL amount
	})
}

func TestWindowRangePeersShareValue(t *testing.T) {
	c := testCatalog(t)
	// ORDER BY region groups peers: east{1,2} north{6} west{3,4,5}; the
	// default RANGE frame gives every peer the group-closing running value.
	q := "SELECT id, SUM(qty) OVER (ORDER BY region) AS rs FROM sales ORDER BY id"
	expectCells(t, q, queryBoth(t, c, q), [][]table.Value{
		{table.Int(1), table.Float(3)},
		{table.Int(2), table.Float(3)},
		{table.Int(3), table.Float(13)},
		{table.Int(4), table.Float(13)},
		{table.Int(5), table.Float(13)},
		{table.Int(6), table.Float(5)},
	})
}

func TestWindowRowsFrameMovingSum(t *testing.T) {
	c := testCatalog(t)
	// qty by id: 2, 1, 3, 4, 1, 2 — 3-row moving window.
	q := "SELECT id, SUM(qty) OVER (ORDER BY id ROWS BETWEEN 2 PRECEDING AND CURRENT ROW) AS ms FROM sales ORDER BY id"
	expectCells(t, q, queryBoth(t, c, q), [][]table.Value{
		{table.Int(1), table.Float(2)},
		{table.Int(2), table.Float(3)},
		{table.Int(3), table.Float(6)},
		{table.Int(4), table.Float(8)},
		{table.Int(5), table.Float(8)},
		{table.Int(6), table.Float(7)},
	})
}

func TestWindowRowsUnboundedEqualsRunning(t *testing.T) {
	c := testCatalog(t)
	// ROWS UNBOUNDED PRECEDING differs from the default RANGE frame on tied
	// keys: each row sees exactly its preceding rows, not its whole peer
	// group. qty sorted (stable by id): 1(id2) 1(id5) 2(id1) 2(id6) 3(id3) 4(id4).
	q := "SELECT id, COUNT(*) OVER (ORDER BY qty ROWS BETWEEN UNBOUNDED PRECEDING AND CURRENT ROW) AS n FROM sales ORDER BY id"
	expectCells(t, q, queryBoth(t, c, q), [][]table.Value{
		{table.Int(1), table.Int(3)},
		{table.Int(2), table.Int(1)},
		{table.Int(3), table.Int(5)},
		{table.Int(4), table.Int(6)},
		{table.Int(5), table.Int(2)},
		{table.Int(6), table.Int(4)},
	})
}

func TestWindowWholePartitionAggregate(t *testing.T) {
	c := testCatalog(t)
	q := "SELECT id, COUNT(*) OVER (PARTITION BY region) AS n, MAX(amount) OVER (PARTITION BY region) AS m FROM sales ORDER BY id"
	expectCells(t, q, queryBoth(t, c, q), [][]table.Value{
		{table.Int(1), table.Int(2), table.Float(250)},
		{table.Int(2), table.Int(2), table.Float(250)},
		{table.Int(3), table.Int(3), table.Float(300)},
		{table.Int(4), table.Int(3), table.Float(300)},
		{table.Int(5), table.Int(3), table.Float(300)},
		{table.Int(6), table.Int(1), table.Null()},
	})
}

func TestWindowInOrderByClause(t *testing.T) {
	c := testCatalog(t)
	q := "SELECT id FROM sales WHERE amount IS NOT NULL ORDER BY RANK() OVER (ORDER BY amount DESC), id"
	expectCells(t, q, queryBoth(t, c, q), [][]table.Value{
		{table.Int(4)}, {table.Int(2)}, {table.Int(5)}, {table.Int(1)}, {table.Int(3)},
	})
}

func TestWindowOverEmptyAndSingleRowInput(t *testing.T) {
	c := testCatalog(t)
	q := "SELECT id, ROW_NUMBER() OVER (ORDER BY id) AS rn, SUM(qty) OVER (PARTITION BY region ORDER BY id) AS rs FROM sales WHERE id > 100 ORDER BY id"
	expectCells(t, q, queryBoth(t, c, q), nil)
	q = "SELECT id, ROW_NUMBER() OVER (ORDER BY id) AS rn FROM sales WHERE id = 4"
	expectCells(t, q, queryBoth(t, c, q), [][]table.Value{{table.Int(4), table.Int(1)}})
}

func TestScalarSubqueryInWhere(t *testing.T) {
	c := testCatalog(t)
	// AVG(amount) = 170 over the five non-NULL rows.
	q := "SELECT id FROM sales WHERE amount > (SELECT AVG(amount) FROM sales) ORDER BY id"
	expectCells(t, q, queryBoth(t, c, q), [][]table.Value{{table.Int(2)}, {table.Int(4)}})
}

func TestScalarSubqueryZeroRowsIsNull(t *testing.T) {
	c := testCatalog(t)
	q := "SELECT id FROM sales WHERE amount > (SELECT amount FROM sales WHERE id = 99)"
	expectCells(t, q, queryBoth(t, c, q), nil)
	q = "SELECT (SELECT amount FROM sales WHERE id = 99) AS missing FROM sales WHERE id = 1"
	expectCells(t, q, queryBoth(t, c, q), [][]table.Value{{table.Null()}})
}

func TestScalarSubqueryMultiRowErrors(t *testing.T) {
	c := testCatalog(t)
	q := "SELECT id FROM sales WHERE amount > (SELECT amount FROM sales WHERE region = 'east')"
	_, vecErr := queryTable(c, q)
	_, scaErr := c.QueryScalar(q)
	for _, err := range []error{vecErr, scaErr} {
		if err == nil || !strings.Contains(err.Error(), "scalar subquery returned 2 rows") {
			t.Errorf("query %q: err = %v, want multi-row scalar subquery error", q, err)
		}
	}
}

func TestInSubquery(t *testing.T) {
	c := testCatalog(t)
	q := "SELECT id FROM sales WHERE product IN (SELECT name FROM products WHERE price > 100) ORDER BY id"
	expectCells(t, q, queryBoth(t, c, q), [][]table.Value{{table.Int(2)}, {table.Int(4)}})
	q = "SELECT id FROM sales WHERE product NOT IN (SELECT name FROM products WHERE price > 100) ORDER BY id"
	expectCells(t, q, queryBoth(t, c, q), [][]table.Value{
		{table.Int(1)}, {table.Int(3)}, {table.Int(5)}, {table.Int(6)},
	})
}

func TestSubqueryInSelectListAndNested(t *testing.T) {
	c := testCatalog(t)
	q := "SELECT id, (SELECT MAX(price) FROM products) AS top FROM sales WHERE id <= 2 ORDER BY id"
	expectCells(t, q, queryBoth(t, c, q), [][]table.Value{
		{table.Int(1), table.Float(250)},
		{table.Int(2), table.Float(250)},
	})
	// Nested: the inner subquery inlines first, then the outer.
	q = "SELECT id FROM sales WHERE qty > (SELECT MIN(qty) FROM sales WHERE amount > (SELECT AVG(amount) FROM sales)) ORDER BY id"
	// Inner AVG = 170 → rows {2,4} → MIN(qty) = 1 → qty > 1: ids 1, 3, 4, 6.
	expectCells(t, q, queryBoth(t, c, q), [][]table.Value{
		{table.Int(1)}, {table.Int(3)}, {table.Int(4)}, {table.Int(6)},
	})
}

func TestSimpleCaseForm(t *testing.T) {
	c := testCatalog(t)
	q := "SELECT id, CASE region WHEN 'east' THEN 1 WHEN 'west' THEN 2 ELSE 0 END AS rc FROM sales ORDER BY id"
	expectCells(t, q, queryBoth(t, c, q), [][]table.Value{
		{table.Int(1), table.Int(1)},
		{table.Int(2), table.Int(1)},
		{table.Int(3), table.Int(2)},
		{table.Int(4), table.Int(2)},
		{table.Int(5), table.Int(2)},
		{table.Int(6), table.Int(0)},
	})
	// NULL operand matches no WHEN (= NULL is unknown), falls to ELSE.
	q = "SELECT id, CASE amount WHEN 100 THEN 'hundred' ELSE 'other' END AS lbl FROM sales WHERE id IN (1, 6) ORDER BY id"
	expectCells(t, q, queryBoth(t, c, q), [][]table.Value{
		{table.Int(1), table.Str("hundred")},
		{table.Int(6), table.Str("other")},
	})
}

func TestHavingOverAliasAndExpressions(t *testing.T) {
	c := testCatalog(t)
	// Alias reference: total resolves to SUM(qty). east=3, west=8, north=2.
	q := "SELECT region, SUM(qty) AS total FROM sales GROUP BY region HAVING total > 2 ORDER BY region"
	expectCells(t, q, queryBoth(t, c, q), [][]table.Value{
		{table.Str("east"), table.Int(3)},
		{table.Str("west"), table.Int(8)},
	})
	// Arbitrary expression over aggregates, not just a bare comparison.
	q = "SELECT region, COUNT(*) AS n FROM sales GROUP BY region HAVING n * 2 >= 4 AND MAX(qty) > 1 ORDER BY region"
	expectCells(t, q, queryBoth(t, c, q), [][]table.Value{
		{table.Str("east"), table.Int(2)},
		{table.Str("west"), table.Int(3)},
	})
	// Group key referenced through its alias.
	q = "SELECT region AS r, COUNT(*) FROM sales GROUP BY region HAVING r <> 'north' ORDER BY r"
	expectCells(t, q, queryBoth(t, c, q), [][]table.Value{
		{table.Str("east"), table.Int(2)},
		{table.Str("west"), table.Int(3)},
	})
}

// TestWindowParseErrors pins the parser's window/subquery diagnostics —
// each malformed input must fail with a message that names the problem.
func TestWindowParseErrors(t *testing.T) {
	cases := []struct {
		sql, want string
	}{
		{"SELECT ROW_NUMBER() OVER (ORDER BY id FROM sales", "unclosed OVER ("},
		{"SELECT ROW_NUMBER() OVER (PARTITION region) FROM sales", "expected BY"},
		{"SELECT SUM(qty) OVER (ORDER BY id GROUPS) FROM sales", "unclosed OVER ("},
		{"SELECT RANK() OVER (PARTITION BY region) FROM sales", "RANK() requires ORDER BY"},
		{"SELECT ROW_NUMBER() FROM sales", "ROW_NUMBER requires an OVER clause"},
		{"SELECT ROW_NUMBER(id) OVER (ORDER BY id) FROM sales", "takes no arguments"},
		{"SELECT DENSE_RANK() OVER (ORDER BY id ROWS BETWEEN 2 PRECEDING AND CURRENT ROW) FROM sales", "does not accept a ROWS frame"},
		{"SELECT SUM(qty) OVER (PARTITION BY region ROWS BETWEEN 2 PRECEDING AND CURRENT ROW) FROM sales", "ROWS frame requires ORDER BY"},
		{"SELECT SUM(qty) OVER (ORDER BY id ROWS BETWEEN id PRECEDING AND CURRENT ROW) FROM sales", "expected UNBOUNDED or a row count"},
		{"SELECT SUM(DISTINCT qty) OVER (ORDER BY id) FROM sales", "DISTINCT is not supported in window function"},
		{"SELECT SUM(*) OVER (ORDER BY id) FROM sales", "not a valid window function"},
		{"SELECT SUM(qty, id) OVER (ORDER BY id) FROM sales", "exactly one argument"},
		{"SELECT MEDIAN(qty) OVER (ORDER BY id) FROM sales", "not a supported window function"},
		{"SELECT id FROM sales WHERE ROW_NUMBER() OVER (ORDER BY id) = 1", "not allowed"},
		{"SELECT SUM(qty) OVER (ORDER BY id), COUNT(*) FROM sales", "cannot be combined with GROUP BY or aggregates"},
		{"SELECT region, SUM(qty) OVER (ORDER BY id) FROM sales GROUP BY region", "cannot be combined with GROUP BY or aggregates"},
		{"SELECT SUM(SUM(qty)) OVER (ORDER BY id) FROM sales", "aggregates are not allowed inside a window function"},
		{"SELECT SUM(qty) OVER (ORDER BY ROW_NUMBER() OVER (ORDER BY id)) FROM sales", "nested"},
		{"SELECT SUM((SELECT MAX(qty) FROM sales)) OVER (ORDER BY id) FROM sales", "subqueries are not allowed inside a window function"},
		{"SELECT id FROM sales WHERE qty = (SELECT id, qty FROM sales)", "scalar subquery must return exactly one column, got 2"},
		{"SELECT id FROM sales WHERE qty IN (SELECT id, qty FROM sales)", "IN subquery must return exactly one column, got 2"},
		{"SELECT s.id FROM sales s JOIN products p ON ROW_NUMBER() OVER (ORDER BY s.id) = 1", "not allowed in JOIN ON"},
	}
	for _, tc := range cases {
		_, err := Parse(tc.sql)
		if err == nil {
			t.Errorf("Parse(%q): no error, want %q", tc.sql, tc.want)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("Parse(%q):\n  err  = %v\n  want substring %q", tc.sql, err, tc.want)
		}
	}
}

// TestWindowFingerprintBindRoundTrip proves the fingerprint normalizer is
// still semantics-preserving on the new surface: subquery literals extract
// into the shared slot space, frame bounds and select-list literals do
// not, and the bound template reproduces the inlined results through both
// evaluators.
func TestWindowFingerprintBindRoundTrip(t *testing.T) {
	c := testCatalog(t)
	queries := []string{
		"SELECT id FROM sales WHERE amount > (SELECT AVG(amount) FROM sales WHERE qty > 0) ORDER BY id",
		"SELECT id FROM sales WHERE product IN (SELECT name FROM products WHERE price > 100) AND qty < 9 ORDER BY id",
		"SELECT id, SUM(qty) OVER (ORDER BY id ROWS BETWEEN 2 PRECEDING AND CURRENT ROW) AS ms FROM sales WHERE id < 100 ORDER BY id",
		"SELECT id, CASE region WHEN 'east' THEN 1 ELSE 0 END AS rc FROM sales WHERE qty >= 1 ORDER BY id",
		"SELECT region, SUM(qty) AS total FROM sales GROUP BY region HAVING total > 2 ORDER BY region",
	}
	for _, q := range queries {
		tbl, err := queryTable(c, q)
		if err != nil {
			t.Fatalf("query %q: %v", q, err)
		}
		if _, vals, ok := Fingerprint(q); !ok || len(vals) == 0 {
			t.Fatalf("query %q: expected extractable literals (ok=%v, n=%d)", q, ok, len(vals))
		}
		diffBindVsInline(t, c, q, dumpTable(tbl))
	}
	// A ROWS frame bound must never be extracted as a parameter.
	tmpl, _, ok := Fingerprint("SELECT id, SUM(qty) OVER (ORDER BY id ROWS BETWEEN 2 PRECEDING AND CURRENT ROW) FROM sales WHERE id > 0")
	if !ok || !strings.Contains(tmpl, "ROWS BETWEEN 2 PRECEDING") {
		t.Errorf("frame bound was extracted: template %q", tmpl)
	}
	// A subquery's interior zones must not leak extraction into the outer
	// ORDER BY: the trailing positional 2 stays literal.
	tmpl, vals, ok := Fingerprint("SELECT region, id FROM sales WHERE qty IN (SELECT qty FROM sales LIMIT 3) ORDER BY 2")
	if !ok || !strings.HasSuffix(strings.TrimSpace(tmpl), "ORDER BY 2") {
		t.Errorf("subquery zone leaked into ORDER BY: template %q (values %v)", tmpl, vals)
	}
}
