package datalab

import (
	"testing"
)

// Window, CASE, and subquery benchmarks over the canonical 100k-row sales
// table. The window families measure the full pipeline the feature rides
// on — partitioning, the memcmp sort-key kernel per partition, and the
// shared accumulator — against the scalar reference at 10k (the scalar
// path re-evaluates keys row-at-a-time, so it gets the smaller table like
// the join benches). Run with:
//
//	go test -bench='Window|MovingSum|Case|Subquery' -benchmem

const (
	benchWindowRowNumberQuery = "SELECT id, ROW_NUMBER() OVER (PARTITION BY region ORDER BY amount DESC) FROM big"
	benchWindowRankQuery      = "SELECT id, RANK() OVER (ORDER BY qty), DENSE_RANK() OVER (ORDER BY qty) FROM big"
	benchMovingSumQuery       = "SELECT id, SUM(amount) OVER (PARTITION BY region ORDER BY id ROWS BETWEEN 100 PRECEDING AND CURRENT ROW) FROM big"
	benchRunningSumQuery      = "SELECT id, SUM(amount) OVER (PARTITION BY region ORDER BY id) FROM big"
	benchScalarSubqueryQuery  = "SELECT id FROM big WHERE amount > (SELECT AVG(amount) FROM big)"
	benchInSubqueryQuery      = "SELECT id FROM big WHERE product_id IN (SELECT pid FROM product WHERE price > 100.0)"
	benchCaseSimpleQuery      = "SELECT id, CASE region WHEN 'emea' THEN 1 WHEN 'apac' THEN 2 ELSE 0 END FROM big"
	benchCaseSearchedQuery    = "SELECT id, CASE WHEN amount > 750 THEN 'high' WHEN amount > 250 THEN 'mid' ELSE 'low' END FROM big"
)

func benchQuerySized(b *testing.B, q string, rows int, scalar bool) {
	b.Helper()
	cat := benchBigCatalog(rows)
	run := queryRunner(cat, scalar)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := run(q); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkWindowRowNumber100k(b *testing.B) {
	benchQuerySized(b, benchWindowRowNumberQuery, benchRows, false)
}
func BenchmarkWindowRowNumber10kScalar(b *testing.B) {
	benchQuerySized(b, benchWindowRowNumberQuery, 10_000, true)
}
func BenchmarkWindowRank100k(b *testing.B) {
	benchQuerySized(b, benchWindowRankQuery, benchRows, false)
}
func BenchmarkMovingSum100k(b *testing.B) { benchQuerySized(b, benchMovingSumQuery, benchRows, false) }
func BenchmarkWindowRunningSum100k(b *testing.B) {
	benchQuerySized(b, benchRunningSumQuery, benchRows, false)
}
func BenchmarkScalarSubquery100k(b *testing.B) {
	benchQuerySized(b, benchScalarSubqueryQuery, benchRows, false)
}
func BenchmarkInSubquery100k(b *testing.B) {
	benchQuerySized(b, benchInSubqueryQuery, benchRows, false)
}
func BenchmarkCaseSimple100k(b *testing.B) {
	benchQuerySized(b, benchCaseSimpleQuery, benchRows, false)
}
func BenchmarkCaseSearched100k(b *testing.B) {
	benchQuerySized(b, benchCaseSearchedQuery, benchRows, false)
}
