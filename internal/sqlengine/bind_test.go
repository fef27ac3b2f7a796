package sqlengine

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"
)

// TestPreparedExecParams covers the placeholder happy paths end to end:
// positional ?, named :name (with slot dedupe), LIMIT/OFFSET params, and
// NULL via a nil argument.
func TestPreparedExecParams(t *testing.T) {
	c := resultCatalog(100)
	ctx := context.Background()

	stmt, err := c.Prepare("SELECT id FROM facts WHERE region = ? AND qty > ? ORDER BY id")
	if err != nil {
		t.Fatal(err)
	}
	if stmt.NumParams() != 2 {
		t.Fatalf("NumParams = %d, want 2", stmt.NumParams())
	}
	res, err := stmt.Exec(ctx, "east", 9)
	if err != nil {
		t.Fatal(err)
	}
	want, err := queryTable(c, "SELECT id FROM facts WHERE region = 'east' AND qty > 9 ORDER BY id")
	if err != nil {
		t.Fatal(err)
	}
	if dumpResult(res) != dumpTable(want) {
		t.Fatal("bound result diverged from inlined literals")
	}

	// A named parameter used twice occupies one slot.
	named, err := c.Prepare("SELECT id FROM facts WHERE qty > :n AND id > :n ORDER BY id")
	if err != nil {
		t.Fatal(err)
	}
	if named.NumParams() != 1 {
		t.Fatalf("deduped NumParams = %d, want 1", named.NumParams())
	}
	b, err := named.BindNamed(map[string]any{"n": 7})
	if err != nil {
		t.Fatal(err)
	}
	res, err = b.Exec(ctx)
	if err != nil {
		t.Fatal(err)
	}
	want, err = queryTable(c, "SELECT id FROM facts WHERE qty > 7 AND id > 7 ORDER BY id")
	if err != nil {
		t.Fatal(err)
	}
	if dumpResult(res) != dumpTable(want) {
		t.Fatal("named binding diverged from inlined literals")
	}

	// LIMIT/OFFSET placeholders resolve per execution; the same prepared
	// statement serves different windows.
	lim, err := c.Prepare("SELECT id FROM facts ORDER BY id LIMIT ? OFFSET ?")
	if err != nil {
		t.Fatal(err)
	}
	for _, win := range [][2]int{{5, 0}, {3, 10}, {100, 95}} {
		res, err := lim.Exec(ctx, win[0], win[1])
		if err != nil {
			t.Fatal(err)
		}
		want, err := queryTable(c, fmt.Sprintf("SELECT id FROM facts ORDER BY id LIMIT %d OFFSET %d", win[0], win[1]))
		if err != nil {
			t.Fatal(err)
		}
		if dumpResult(res) != dumpTable(want) {
			t.Fatalf("LIMIT %d OFFSET %d diverged", win[0], win[1])
		}
	}

	// nil binds SQL NULL: = NULL matches nothing.
	nul, err := c.Prepare("SELECT id FROM facts WHERE amount = ?")
	if err != nil {
		t.Fatal(err)
	}
	res, err = nul.Exec(ctx, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.NumRows() != 0 {
		t.Fatalf("= NULL matched %d rows, want 0", res.NumRows())
	}
}

// TestBindErrors pins the binding failure modes and their messages:
// argument count mismatch, unrepresentable Go types, named/positional
// mixing, and LIMIT/OFFSET kind checks.
func TestBindErrors(t *testing.T) {
	c := resultCatalog(20)
	ctx := context.Background()

	stmt, err := c.Prepare("SELECT id FROM facts WHERE qty > ? AND region = ?")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := stmt.Exec(ctx, 1); err == nil || !strings.Contains(err.Error(), "2 parameter(s), got 1 argument(s)") {
		t.Fatalf("short arg list error = %v", err)
	}
	if _, err := stmt.Exec(ctx, 1, "east", "extra"); err == nil || !strings.Contains(err.Error(), "2 parameter(s), got 3 argument(s)") {
		t.Fatalf("long arg list error = %v", err)
	}
	if _, err := stmt.Bind(struct{ X int }{1}, "east"); err == nil || !strings.Contains(err.Error(), "cannot bind") {
		t.Fatalf("unsupported type error = %v", err)
	}
	if _, err := stmt.Bind(uint64(1<<63), "east"); err == nil || !strings.Contains(err.Error(), "overflows") {
		t.Fatalf("uint64 overflow error = %v", err)
	}

	// Executing with no arguments at all is the classic "forgot to bind".
	if _, err := stmt.Exec(ctx); err == nil || !strings.Contains(err.Error(), "2 parameter(s), got 0 argument(s)") {
		t.Fatalf("unbound exec error = %v", err)
	}

	// LIMIT/OFFSET params require non-negative integers — kind and range
	// are checked at bind resolution, before any rows are scanned.
	lim, err := c.Prepare("SELECT id FROM facts LIMIT ?")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := lim.Exec(ctx, "ten"); err == nil || !strings.Contains(err.Error(), "LIMIT requires a non-negative integer") {
		t.Fatalf("string LIMIT error = %v", err)
	}
	if _, err := lim.Exec(ctx, -1); err == nil || !strings.Contains(err.Error(), "LIMIT requires a non-negative integer") {
		t.Fatalf("negative LIMIT error = %v", err)
	}
	if _, err := lim.Exec(ctx, 2.5); err == nil || !strings.Contains(err.Error(), "LIMIT requires a non-negative integer") {
		t.Fatalf("float LIMIT error = %v", err)
	}

	off, err := c.Prepare("SELECT id FROM facts LIMIT 5 OFFSET :o")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := off.Exec(ctx, false); err == nil || !strings.Contains(err.Error(), "OFFSET requires a non-negative integer") {
		t.Fatalf("bool OFFSET error = %v", err)
	}

	// Named binding: every name present, no extras, no mixing.
	named, err := c.Prepare("SELECT id FROM facts WHERE qty > :n")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := named.BindNamed(map[string]any{}); err == nil || !strings.Contains(err.Error(), "missing argument for :n") {
		t.Fatalf("missing named arg error = %v", err)
	}
	if _, err := named.BindNamed(map[string]any{"n": 1, "ghost": 2}); err == nil || !strings.Contains(err.Error(), ":ghost does not name a parameter") {
		t.Fatalf("extra named arg error = %v", err)
	}
	if _, err := stmt.BindNamed(map[string]any{"n": 1}); err == nil || !strings.Contains(err.Error(), "positional") {
		t.Fatalf("BindNamed over positional slots error = %v", err)
	}
}

// TestPlanCacheConcurrentStress hammers one template from many
// goroutines with distinct literals under -race: the cache must converge
// to a single entry (hit rate >= 0.99), report no lost updates, and every
// concurrent result must equal its serially-computed counterpart.
func TestPlanCacheConcurrentStress(t *testing.T) {
	c := resultCatalog(200)
	ctx := context.Background()
	const goroutines = 8
	const perG = 100

	// Serial reference results, computed before any concurrency, through
	// a separate catalog so cache stats stay clean.
	ref := resultCatalog(200)
	want := make([]string, perG)
	for i := 0; i < perG; i++ {
		tbl, err := queryTable(ref, fmt.Sprintf("SELECT id, amount FROM facts WHERE qty > %d AND id < %d ORDER BY id", i%13, i+50))
		if err != nil {
			t.Fatal(err)
		}
		want[i] = dumpTable(tbl)
	}

	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				res, err := c.QueryCtx(ctx, fmt.Sprintf("SELECT id, amount FROM facts WHERE qty > %d AND id < %d ORDER BY id", i%13, i+50))
				if err != nil {
					errs <- err
					return
				}
				if got := dumpResult(res); got != want[i] {
					errs <- fmt.Errorf("concurrent result %d diverged from serial reference", i)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	st := c.PlanCacheStats()
	total := st.Hits + st.Misses
	if total != goroutines*perG {
		t.Fatalf("lost lookups: %d hits + %d misses = %d, want %d", st.Hits, st.Misses, total, goroutines*perG)
	}
	if hr := st.HitRate(); hr < 0.99 {
		t.Fatalf("hit rate %.4f under concurrent template traffic, want >= 0.99", hr)
	}
	if st.Size != 1 {
		t.Fatalf("cache holds %d entries for one template, want 1", st.Size)
	}
	if st.Fingerprints != int64(goroutines*perG) {
		t.Fatalf("fingerprinted lookups = %d, want %d", st.Fingerprints, goroutines*perG)
	}
}

// TestPlanCacheConcurrentEviction drives concurrent traffic over more
// distinct templates than the cache holds: under LRU churn no entry may
// be lost mid-lookup (every query still answers correctly), the size must
// respect the cap, and accounting must stay exact.
func TestPlanCacheConcurrentEviction(t *testing.T) {
	c := resultCatalog(50)
	ctx := context.Background()
	const goroutines = 8
	const templates = DefaultPlanCacheSize + 40
	const perG = 400

	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				// Distinct aliases make structurally distinct templates;
				// the literal varies independently so fingerprinting and
				// eviction churn at the same time.
				tpl := (g*perG + i) % templates
				q := fmt.Sprintf("SELECT id AS c%d FROM facts WHERE id < %d", tpl, i%50)
				res, err := c.QueryCtx(ctx, q)
				if err != nil {
					errs <- err
					return
				}
				if n := int(res.NumRows()); n != i%50 {
					errs <- fmt.Errorf("query %q returned %d rows, want %d", q, n, i%50)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	st := c.PlanCacheStats()
	if st.Size > st.Cap {
		t.Fatalf("cache size %d exceeds cap %d", st.Size, st.Cap)
	}
	if st.Hits+st.Misses != goroutines*perG {
		t.Fatalf("lost lookups: %d + %d != %d", st.Hits, st.Misses, goroutines*perG)
	}
	if st.Evictions == 0 {
		t.Fatal("no evictions under over-capacity churn")
	}
}

// TestBoundHandleConcurrentReuse: one Bound handle is immutable and may
// be executed from many goroutines at once; a sibling handle with
// different arguments sharing the same *Prepared must not interfere —
// the per-execution binding slice is the isolation boundary.
func TestBoundHandleConcurrentReuse(t *testing.T) {
	c := resultCatalog(120)
	ctx := context.Background()
	stmt, err := c.Prepare("SELECT COUNT(*) FROM facts WHERE qty > ?")
	if err != nil {
		t.Fatal(err)
	}
	counts := make([]int64, 13)
	for q := range counts {
		res, err := stmt.Exec(ctx, q)
		if err != nil {
			t.Fatal(err)
		}
		v, ok := res.Next().Int64(0, 0)
		if !ok {
			t.Fatal("COUNT(*) not an int")
		}
		counts[q] = v
	}
	var wg sync.WaitGroup
	errs := make(chan error, 16)
	for g := 0; g < 16; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			b, err := stmt.Bind(g % 13)
			if err != nil {
				errs <- err
				return
			}
			for i := 0; i < 50; i++ {
				res, err := b.Exec(ctx)
				if err != nil {
					errs <- err
					return
				}
				v, ok := res.Next().Int64(0, 0)
				if !ok || v != counts[g%13] {
					errs <- fmt.Errorf("goroutine %d: COUNT = %d, want %d", g, v, counts[g%13])
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestQueryScalarUsesPlanCache: QueryScalar routes through the
// fingerprinted plan cache like Query, so literal-varying scalar traffic
// parses its template exactly once. (The differential fuzz harness keeps
// a genuinely raw-parsed inline executor via Parse+ExecuteScalar, so this
// no longer needs QueryScalar to stay raw.) Pinned on the ParseCalls
// counter: 50 literal variants must cost one template parse.
func TestQueryScalarUsesPlanCache(t *testing.T) {
	c := resultCatalog(30)
	before := c.PlanCacheStats()
	// Warm the template with a literal shape the fingerprint normalizes.
	if _, err := c.QueryScalar("SELECT id FROM facts WHERE id < 7"); err != nil {
		t.Fatal(err)
	}
	after := c.PlanCacheStats()
	if after.Fingerprints == before.Fingerprints {
		t.Fatal("QueryScalar bypassed the fingerprint cache path")
	}
	p0 := ParseCalls()
	for i := 0; i < 50; i++ {
		res, err := c.QueryScalar(fmt.Sprintf("SELECT id FROM facts WHERE id < %d", i))
		if err != nil {
			t.Fatal(err)
		}
		if res.NumRows() != min(i, 30) {
			t.Fatalf("literal %d: got %d rows", i, res.NumRows())
		}
	}
	if d := ParseCalls() - p0; d != 0 {
		t.Fatalf("50 QueryScalar literal variants cost %d parses, want 0 (template already cached)", d)
	}
}
