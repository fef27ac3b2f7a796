package main

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"strings"
	"testing"

	"datalab"
	"datalab/internal/sqlengine"
	"datalab/internal/table"
)

func TestSumModMatchesLoop(t *testing.T) {
	for _, tc := range [][3]int64{{0, 0, 97}, {0, 1, 97}, {5, 300, 97}, {1_000_000, 1_010_500, 97}, {96, 98, 97}, {3, 2, 7}} {
		want := int64(0)
		for u := tc[0]; u < tc[1]; u++ {
			want += u % tc[2]
		}
		if got := sumMod(tc[0], tc[1], tc[2]); got != want {
			t.Errorf("sumMod(%v) = %d, want %d", tc, got, want)
		}
	}
}

// TestIngestBatchesMatchOracle parses the JSONL the ingest connection
// sends and checks the oracle's closed forms against it.
func TestIngestBatchesMatchOracle(t *testing.T) {
	d := &warehouseData{dau: make([]int64, serveBaseRows), bg: make([]uint8, serveBaseRows)}
	o := newServeOracle(d, 3)
	var got [4][2]int64
	for k := 0; k < 3; k++ {
		lines := strings.Split(strings.TrimSpace(string(batchBody(o.base, k))), "\n")
		if len(lines) != ingestBatchRows {
			t.Fatalf("batch %d has %d rows", k, len(lines))
		}
		for _, l := range lines {
			var cells []any
			if err := json.Unmarshal([]byte(l), &cells); err != nil || len(cells) != 8 {
				t.Fatalf("row %q: %v", l, err)
			}
			g := indexOf(groupCodes, cells[3].(string))
			got[g][0]++
			got[g][1] += int64(cells[6].(float64))
		}
		if got != o.batchGroup[k+1] {
			t.Errorf("after %d batches: rows give %v, oracle %v", k+1, got, o.batchGroup[k+1])
		}
	}
	if _, err := o.visibleBatches(o.base+2*ingestBatchRows, 1, 3); err != nil {
		t.Errorf("a published boundary was rejected: %v", err)
	}
	for _, bad := range []struct {
		rows, lo, hi int64
	}{
		{o.base + ingestBatchRows + 1, 0, 3}, // not on a boundary
		{o.base + 2*ingestBatchRows, 3, 3},   // fewer batches than acknowledged
		{o.base + 3*ingestBatchRows, 0, 2},   // more batches than sent
		{o.base - 1, 0, 3},
	} {
		if _, err := o.visibleBatches(bad.rows, bad.lo, bad.hi); err == nil {
			t.Errorf("visibleBatches(%d, %d, %d) accepted", bad.rows, bad.lo, bad.hi)
		}
	}
}

func replyOf(body string) *http.Response {
	return &http.Response{StatusCode: 200, Body: io.NopCloser(strings.NewReader(body))}
}

func TestReadReplyValidatesEveryLine(t *testing.T) {
	good := `{"code":"startup","columns":["n"],"rows_total":2}
{"code":"progress","batch_seq":1,"batch_rows":2,"rows_sent":2,"rows":[[1],[2]]}
{"code":"ok","rows_total":2,"batches_total":1}
`
	var rep wireReply
	if err := readReply(replyOf(good), &rep); err != nil || len(rep.rows) != 2 {
		t.Fatalf("good reply: %v, %d rows", err, len(rep.rows))
	}
	for name, body := range map[string]string{
		"not json":       "{\"code\":\"startup\",\"columns\":[]}\nnot json\n",
		"unknown code":   `{"code":"surprise"}` + "\n",
		"no terminal":    `{"code":"startup","columns":[]}` + "\n",
		"bad rows_sent":  strings.Replace(good, `"rows_sent":2`, `"rows_sent":3`, 1),
		"bad batch_rows": strings.Replace(good, `"batch_rows":2`, `"batch_rows":1`, 1),
		"bad total":      strings.Replace(good, `"ok","rows_total":2`, `"ok","rows_total":5`, 1),
		"after terminal": good + `{"code":"ok"}` + "\n",
	} {
		var rep wireReply
		if err := readReply(replyOf(body), &rep); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestShapeOfRejectsMalformedAnswers(t *testing.T) {
	p := datalab.MustNew()
	if err := p.LoadRecords("t", []string{"a"}, [][]string{{"1"}, {"2"}}); err != nil {
		t.Fatal(err)
	}
	res, err := p.QueryCtx(context.Background(), "SELECT a FROM t")
	if err != nil {
		t.Fatal(err)
	}
	ok := &datalab.Answer{SQL: "SELECT a FROM t", Result: res, Columns: []string{"a"}, Rows: [][]string{{"1"}, {"2"}},
		ChartJSON: `{"mark":"bar"}`, AgentTrace: []string{"SQL Agent"}}
	if _, err := shapeOf(ok); err != nil {
		t.Fatalf("well-formed answer rejected: %v", err)
	}
	for name, mutate := range map[string]func(a *datalab.Answer){
		"nil result":  func(a *datalab.Answer) { a.Result = nil },
		"sql error":   func(a *datalab.Answer) { a.Err = errors.New("boom") },
		"bad chart":   func(a *datalab.Answer) { a.ChartJSON = "{" },
		"short rows":  func(a *datalab.Answer) { a.Rows = a.Rows[:1] },
		"no agents":   func(a *datalab.Answer) { a.AgentTrace = nil },
		"wrong width": func(a *datalab.Answer) { a.Columns = nil },
	} {
		a := *ok
		mutate(&a)
		if _, err := shapeOf(&a); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	if !isRefusal(errors.New(`comm: agent "SQL Agent" exhausted 5 calls: x`)) || isRefusal(errors.New("datalab: unknown table")) {
		t.Error("isRefusal misclassifies")
	}
}

// TestCheckersRejectWrongAnswers runs real queries and checks that each
// checker accepts the right answer and rejects a wrong one.
func TestCheckersRejectWrongAnswers(t *testing.T) {
	cat := sqlengine.NewCatalog()
	cat.Register(&table.Table{Name: "t", Columns: []table.Column{
		table.ColumnFromInts("id", []int64{0, 1, 2, 3}, nil),
		table.ColumnFromStrings("g", []string{"x", "y", "x", "y"}, nil),
		table.ColumnFromFloats("v", []float64{1.5, 2.5, 3.5, 4.5}, nil),
	}})
	run := func(sql string, check func(*sqlengine.Result) error) error {
		res, err := cat.QueryCtx(context.Background(), sql)
		if err != nil {
			t.Fatal(err)
		}
		return check(res)
	}
	for _, tc := range []struct {
		sql          string
		right, wrong func(*sqlengine.Result) error
	}{
		{"SELECT id, v FROM t WHERE v > 2", checkCountSum(3, 6, 0), checkCountSum(3, 5, 0)},
		{"SELECT g, COUNT(*), SUM(v) FROM t GROUP BY g",
			checkGroups(groupAcc{"x": {2, 5}, "y": {2, 7}}, 1),
			checkGroups(groupAcc{"x": {2, 5}, "y": {2, 7.001}}, 1)},
		{"SELECT id, v FROM t ORDER BY v DESC LIMIT 2", checkOrderedIDs([]int64{3, 2}), checkOrderedIDs([]int64{2, 3})},
		{"SELECT id, g, RANK() OVER (PARTITION BY g ORDER BY v DESC) FROM t",
			checkKnownRows(4, map[int64]float64{0: 2, 3: 1}, 2, 0),
			checkKnownRows(4, map[int64]float64{0: 1}, 2, 0)},
	} {
		if err := run(tc.sql, tc.right); err != nil {
			t.Errorf("%s: right answer rejected: %v", tc.sql, err)
		}
		if err := run(tc.sql, tc.wrong); err == nil {
			t.Errorf("%s: wrong answer accepted", tc.sql)
		}
	}
}

// TestWarehouseOraclesAgreeWithEngine runs one instance of every template
// on generated data: the engine and the oracles must agree.
func TestWarehouseOraclesAgreeWithEngine(t *testing.T) {
	if testing.Short() {
		t.Skip("generates a million-row table")
	}
	d := genWarehouse(7)
	insts := buildInstances(d, 7)
	var batches []float64
	cat, _, err := d.load(&batches)
	if err != nil {
		t.Fatal(err)
	}
	w := &whRunner{ctx: context.Background(), cat: cat, oc: &outcome{}, rtr: newRTReader()}
	for _, tpl := range insts {
		if _, err := w.exec(tpl[1], nil); err != nil {
			t.Fatal(err)
		}
	}
	for _, msg := range w.oc.wrong {
		t.Error(msg)
	}
}

// TestWorkloadsShortRun runs every workload briefly, untraced and traced:
// every answer must check out and every metric must be reported. Seed 1
// has a recorded ask_enterprise refusal digest, so the run checks it too.
func TestWorkloadsShortRun(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	for name, run := range workloads {
		for _, traced := range []bool{false, true} {
			cfg := config{workload: name, seed: 1, seconds: 0.5, trace: traced, workDir: t.TempDir()}
			var tr *tracer
			if traced {
				tr = newTracer()
			}
			oc, err := run(context.Background(), cfg, tr)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", name, traced, err)
			}
			if name == "ask_enterprise" && (oc.refusals == nil || oc.refusals.Digest != knownRefusals[1]) {
				t.Errorf("ask_enterprise trace=%v: refusals %+v, want digest %s", traced, oc.refusals, knownRefusals[1])
			}
			res := oc.result(traced)
			if !res.Correct || res.Failed != 0 {
				t.Errorf("%s trace=%v: correct=%v failed=%d wrong=%v", name, traced, res.Correct, res.Failed, oc.wrong)
			}
			want := endToEnd
			if traced {
				want = perLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, want %d", name, traced, len(res.Metrics), len(want))
			}
			for _, m := range want {
				if got, ok := res.Metrics[m.name]; !ok || got.Unit != m.unit {
					t.Errorf("%s trace=%v: metric %s = %+v", name, traced, m.name, got)
				}
			}
		}
	}
}

// TestWrongAnswerExitsNonZero drives the command with a workload whose
// answer is wrong.
func TestWrongAnswerExitsNonZero(t *testing.T) {
	workloads["always_wrong"] = func(context.Context, config, *tracer) (*outcome, error) {
		oc := &outcome{attempted: 1, lat: []float64{1}, busy: 1, setup: []float64{1}, rtOps: 1,
			ingestLat: [][]float64{{1}}, ingestRate: []float64{1}}
		oc.wrongf("deliberately wrong")
		return oc, nil
	}
	defer delete(workloads, "always_wrong")
	if code := benchMain([]string{"--workload", "always_wrong", "--seconds", "1", "-workdir", t.TempDir()}); code == 0 {
		t.Error("a wrong answer exited 0")
	}
	if code := benchMain([]string{"--workload", "nope"}); code == 0 {
		t.Error("an unknown workload exited 0")
	}
	if code := benchMain([]string{"--workload", "warehouse_sql", "--trace", "0", "-cpuprofile", "x"}); code == 0 {
		t.Error("a profile of an untraced run was not refused")
	}
}
