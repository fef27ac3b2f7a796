package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func TestPairsWon(t *testing.T) {
	a := []sample{{1, 10}, {2, 10}, {3, 10}, {4, 10}}
	b := []sample{{4, 9}, {3, 10}, {2, 11}, {1, 8}}
	won, pairs := pairsWon(a, b, "lower")
	if won != 2 || pairs != 4 {
		t.Errorf("lower is better: won %d of %d, want 2 of 4 (the tie counts for neither)", won, pairs)
	}
	won, _ = pairsWon(a, b, "higher")
	if won != 1 {
		t.Errorf("higher is better: won %d, want 1", won)
	}
	// No shared seed: pairs form by seed order.
	won, pairs = pairsWon([]sample{{1, 5}, {2, 7}}, []sample{{11, 4}, {12, 8}}, "lower")
	if won != 1 || pairs != 2 {
		t.Errorf("unshared seeds: won %d of %d, want 1 of 2", won, pairs)
	}
}

func recordsOf(workload string, name string, values ...float64) []record {
	var out []record
	for i, v := range values {
		out = append(out, record{Workload: workload, Seed: int64(101 + i), Result: result{
			Correct: true, Attempted: 1, Metrics: map[string]metric{name: {v, "ms"}},
		}})
	}
	return out
}

func TestCompareVerdicts(t *testing.T) {
	bounds := map[string]float64{"latency_p50_ms": 0.1}
	parent := []float64{10, 10.2, 9.9, 10.1, 10, 9.8, 10.3, 10, 10.1, 9.9}
	faster := make([]float64, len(parent))
	slower := make([]float64, len(parent))
	for i, v := range parent {
		faster[i], slower[i] = v*0.8, v*1.2
	}
	for _, tc := range []struct {
		b    []float64
		want string
	}{
		{faster, "gain"},
		{slower, "regression"},
		{parent, "same"},
	} {
		rows := compareRecords(recordsOf("w", "latency_p50_ms", parent...), recordsOf("w", "latency_p50_ms", tc.b...), bounds)
		if len(rows) != 1 || !strings.HasPrefix(rows[0].verdict, tc.want) {
			t.Errorf("verdict = %+v, want %s", rows, tc.want)
		}
	}
	noisy := []float64{5, 15, 8, 12, 10, 6, 14, 9, 11, 10}
	rows := compareRecords(recordsOf("w", "latency_p50_ms", noisy...), recordsOf("w", "latency_p50_ms", noisy...), bounds)
	if !strings.HasPrefix(rows[0].verdict, "unresolved") {
		t.Errorf("noisy parent: verdict %q, want unresolved", rows[0].verdict)
	}
}

func TestCompareMainReadsRecordDirs(t *testing.T) {
	dirs := [2]string{t.TempDir(), t.TempDir()}
	for side, vals := range [][]float64{{10, 11, 12}, {5, 6, 7}} {
		for _, rec := range recordsOf("warehouse_sql", "latency_p50_ms", vals...) {
			raw, err := json.Marshal(rec)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(dirs[side], fmt.Sprintf("%s-%d.json", rec.Workload, rec.Seed)), raw, 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
	bench := filepath.Join(t.TempDir(), "BENCHMARK.json")
	if err := os.WriteFile(bench, []byte(`{"end_to_end": [{"name": "latency_p50_ms", "bound": 0.1}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := compareMain([]string{"-benchmark", bench, dirs[0], dirs[1]}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "latency_p50_ms") || !strings.Contains(out.String(), "3/3") || !strings.Contains(out.String(), "gain") {
		t.Errorf("compare output:\n%s", out.String())
	}
	// Without its bounds compare cannot call a regression, so a missing
	// file is an error rather than a silent "same".
	if err := compareMain([]string{"-benchmark", filepath.Join(dirs[0], "missing.json"), dirs[0], dirs[1]}, io.Discard); err == nil {
		t.Error("a missing BENCHMARK.json was not an error")
	}
}

func TestCompareFlagsRefusalDigests(t *testing.T) {
	withDigest := func(digests ...string) []record {
		recs := recordsOf("ask_enterprise", "latency_p50_ms", 1, 1, 1)
		for i := range recs {
			recs[i].Refusals = &refusals{Refused: 1, Questions: 2, Digest: digests[i]}
		}
		return recs
	}
	a := withDigest("aa", "bb", "cc")
	if d := refusalDiffs(a, withDigest("aa", "bb", "cc")); len(d) != 0 {
		t.Errorf("equal digests flagged: %v", d)
	}
	d := refusalDiffs(a, withDigest("aa", "xx", "cc"))
	if len(d) != 1 || !strings.Contains(d[0], "seed 102") {
		t.Errorf("diffs = %v, want seed 102 only", d)
	}
}

// TestBenchmarkJSONMatchesMetricLists keeps BENCHMARK.json and the metric
// lists the runs report in step.
func TestBenchmarkJSONMatchesMetricLists(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name, Why string } `json:"workloads"`
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json has %d workloads, the benchmark %d", len(spec.Workloads), len(workloads))
	}
	for _, w := range spec.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json workload %q is not implemented", w.Name)
		}
		if w.Name == "serve_ingest" {
			for _, want := range serveRateFacts() {
				if !strings.Contains(w.Why, want) {
					t.Errorf("serve_ingest why %q does not state %q", w.Why, want)
				}
			}
		}
	}
	if len(spec.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, the benchmark %d", len(spec.EndToEnd), len(endToEnd))
	}
	for i, m := range spec.EndToEnd {
		if l := endToEnd[i]; m.Name != l.name || m.Unit != l.unit || m.Better != l.better {
			t.Errorf("end_to_end[%d] = %+v, benchmark has %+v", i, m, l)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	if len(spec.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, the benchmark %d", len(spec.PerLayer), len(perLayer))
	}
	for i, m := range spec.PerLayer {
		if l := perLayer[i]; m.Name != l.name || m.Unit != l.unit || m.Better != l.better {
			t.Errorf("per_layer[%d] = %+v, benchmark has %+v", i, m, l)
		}
	}
}

// serveRateFacts are the phrases BENCHMARK.json's serve_ingest entry must
// contain: the open-loop rates, the query mix and the warm-up, as the
// workload runs them.
func serveRateFacts() []string {
	run := &serveRun{oracle: &serveOracle{base: serveBaseRows, dashLo: []int64{0}}}
	counts := map[string]int{}
	var order []string
	for i := 0; i < queryMixLen; i++ {
		name := run.queryMix(i).name
		if counts[name] == 0 {
			order = append(order, name)
		}
		counts[name]++
	}
	var mix []string
	for _, name := range order {
		mix = append(mix, fmt.Sprintf("%d %s", counts[name], name))
	}
	return []string{
		fmt.Sprintf("%d ingest req/s x %d rows", ingestPerSec, ingestBatchRows),
		fmt.Sprintf("%d query req/s (%s)", queriesPerSec, strings.Join(mix, "/")),
		fmt.Sprintf("%d s warm-up", int(serveWarmup/time.Second)),
		"fsync " + serveFsync,
	}
}
