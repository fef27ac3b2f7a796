package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
)

// compareMain compares two sets of result records (files written with
// -out), e.g. the parent commit's runs in dirA and a change's in dirB.
// For every workload and metric present on both sides it prints each
// side's median and quartiles, the share of pairs B won (pairs match by
// seed; ties count for neither side), and a verdict:
//
//   - gain: B won at least 90% of the pairs and the medians differ, in B's
//     favour, by more than A's interquartile distance;
//   - regression: B's median is worse than A's by more than the metric's
//     bound from BENCHMARK.json (end-to-end metrics only);
//   - unresolved: A's own spread is wider than the bound, and not every B
//     run beats every A run;
//   - same: none of the above.
//
// It also checks that every seed run on both sides refused the same
// questions (ask_enterprise records a refusal digest), and fails,
// after printing the table, if any seed's digest differs.
func compareMain(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("perfbench compare", flag.ContinueOnError)
	benchPath := fs.String("benchmark", "BENCHMARK.json", "file with each end-to-end metric's bound")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 2 {
		return errors.New("usage: perfbench compare [-benchmark BENCHMARK.json] <dirA> <dirB>")
	}
	a, err := loadRecords(fs.Arg(0))
	if err != nil {
		return err
	}
	b, err := loadRecords(fs.Arg(1))
	if err != nil {
		return err
	}
	bounds, err := loadBounds(*benchPath)
	if err != nil {
		return err
	}
	rows := compareRecords(a, b, bounds)
	if len(rows) == 0 {
		return errors.New("no workload and metric appear on both sides")
	}
	fmt.Fprintf(w, "%-15s %-40s %-6s %-32s %-32s %-8s %s\n", "workload", "metric", "unit", "A median [q1, q3]", "B median [q1, q3]", "B won", "verdict")
	for _, r := range rows {
		fmt.Fprintf(w, "%-15s %-40s %-6s %-32s %-32s %-8s %s\n", r.workload, r.metric, r.unit,
			fmt.Sprintf("%.6g [%.6g, %.6g]", r.a[1], r.a[0], r.a[2]),
			fmt.Sprintf("%.6g [%.6g, %.6g]", r.b[1], r.b[0], r.b[2]),
			fmt.Sprintf("%d/%d", r.won, r.pairs), r.verdict)
	}
	if diffs := refusalDiffs(a, b); len(diffs) > 0 {
		for _, d := range diffs {
			fmt.Fprintln(w, d)
		}
		return fmt.Errorf("refusal digests differ on %d seed(s)", len(diffs))
	}
	return nil
}

// refusalDiffs lists every workload and seed whose refusal digest differs
// between the two sides.
func refusalDiffs(a, b []record) []string {
	type key struct {
		workload string
		seed     int64
	}
	digests := map[key]string{}
	for _, r := range a {
		if r.Refusals != nil {
			digests[key{r.Workload, r.Seed}] = r.Refusals.Digest
		}
	}
	var out []string
	for _, r := range b {
		if r.Refusals == nil {
			continue
		}
		if da, ok := digests[key{r.Workload, r.Seed}]; ok && da != r.Refusals.Digest {
			out = append(out, fmt.Sprintf("%s seed %d: refusal digest %s in A, %s in B", r.Workload, r.Seed, da, r.Refusals.Digest))
		}
	}
	sort.Strings(out)
	return out
}

func loadRecords(dir string) ([]record, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		return nil, err
	}
	if len(paths) == 0 {
		return nil, fmt.Errorf("no *.json result records in %s", dir)
	}
	var out []record
	for _, p := range paths {
		raw, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		var rec record
		if err := json.Unmarshal(raw, &rec); err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		out = append(out, rec)
	}
	return out, nil
}

// loadBounds reads each end-to-end metric's bound from BENCHMARK.json.
func loadBounds(path string) (map[string]float64, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var spec struct {
		EndToEnd []struct {
			Name  string  `json:"name"`
			Bound float64 `json:"bound"`
		} `json:"end_to_end"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	out := map[string]float64{}
	for _, m := range spec.EndToEnd {
		out[m.Name] = m.Bound
	}
	return out, nil
}

// comparison is one printed row.
type comparison struct {
	workload, metric, unit string
	a, b                   [3]float64 // q1, median, q3
	won, pairs             int
	verdict                string
}

// betterOf returns "higher" or "lower" for a metric name.
func betterOf(name string) string {
	for _, l := range endToEnd {
		if l.name == name {
			return l.better
		}
	}
	for _, l := range perLayer {
		if l.name == name {
			return l.better
		}
	}
	return "lower"
}

// sample is one run's value of a metric.
type sample struct {
	seed  int64
	value float64
}

func compareRecords(a, b []record, bounds map[string]float64) []comparison {
	type key struct {
		workload, metric string
		trace            bool
	}
	collect := func(recs []record) (map[key][]sample, map[key]string) {
		vals, units := map[key][]sample{}, map[key]string{}
		for _, r := range recs {
			for name, m := range r.Result.Metrics {
				k := key{r.Workload, name, r.Trace}
				vals[k] = append(vals[k], sample{r.Seed, m.Value})
				units[k] = m.Unit
			}
		}
		return vals, units
	}
	av, units := collect(a)
	bv, _ := collect(b)
	var keys []key
	for k := range av {
		if _, ok := bv[k]; ok {
			keys = append(keys, k)
		}
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].workload != keys[j].workload {
			return keys[i].workload < keys[j].workload
		}
		if keys[i].trace != keys[j].trace {
			return !keys[i].trace
		}
		return keys[i].metric < keys[j].metric
	})
	var out []comparison
	for _, k := range keys {
		better := betterOf(k.metric)
		c := comparison{workload: k.workload, metric: k.metric, unit: units[k]}
		as, bs := values(av[k]), values(bv[k])
		c.a[0], c.a[1], c.a[2] = quartiles(as)
		c.b[0], c.b[1], c.b[2] = quartiles(bs)
		c.won, c.pairs = pairsWon(av[k], bv[k], better)
		bound, hasBound := bounds[k.metric]
		c.verdict = verdict(c, as, bs, better, bound, hasBound && !k.trace)
		out = append(out, c)
	}
	return out
}

func values(s []sample) []float64 {
	out := make([]float64, len(s))
	for i, x := range s {
		out[i] = x.value
	}
	return out
}

// pairsWon pairs runs by seed (by order of seed when no seed is shared)
// and counts the pairs where b is better; ties count for neither.
func pairsWon(a, b []sample, better string) (won, pairs int) {
	bySeed := map[int64][]float64{}
	for _, s := range b {
		bySeed[s.seed] = append(bySeed[s.seed], s.value)
	}
	var pa, pb []float64
	for _, s := range a {
		if vs := bySeed[s.seed]; len(vs) > 0 {
			pa, pb = append(pa, s.value), append(pb, vs[0])
			bySeed[s.seed] = vs[1:]
		}
	}
	if len(pa) == 0 {
		sa, sb := append([]sample(nil), a...), append([]sample(nil), b...)
		sort.Slice(sa, func(i, j int) bool { return sa[i].seed < sa[j].seed })
		sort.Slice(sb, func(i, j int) bool { return sb[i].seed < sb[j].seed })
		for i := 0; i < min(len(sa), len(sb)); i++ {
			pa, pb = append(pa, sa[i].value), append(pb, sb[i].value)
		}
	}
	for i := range pa {
		if improves(pa[i], pb[i], better) {
			won++
		}
	}
	return won, len(pa)
}

// improves reports whether to is strictly better than from.
func improves(from, to float64, better string) bool {
	if better == "higher" {
		return to > from
	}
	return to < from
}

func verdict(c comparison, as, bs []float64, better string, bound float64, hasBound bool) string {
	aIQR := c.a[2] - c.a[0]
	if c.pairs > 0 && float64(c.won) >= 0.9*float64(c.pairs) &&
		improves(c.a[1], c.b[1], better) && math.Abs(c.b[1]-c.a[1]) > aIQR {
		return "gain"
	}
	if !hasBound || c.a[1] == 0 {
		return "same"
	}
	worse := (c.b[1] - c.a[1]) / math.Abs(c.a[1])
	if better == "higher" {
		worse = -worse
	}
	if worse > bound {
		return fmt.Sprintf("regression (%.1f%% worse, bound %.0f%%)", 100*worse, 100*bound)
	}
	if aIQR/math.Abs(c.a[1]) > bound && !allBetter(as, bs, better) {
		return "unresolved (A's spread exceeds the bound)"
	}
	return "same"
}

// allBetter reports whether every value of bs beats every value of as.
func allBetter(as, bs []float64, better string) bool {
	for _, a := range as {
		for _, b := range bs {
			if !improves(a, b, better) {
				return false
			}
		}
	}
	return true
}
