package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"sync"
	"time"
)

// saturateMain measures how many requests per second the serve_ingest
// server sustains, which is what serve_ingest's open-loop rates are set
// from. Over one set-up as serve_ingest's, it runs three closed-loop
// phases, each with a short unmeasured warm-up: the query stream alone,
// both streams at once, and the ingest stream alone. The query phase runs
// first, on the base table; ingest grows the table, and queries slow as
// it grows. It prints each phase's completed requests per second, the
// table's rows when the phase began, and the share of the phase's rate
// that serve_ingest's configured rates offer.
//
//	perfbench saturate --seed 1 --seconds 10
func saturateMain(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("perfbench saturate", flag.ContinueOnError)
	seed := fs.Int64("seed", 1, "seed the base table is generated from")
	seconds := fs.Float64("seconds", 10, "measured seconds per phase")
	workDir := fs.String("workdir", ".bench_build/perfbench", "directory for the data directory")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *seconds <= 0 {
		return fmt.Errorf("--seconds must be positive")
	}
	ctx := context.Background()
	const warm = time.Second
	// Closed-loop fsynced ingest stays well under 2,000 batches a second.
	maxBatches := int(3*(*seconds+warm.Seconds())) * 2000
	env, err := openServe(ctx, *seed, *workDir, maxBatches, 1, false)
	if err != nil {
		return err
	}
	defer env.close()
	run := &serveRun{base: env.ls.url, seed: *seed, oracle: env.oracle,
		ingestClient: env.ingestClient, queryClient: env.queryClient}
	oc := &outcome{}
	if err := run.warmUp(ctx, oc); err != nil {
		return err
	}
	fmt.Fprintf(w, "%-8s %10s %12s %12s %14s %14s\n", "phase", "rows", "ingest req/s", "query req/s", "ingest offered", "query offered")
	for _, ph := range []struct {
		name          string
		ingest, query bool
	}{{"query", false, true}, {"both", true, true}, {"ingest", true, false}} {
		var ing, qry streamStats
		rows := env.oracle.base + run.ackedBatches.Load()*ingestBatchRows
		run.start = time.Now()
		run.measureFrom = run.start.Add(warm)
		run.end = run.measureFrom.Add(time.Duration(*seconds * float64(time.Second)))
		var wg sync.WaitGroup
		if ph.ingest {
			wg.Add(1)
			go func() { defer wg.Done(); run.ingestLoop(ctx, &ing) }()
		}
		if ph.query {
			wg.Add(1)
			go func() { defer wg.Done(); run.queryLoop(ctx, &qry) }()
		}
		wg.Wait()
		elapsed := time.Since(run.measureFrom).Seconds()
		for _, st := range []*streamStats{&ing, &qry} {
			if st.failed+st.refused > 0 || len(st.wrong) > 0 {
				return fmt.Errorf("phase %s: %d failed, %d refused, wrong: %v", ph.name, st.failed, st.refused, st.wrong)
			}
		}
		if len(oc.wrong) > 0 {
			return fmt.Errorf("warm-up: %v", oc.wrong)
		}
		ingRate, qryRate := float64(len(ing.lat))/elapsed, float64(len(qry.lat))/elapsed
		fmt.Fprintf(w, "%-8s %10d %12.1f %12.1f %14s %14s\n", ph.name, rows, ingRate, qryRate,
			share(ingestPerSec, ingRate), share(queriesPerSec, qryRate))
	}
	return nil
}

// share prints offered/capacity as a percentage, or "-" with no capacity.
func share(offered int, capacity float64) string {
	if capacity == 0 {
		return "-"
	}
	return fmt.Sprintf("%.0f%%", 100*float64(offered)/capacity)
}
