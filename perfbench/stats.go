package main

import (
	"bufio"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
)

// percentile returns the p-th percentile (0..100) of xs by linear
// interpolation between the closest ranks; NaN for an empty sample.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return percentile(xs, 50) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t / float64(len(xs))
}

// quartiles returns the first quartile, median and third quartile the way
// Python's statistics.quantiles(xs, n=4) does (its default "exclusive"
// method), so spreads computed here match the ones the acceptance rule
// uses. It needs at least two values.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return math.NaN(), math.NaN(), math.NaN()
	}
	if n == 1 {
		return s[0], s[0], s[0]
	}
	m := n + 1
	q := func(i int) float64 {
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(2), q(3)
}

// rtDelta is the Go runtime's accounting over a measured interval.
type rtDelta struct {
	allocBytes   float64
	allocObjects float64
	gcCPU        float64 // seconds
	totalCPU     float64 // seconds
}

var rtMetricNames = []string{
	"/gc/heap/allocs:bytes",
	"/gc/heap/allocs:objects",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

// rtSnapshot is a reading of rtMetricNames.
type rtSnapshot [4]float64

// rtReader reads the runtime metrics into a buffer it reuses, so a reading
// between two others adds no allocation of its own. Not safe for
// concurrent use.
type rtReader struct{ samples []metrics.Sample }

func newRTReader() *rtReader {
	r := &rtReader{samples: make([]metrics.Sample, len(rtMetricNames))}
	for i, n := range rtMetricNames {
		r.samples[i].Name = n
	}
	return r
}

func (r *rtReader) read() rtSnapshot {
	metrics.Read(r.samples)
	var out rtSnapshot
	for i, s := range r.samples {
		switch s.Value.Kind() {
		case metrics.KindUint64:
			out[i] = float64(s.Value.Uint64())
		case metrics.KindFloat64:
			out[i] = s.Value.Float64()
		}
	}
	return out
}

func (a rtSnapshot) to(b rtSnapshot) rtDelta {
	return rtDelta{
		allocBytes:   b[0] - a[0],
		allocObjects: b[1] - a[1],
		gcCPU:        b[2] - a[2],
		totalCPU:     b[3] - a[3],
	}
}

func (d *rtDelta) add(e rtDelta) {
	d.allocBytes += e.allocBytes
	d.allocObjects += e.allocObjects
	d.gcCPU += e.gcCPU
	d.totalCPU += e.totalCPU
}

// runtimeLayers adds the go.* per-layer metrics for ops operations.
func runtimeLayers(m map[string]metric, d rtDelta, ops int64) {
	ratio := 0.0
	if d.totalCPU > 0 {
		ratio = d.gcCPU / d.totalCPU
	}
	m["go.gc_cpu_ratio"] = metric{ratio, "ratio"}
	m["go.allocs_per_op"] = metric{d.allocObjects / float64(max(ops, 1)), "count"}
}

// startMeasuredPhase collects garbage, returns freed memory to the OS and
// resets the kernel's peak-RSS mark, so peakRSSMB reports the peak of the
// measured phase from the same starting point on every run. Set-up memory
// the program keeps is still resident, so it still counts.
func startMeasuredPhase() {
	runtime.GC()
	debug.FreeOSMemory()
	// Writing 5 to clear_refs resets VmHWM (Linux 4.0+). Elsewhere the
	// peak covers the whole run.
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMB reports the process's peak resident set size (VmHWM) in MiB,
// falling back to the Go runtime's total mapped memory off Linux.
func peakRSSMB() float64 {
	if f, err := os.Open("/proc/self/status"); err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
				kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
				if err == nil {
					return kb / 1024
				}
			}
		}
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.Sys) / (1 << 20)
}

// stepP95 is the 95th percentile over load steps of each step's median
// over the load phases. Every phase runs the same steps in the same
// order, so the median strips a step of the noise of any one phase.
func stepP95(phases [][]float64) float64 {
	if len(phases) == 0 {
		return math.NaN()
	}
	steps := len(phases[0])
	for _, ph := range phases {
		steps = min(steps, len(ph))
	}
	meds := make([]float64, steps)
	col := make([]float64, len(phases))
	for i := range meds {
		for p, ph := range phases {
			col[p] = ph[i]
		}
		meds[i] = median(col)
	}
	return percentile(meds, 95)
}
