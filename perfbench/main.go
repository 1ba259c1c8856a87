// Command perfbench is the repository benchmark: it plans, deploys and
// serves through the simulator's public entry points and reports two
// kinds of time, each named as such — host time (what the simulator
// costs its user) and simulated time and dollars (what the modelled
// serverless deployment would cost). See README.md for the workloads,
// the metrics and the layer each per-layer metric belongs to.
//
//	perfbench --workload stream-steady --seed 1 --seconds 30 --trace 0
//
// Every iteration of a run starts from a fresh deployment. The last line
// of standard output is one JSON object: {"correct", "attempted",
// "failed", "metrics"}. With --trace 0 the metrics are the end-to-end
// set; with --trace 1 they are the per-layer set, taken from a run that
// alternates traced and untraced iterations so it can also report its
// own overhead.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"time"
)

// minIterations is the fewest measured iterations a run makes, however
// short --seconds is, so every reported median has at least three
// samples. maxRun caps a run's wall clock well under the three-minute
// limit a run must end within.
const (
	minIterations = 3
	maxRun        = 150 * time.Second
)

// sliceQuantile is the quantile of the steady serves' slice rates that
// stream-steady reports as host_req_per_s.
const sliceQuantile = 0.95

// spanDir is where a traced run writes its spans, relative to the
// checkout root the benchmark runs from.
var spanDir = filepath.Join(".bench_build", "perfbench")

// iteration is what one fresh-state iteration of a workload reports.
type iteration struct {
	// Host times.
	setup time.Duration // weights + plan + deploy (+ probe, fallback)
	plan  time.Duration // optimizer.New + Optimize, summed
	// serve is the host time spent inside serving calls (ServeStream,
	// or RunEager on cold-zoo), which settled requests requests.
	serve    time.Duration
	requests int
	// slices are the host rates, req/s, of the serve's successive
	// sliceArrivals-arrival slices (stream-steady only).
	slices []float64
	// peakRSS is the process's high-water RSS during the iteration, MB.
	peakRSS float64
	// measured is the phase the traced run's overhead figure compares:
	// the serve on the streams, the whole pass on cold-zoo. It excludes
	// the traced-only SplitWeights calls (see splitWeights).
	measured time.Duration
	// extra is the host time of those calls.
	extra time.Duration

	// sim holds the simulated end-to-end metrics, which must repeat
	// exactly across the iterations of one seed.
	sim map[string]float64
	// layer holds per-layer work counts and spans (traced iterations).
	layer map[string]float64
	// actBytes are the mean S3 object sizes (bytes per PUT) the
	// iteration's deployments staged; the S3 probe moves objects of
	// their median size.
	actBytes []float64
}

// runner runs one fresh-state iteration of a workload.
type runner func(b *bench) (*iteration, error)

// spec is a workload: an optional once-per-run check plus the iteration.
type spec struct {
	prepare func(b *bench) error
	iterate runner
}

var workloads = map[string]spec{
	"stream-steady":   {computeCheck, streamSteady},
	"stream-overload": {computeCheck, streamOverload},
	"cold-zoo":        {nil, coldZoo},
}

// bench is the state one run shares across its iterations.
type bench struct {
	seed int64
	// tr records spans and the CPU profile; nil on untraced iterations.
	tr *tracer
	// checks collects failed correctness checks.
	checks []string
	// infer holds the host time of each warm real-compute mobilenet
	// inference, and gflops its computed FLOPs over that time.
	infer  []time.Duration
	gflops []float64
	// rig is the stream runs' real-compute deployment (nil on cold-zoo).
	rig *computeRig
}

func (b *bench) failf(format string, args ...any) {
	b.checks = append(b.checks, fmt.Sprintf(format, args...))
}

func main() {
	name := flag.String("workload", "", "workload: stream-steady, stream-overload or cold-zoo")
	seed := flag.Int64("seed", 1, "workload seed: arrivals, inputs, weights and fault draws")
	seconds := flag.Int("seconds", 30, "how long to keep starting measured iterations")
	trace := flag.Int("trace", 0, "1 = per-layer run (spans, CPU profile, counters, probes)")
	flag.Parse()

	wl, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %d, trace %d)\n", *name, *seconds, *trace)
		flag.Usage()
		os.Exit(2)
	}
	// The serve loop is one goroutine; only the planner's table build
	// and the tensor kernels fan out. Capping at two keeps figures
	// comparable between machines with more cores.
	if runtime.GOMAXPROCS(0) > 2 {
		runtime.GOMAXPROCS(2)
	}

	b := &bench{seed: *seed}
	var err error
	if wl.prepare != nil {
		err = wl.prepare(b)
	}
	var iters, traced, untraced []*iteration
	if err == nil {
		iters, traced, untraced, err = measure(b, wl.iterate, time.Duration(*seconds)*time.Second, *trace == 1)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
		os.Exit(1)
	}
	checkRepeats(b, iters)

	var metrics map[string]metric
	if *trace == 1 {
		metrics = layerMetrics(b, traced, untraced)
		if err := b.tr.writeSpans(spanDir, *name, *seed); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: writing spans: %v\n", err)
			os.Exit(1)
		}
	} else {
		metrics = endToEnd(b, iters)
	}

	res := result{
		Correct:   len(b.checks) == 0,
		Attempted: len(iters),
		Metrics:   metrics,
	}
	if !res.Correct {
		res.Failed = len(iters)
	}
	names := make([]string, 0, len(metrics))
	for k := range metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Printf("%-36s %16.6g %s\n", k, metrics[k].Value, metrics[k].Unit)
	}
	for _, c := range b.checks {
		fmt.Fprintf(os.Stderr, "perfbench: check failed: %s\n", c)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// measure runs fresh-state iterations until the time budget is spent
// (and at least minIterations ran). A traced run alternates untraced
// and traced iterations, starting untraced, so the two halves give the
// tracing overhead; its per-layer figures come from the traced half.
func measure(b *bench, wl runner, budget time.Duration, trace bool) (all, traced, untraced []*iteration, err error) {
	if budget > maxRun {
		budget = maxRun
	}
	var tr *tracer
	if trace {
		tr = newTracer()
	}
	start := time.Now()
	for i := 0; ; i++ {
		on := trace && i%2 == 1
		b.tr = nil
		if on {
			b.tr = tr
		}
		mark := tr.mark()
		// Start each iteration from a returned heap and a reset
		// high-water mark, so its peak RSS is its own.
		debug.FreeOSMemory()
		resetPeakRSS()
		end := b.tr.begin("iteration")
		it, err := wl(b)
		end()
		if err != nil {
			return nil, nil, nil, fmt.Errorf("iteration %d: %w", i, err)
		}
		it.peakRSS = peakRSSMB()
		all = append(all, it)
		if on {
			recordSpans(tr, it, mark)
			traced = append(traced, it)
		} else {
			untraced = append(untraced, it)
		}
		elapsed := time.Since(start)
		enough := len(all) >= minIterations && (!trace || len(traced) >= minIterations)
		// Stop once the budget is spent, or when one more iteration of
		// the average length would overrun the hard cap.
		avg := elapsed / time.Duration(len(all))
		if enough && (elapsed >= budget || elapsed+avg > maxRun) {
			break
		}
	}
	b.tr = tr
	return all, traced, untraced, nil
}

// checkRepeats fails the run unless every simulated metric repeats
// exactly across its iterations: they all ran the same seed from a
// fresh deployment, so any difference is nondeterminism.
func checkRepeats(b *bench, iters []*iteration) {
	first := iters[0].sim
	for i, it := range iters[1:] {
		for k, v := range first {
			if w, ok := it.sim[k]; !ok || w != v {
				b.failf("%s differs between iterations 0 and %d: %v vs %v", k, i+1, v, w)
			}
		}
	}
}

// endToEnd reduces the iterations to the end-to-end metrics: host
// times as medians over iterations, simulated figures as the (repeated)
// values of the seed.
func endToEnd(b *bench, iters []*iteration) map[string]metric {
	sec := func(f func(*iteration) time.Duration) float64 {
		vals := make([]float64, 0, len(iters))
		for _, it := range iters {
			vals = append(vals, f(it).Seconds())
		}
		return median(vals)
	}
	rates := make([]float64, 0, len(iters))
	var slices []float64
	rss := make([]float64, 0, len(iters))
	for _, it := range iters {
		rates = append(rates, float64(it.requests)/it.serve.Seconds())
		slices = append(slices, it.slices...)
		rss = append(rss, it.peakRSS)
	}
	rate := median(rates)
	if len(slices) > 0 {
		// Interference from other tenants of a shared host only ever
		// slows a slice down, and on stream-steady it moved the median
		// rate by up to a third between runs of the same code; the
		// fast end of thousands of equal slices is what the program
		// itself sustains. See README.md, host_req_per_s on
		// stream-steady.
		rate = quantile(slices, sliceQuantile)
	}
	m := map[string]metric{
		"setup_s":        {sec(func(it *iteration) time.Duration { return it.setup }), "s"},
		"plan_s":         {sec(func(it *iteration) time.Duration { return it.plan }), "s"},
		"infer_s":        {median(seconds(b.infer)), "s"},
		"host_req_per_s": {rate, "req/s"},
		"peak_rss_mb":    {median(rss), "MB"},
	}
	for k, v := range iters[0].sim {
		m[k] = metric{v, simUnits[k]}
	}
	return m
}

// simUnits names the unit of every simulated metric; "sim_s" marks
// seconds on the simulated clock, never host time.
var simUnits = map[string]string{
	"sim_latency_p50_s":  "sim_s",
	"sim_latency_p99_s":  "sim_s",
	"sim_completion_s":   "sim_s",
	"sim_usd_per_1k_req": "usd/1k_req",
	"sim_goodput_ratio":  "ratio",
	"answered_ratio":     "ratio",
}

// resetPeakRSS resets the process's high-water RSS (Linux 4.0 and
// later). Where that is not possible the high-water mark stays
// process-wide, which only makes peak_rss_mb coarser.
func resetPeakRSS() {
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMB reads the process's high-water resident set (VmHWM).
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}

func seconds(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}

// quantile returns the nearest-rank p-quantile of vals, 0 < p ≤ 1.
func quantile(vals []float64, p float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	i := int(math.Ceil(p*float64(len(s)))) - 1
	return s[max(i, 0)]
}

func median(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
