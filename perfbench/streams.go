package main

import (
	"fmt"
	"math"
	"runtime"
	"time"

	"ampsinf/internal/cloud/billing"
	"ampsinf/internal/cloud/faults"
	"ampsinf/internal/cloud/lambda"
	"ampsinf/internal/cloud/pricing"
	"ampsinf/internal/cloud/s3"
	"ampsinf/internal/coordinator"
	"ampsinf/internal/modelfmt"
	"ampsinf/internal/nn"
	"ampsinf/internal/nn/zoo"
	"ampsinf/internal/obs"
	"ampsinf/internal/optimizer"
	"ampsinf/internal/perf"
	"ampsinf/internal/serving"
	"ampsinf/internal/sim"
	"ampsinf/internal/tensor"
	"ampsinf/internal/workload"
)

// Stream workload sizes. Each serve is a fixed number of requests so
// its simulated figures are a function of the seed alone; the sizes
// keep one serve near a host second on a 2-core x86 box, so a run
// takes several serves.
const (
	steadyRequests   = 30000
	overloadRequests = 30000
	// sliceArrivals is how many arrivals one timed slice of a steady
	// serve spans (see sliceClock).
	sliceArrivals = 500
	// layerCap is the per-partition layer cap of the stream plan: it
	// gives full-resolution MobileNet seven partitions, so every
	// request crosses seven functions and six S3 hand-offs.
	layerCap = 12
	// inputPool is how many distinct seeded images the requests cycle
	// through (tensor contents go unread under SkipCompute; shapes and
	// sizes are what the simulator bills).
	inputPool = 4
)

// env is one isolated simulated cloud.
type env struct {
	meter *billing.Meter
	pl    *lambda.Platform
	store *s3.Store
	mx    *obs.Metrics
	ts    *obs.TimeSeries
	// charges counts meter charges; only traced iterations install the
	// observer that increments it.
	charges int64
}

// newEnv builds a fresh cloud. With telemetry, a metrics registry is
// attached to the platform and store and, for window > 0, a time
// series to the platform.
func newEnv(q pricing.Quota, telemetry bool, window time.Duration, countCharges bool) *env {
	e := &env{meter: &billing.Meter{}}
	e.pl = lambda.NewWithQuota(e.meter, perf.Default(), q)
	e.store = s3.New(s3.DefaultConfig(), e.meter)
	if telemetry {
		e.mx = obs.NewMetrics()
		e.pl.SetMetrics(e.mx)
		e.store.SetMetrics(e.mx)
	}
	if window > 0 {
		e.ts = obs.NewTimeSeries(window)
		// A bounded ring: the stream's frames are watched live, not kept.
		e.ts.SetRetention(64)
		e.pl.SetSeries(e.ts)
	}
	if countCharges {
		e.meter.SetObserver(func(string, float64) { e.charges++ })
	}
	return e
}

func streamSteady(b *bench) (*iteration, error) { return runStream(b, false) }

func streamOverload(b *bench) (*iteration, error) { return runStream(b, true) }

// runStream is one iteration of either stream workload: a fresh
// MobileNet deployment, then one ServeStream of a fixed seeded trace.
func runStream(b *bench, overload bool) (*iteration, error) {
	end := b.tr.begin("model:mobilenet")
	defer end()
	it := &iteration{layer: map[string]float64{}}
	if err := b.rig.infer(b); err != nil {
		return nil, err
	}
	m, err := zoo.Build("mobilenet", 0)
	if err != nil {
		return nil, err
	}
	pool := workload.Images(m, inputPool, b.seed)
	input := func(i int) *tensor.Tensor { return pool[i%inputPool] }

	runtime.GC()
	setupStart := time.Now()
	end = b.tr.begin("nn.InitWeights")
	w := nn.InitWeights(m, b.seed)
	end()
	planStart := time.Now()
	end = b.tr.begin("optimizer.New")
	o, err := optimizer.New(optimizer.Request{Model: m, Perf: perf.Default(), MaxLayersPerPartition: layerCap})
	end()
	if err != nil {
		return nil, err
	}
	end = b.tr.begin("optimizer.Optimize")
	plan, err := o.Optimize()
	end()
	if err != nil {
		return nil, err
	}
	it.plan = time.Since(planStart)

	// A clean warm probe on a throwaway cloud: the second of two
	// back-to-back eager runs, with no faults and no policies.
	warm, err := warmProbe(b, m, w, plan, pool[0])
	if err != nil {
		return nil, err
	}

	limit, window := 256, time.Second
	if overload {
		limit, window = 64, 2*time.Second
	}
	e := newEnv(pricing.Quota2020(), true, window, b.tr != nil)
	e.pl.SetAccountConcurrency(limit)
	var inj *faults.Injector
	dcfg := coordinator.Config{
		Platform: e.pl, Store: e.store, NamePrefix: "bench", SkipCompute: true,
		Metrics: e.mx, Series: e.ts,
	}
	scfg := serving.Config{
		Throttle: serving.ThrottlePolicy{JitterSeed: b.seed},
		Metrics:  e.mx,
		Series:   e.ts,
	}
	if overload {
		// The deadline is fixed from the clean warm probe, as
		// RunOverload calibrates it; 4× keeps clear of the shed lock-out
		// (README.md, known defects).
		deadline := 4 * warm
		fc := faults.Uniform(0.03, b.seed)
		fc.Domains = 3
		fc.DomainOutageEvery = 250 * time.Second
		fc.DomainOutageLength = 60 * time.Second
		inj = faults.New(fc)
		e.pl.SetInjector(inj)
		e.store.SetInjector(inj)
		inj.SetClock(e.pl.Now)

		retry := coordinator.DefaultRetryPolicy()
		retry.MaxAttempts = 8
		retry.JitterSeed = b.seed
		dcfg.Retry = retry
		dcfg.Hedge = coordinator.HedgePolicy{
			Percentile: 99, Delay: warm * 5 / 4, MinSamples: 8, MaxRate: 0.25, JitterSeed: b.seed,
		}
		dcfg.Breaker = coordinator.BreakerPolicy{
			FailureRate: 0.8, MinSamples: 8, Window: 10 * time.Second, OpenFor: 2 * time.Second,
		}
		dcfg.Budget = coordinator.BudgetPolicy{MaxTokens: 12, EarnPerSuccess: 0.25}

		scfg.Pipeline = serving.PipelinePolicy{Depth: 3}
		scfg.Batch = serving.BatchPolicy{MaxBatch: 4, Window: 200 * time.Millisecond, JitterSeed: b.seed}
		scfg.SLO = serving.SLOPolicy{Deadline: deadline, Shed: true, TolerateFailures: true}
		scfg.Brownout = serving.BrownoutPolicy{
			Enabled: true, P99: deadline, BadFraction: 0.25, StepUpAfter: 2, StepDownAfter: 3,
		}
	}
	end = b.tr.begin("coordinator.Deploy")
	dep, err := coordinator.Deploy(dcfg, m, w, plan)
	end()
	if err != nil {
		return nil, err
	}
	defer dep.Teardown()
	scfg.Deployment = dep
	if overload {
		fcfg := dcfg
		fcfg.NamePrefix = "bench-fallback"
		fcfg.QuantizeBits = 8
		end = b.tr.begin("coordinator.Deploy")
		fb, err := coordinator.Deploy(fcfg, m, w, plan)
		end()
		if err != nil {
			return nil, err
		}
		defer fb.Teardown()
		scfg.Fallback = fb
	}
	it.setup = time.Since(setupStart)

	if b.tr != nil {
		splitWeights(b, it, m, w, plan)
	}

	// The serve. A platform clock that already moved would turn the
	// trace into a flash crowd, so a fresh platform must read zero.
	if now := e.pl.Now(); now != 0 {
		b.failf("platform clock at %v before the serve, want 0", now)
	}
	n := steadyRequests
	var src sim.Source = sim.NewPoisson(n, 5, b.seed)
	if overload {
		n = overloadRequests
		src = newFlashCrowd(n, b.seed)
	}
	var clock *sliceClock
	if !overload {
		clock = &sliceClock{Source: src, every: sliceArrivals}
		src = clock
	}
	var windows, batchN int64
	var batchSum float64
	if b.tr != nil {
		cancel := e.ts.Subscribe(func(f *obs.WindowFrame) {
			windows++
			if h := f.Hists["serving_batch_size"]; h != nil {
				batchN += h.Count
				batchSum += h.Sum
			}
		})
		defer cancel()
	}
	before := e.meter.Total()
	runtime.GC()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	b.tr.startProfile()
	end = b.tr.begin("serving.ServeStream")
	serveStart := time.Now()
	rep, err := serving.ServeStream(scfg, src, input)
	it.serve = time.Since(serveStart)
	end()
	b.tr.stopProfile()
	runtime.ReadMemStats(&ms1)
	if err != nil {
		return nil, err
	}
	e.ts.Close()
	it.measured = it.serve
	if clock != nil {
		it.slices = clock.rates()
	}
	it.requests = rep.Requests
	spent := e.meter.Total() - before

	checkServe(b, rep, n, limit, spent)
	if !overload && rep.Completed != n {
		b.failf("stream-steady completed %d of %d requests", rep.Completed, n)
	}

	rn := float64(n)
	it.sim = map[string]float64{
		"sim_latency_p50_s":  rep.P50Latency.Seconds(),
		"sim_latency_p99_s":  rep.P99Latency.Seconds(),
		"sim_completion_s":   warm.Seconds(),
		"sim_usd_per_1k_req": spent / rn * 1000,
		"sim_goodput_ratio":  float64(rep.Good) / rn,
		"answered_ratio":     float64(rep.Completed) / rn,
	}

	snap := e.mx.Snapshot()
	puts, gets := e.store.Stats()
	s3Bytes := snap.Counters[`s3_bytes_total{op="put"}`] + snap.Counters[`s3_bytes_total{op="get"}`]
	l := it.layer
	l["lambda.invocations_per_req"] = float64(snap.Counters["lambda_invocations_total"]) / rn
	l["lambda.cold_start_ratio"] = ratio(float64(snap.Counters["lambda_cold_starts_total"]), float64(snap.Counters["lambda_invocations_total"]))
	l["lambda.gb_s_per_req"] = snap.Totals["lambda_gb_seconds_total"] / rn
	l["s3.requests_per_req"] = float64(puts+gets) / rn
	l["s3.mb_per_req"] = float64(s3Bytes) / (1 << 20) / rn
	l["billing.charges_per_req"] = float64(e.charges) / rn
	l["faults.injected_per_req"] = float64(inj.Total()) / rn
	l["coordinator.retries_per_req"] = float64(rep.Retries) / rn
	l["coordinator.hedges_per_req"] = float64(rep.Hedges) / rn
	l["coordinator.hedge_win_ratio"] = ratio(float64(rep.HedgeWins), float64(rep.Hedges))
	l["coordinator.budget_denied_per_req"] = float64(rep.BudgetDenied) / rn
	l["coordinator.wasted_spend_ratio"] = ratio(rep.WastedSpend, spent)
	l["serving.queue_wait_mean_s"] = rep.AvgQueue.Seconds()
	l["serving.throttles_per_req"] = float64(rep.Throttles) / rn
	l["serving.batch_size_mean"] = ratio(batchSum, float64(batchN))
	l["serving.shed_ratio"] = float64(rep.Shed) / rn
	l["serving.brownout_transitions"] = float64(rep.BrownoutTransitions)
	l["serving.fallback_ratio"] = float64(rep.FallbackServed) / rn
	l["serving.peak_in_flight"] = float64(rep.PeakInFlight)
	l["serving.allocs_per_req"] = float64(ms1.Mallocs-ms0.Mallocs) / rn
	l["serving.alloc_bytes_per_req"] = float64(ms1.TotalAlloc-ms0.TotalAlloc) / rn
	l["obs.windows_flushed"] = float64(windows)
	l["optimizer.partitions.mobilenet"] = float64(len(plan.Lambdas))
	it.actBytes = []float64{ratio(float64(snap.Counters[`s3_bytes_total{op="put"}`]), float64(snap.Counters[`s3_requests_total{op="put"}`]))}
	return it, nil
}

// computeRig is a stream run's real-compute deployment of the stream
// plan. The streams themselves skip compute, so the rig is where their
// plan is shown to compute the model, and where their infer_s samples
// come from.
type computeRig struct {
	m       *nn.Model
	dep     *coordinator.Deployment
	in, ref *tensor.Tensor
}

// computeCheck runs once per stream run, before the measured
// iterations: it deploys the stream plan with real forward passes on a
// fresh cloud and serves one cold and one warm request, whose outputs
// must match the whole-model pass. Each iteration then serves one more
// warm request on it (see runStream).
func computeCheck(b *bench) error {
	m, err := zoo.Build("mobilenet", 0)
	if err != nil {
		return err
	}
	in := workload.Image(m, b.seed)
	w := nn.InitWeights(m, b.seed)
	plan, err := optimizer.Optimize(optimizer.Request{Model: m, Perf: perf.Default(), MaxLayersPerPartition: layerCap})
	if err != nil {
		return err
	}
	ref, err := forward(b, m, w, in)
	if err != nil {
		return err
	}
	e := newEnv(pricing.Quota2020(), false, 0, false)
	dep, err := coordinator.Deploy(coordinator.Config{Platform: e.pl, Store: e.store, NamePrefix: "check"}, m, w, plan)
	if err != nil {
		return err
	}
	if _, _, err := eagerPair(b, dep, m, in, ref); err != nil {
		return fmt.Errorf("compute check: %w", err)
	}
	b.rig = &computeRig{m: m, dep: dep, in: in, ref: ref}
	return nil
}

// infer serves one warm real-compute request on the rig, checks its
// output and records it as an infer_s sample.
func (r *computeRig) infer(b *bench) error {
	end := b.tr.begin("coordinator.RunEager")
	t := time.Now()
	rep, err := r.dep.RunEager(r.in)
	d := time.Since(t)
	end()
	if err != nil {
		return fmt.Errorf("compute check: %w", err)
	}
	b.recordInference(r.m, "warm", rep.Output, d, r.ref)
	return nil
}

// checkServe applies the serving invariants every stream serve must
// hold: the outcomes partition the requests, the account limit is
// never exceeded, and the report's cost reproduces the meter.
func checkServe(b *bench, rep *serving.Report, n, limit int, spent float64) {
	settled := rep.Completed + rep.Shed + rep.Deadline + rep.Throttled + rep.Failed + rep.BudgetExhausted
	if rep.Requests != n || settled != n {
		b.failf("outcomes do not partition the requests: %d requests, %d settled, %d sent", rep.Requests, settled, n)
	}
	if rep.PeakInFlight > limit {
		b.failf("peak in-flight %d exceeds the account limit %d", rep.PeakInFlight, limit)
	}
	if !closeRel(spent, rep.TotalCost, 1e-9) {
		b.failf("meter total %.12g differs from Report.TotalCost %.12g", spent, rep.TotalCost)
	}
}

// warmProbe deploys the plan on a throwaway cloud and returns the
// completion of the second of two eager runs: a clean warm completion.
func warmProbe(b *bench, m *nn.Model, w nn.Weights, plan *optimizer.Plan, in *tensor.Tensor) (time.Duration, error) {
	e := newEnv(pricing.Quota2020(), false, 0, false)
	end := b.tr.begin("coordinator.Deploy")
	dep, err := coordinator.Deploy(coordinator.Config{
		Platform: e.pl, Store: e.store, NamePrefix: "probe", SkipCompute: true,
	}, m, w, plan)
	end()
	if err != nil {
		return 0, err
	}
	defer dep.Teardown()
	var warm time.Duration
	for i := 0; i < 2; i++ {
		end = b.tr.begin("coordinator.RunEager")
		rep, err := dep.RunEager(in)
		end()
		if err != nil {
			return 0, fmt.Errorf("warm probe: %w", err)
		}
		warm = rep.Completion
	}
	return warm, nil
}

// splitWeights times a SplitWeights call on the plan's bounds — the
// step packaging runs inside Deploy — and sums the package sizes. Only
// traced iterations make this extra call, and the CPU profile pauses
// around it so the layer shares describe the untraced work.
func splitWeights(b *bench, it *iteration, m *nn.Model, w nn.Weights, plan *optimizer.Plan) {
	if b.tr.profiling {
		b.tr.stopProfile()
		defer b.tr.startProfile()
	}
	end := b.tr.begin("modelfmt.SplitWeights")
	t := time.Now()
	blobs, err := modelfmt.SplitWeights(m, w, plan.Bounds())
	it.extra += time.Since(t)
	end()
	if err != nil {
		b.failf("SplitWeights %s: %v", m.Name, err)
		return
	}
	var n int
	for _, bl := range blobs {
		n += len(bl)
	}
	it.layer["modelfmt.package_mb"] += float64(n) / (1 << 20)
}

// flashCrowd streams n arrivals: a Poisson base of 0.3 req/s plus a
// flash crowd of another 1.5 req/s during the first 60 s of every
// 600 s. The crowd is a Poisson process on "crowd time" mapped onto
// those windows, so both streams are seeded sim.PoissonSources.
type flashCrowd struct {
	left        int
	base, surge *sim.PoissonSource
	nb, ns      time.Duration
	okb, oks    bool
}

const (
	baseRate    = 0.3
	crowdRate   = 1.5
	crowdLen    = 60 * time.Second
	crowdPeriod = 600 * time.Second
)

func newFlashCrowd(n int, seed int64) *flashCrowd {
	f := &flashCrowd{
		left:  n,
		base:  sim.NewPoisson(n, baseRate, seed),
		surge: sim.NewPoisson(n, crowdRate, seed^0x5eed),
	}
	f.nb, f.okb = f.base.Next()
	f.ns, f.oks = f.nextCrowd()
	return f
}

func (f *flashCrowd) nextCrowd() (time.Duration, bool) {
	a, ok := f.surge.Next()
	return a/crowdLen*crowdPeriod + a%crowdLen, ok
}

// Next implements sim.Source.
func (f *flashCrowd) Next() (time.Duration, bool) {
	if f.left <= 0 {
		return 0, false
	}
	f.left--
	if f.oks && (!f.okb || f.ns < f.nb) {
		t := f.ns
		f.ns, f.oks = f.nextCrowd()
		return t, true
	}
	t := f.nb
	f.nb, f.okb = f.base.Next()
	return t, true
}

// Remaining implements sim.Source.
func (f *flashCrowd) Remaining() int { return f.left }

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func closeRel(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol*math.Max(math.Abs(a), math.Abs(b))
}

// sliceClock wraps a steady serve's arrival source and reads the host
// clock every `every` arrivals, so the serve's host rate is known per
// slice as well as overall. ServeStream pulls arrivals as its simulated
// clock reaches them, and the Poisson trace is stationary, so every
// slice carries about the same work. One clock read per slice costs
// nothing next to the slice's requests.
type sliceClock struct {
	sim.Source
	every int
	n     int
	marks []time.Time
}

// Next implements sim.Source.
func (c *sliceClock) Next() (time.Duration, bool) {
	if c.n%c.every == 0 {
		c.marks = append(c.marks, time.Now())
	}
	c.n++
	return c.Source.Next()
}

// rates returns each whole slice's arrivals per host second. Every
// steady arrival completes, so this is also its settled requests'
// rate, to within the few requests in flight at a slice's edges.
func (c *sliceClock) rates() []float64 {
	out := make([]float64, 0, len(c.marks))
	for i := 1; i < len(c.marks); i++ {
		out = append(out, float64(c.every)/c.marks[i].Sub(c.marks[i-1]).Seconds())
	}
	return out
}
