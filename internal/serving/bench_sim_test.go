package serving

import (
	"testing"
	"time"

	"ampsinf/internal/cloud/billing"
	"ampsinf/internal/cloud/lambda"
	"ampsinf/internal/cloud/s3"
	"ampsinf/internal/coordinator"
	"ampsinf/internal/nn"
	"ampsinf/internal/nn/zoo"
	"ampsinf/internal/obs"
	"ampsinf/internal/optimizer"
	"ampsinf/internal/perf"
	"ampsinf/internal/sim"
	"ampsinf/internal/tensor"
)

// deployWide deploys LinearNet with a partition cap high enough that
// the whole chain fits in few partitions — the regime the throughput
// benchmarks want (scheduler overhead, not partition count, under
// test). Compute is skipped; invocation timing and billing still run.
func deployWide(t testing.TB, maxLayers int) *testEnv {
	t.Helper()
	m := zoo.LinearNet(8)
	plan, err := optimizer.Optimize(optimizer.Request{
		Model: m, Perf: perf.Default(), MaxLayersPerPartition: maxLayers,
	})
	if err != nil {
		t.Fatal(err)
	}
	w := nn.InitWeights(m, 42)
	meter := &billing.Meter{}
	pl := lambda.New(meter, perf.Default())
	store := s3.New(s3.DefaultConfig(), meter)
	cfg := coordinator.Config{
		Platform:    pl,
		Store:       store,
		SkipCompute: true,
		Tracer:      obs.NewTracer(),
	}
	meter.SetObserver(cfg.Tracer.RecordCost)
	dep, err := coordinator.Deploy(cfg, m, w, plan)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(dep.Teardown)
	return &testEnv{meter: meter, pl: pl, tracer: cfg.Tracer, dep: dep, model: m}
}

// benchStorm streams n Poisson requests through a wide deployment with
// full telemetry attached — metrics and a windowed time series, the
// production configuration — and reports requests per wall-clock
// second. Every iteration redeploys onto a fresh platform, clock and
// telemetry outside the timer, so each serves the same storm; a
// throttle count that differs between iterations fails the benchmark.
// staged selects the pipelined+batched scheduler.
func benchStorm(b *testing.B, n int, rate float64, staged bool) {
	b.Helper()
	throttles := -1
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		e := deployWide(b, 16)
		e.pl.SetAccountConcurrency(256)
		in := randomInput(e.model, 1)
		ts := obs.NewTimeSeries(time.Second)
		cfg := Config{
			Deployment: e.dep,
			Throttle:   ThrottlePolicy{MaxAttempts: 500, JitterSeed: 3},
			Metrics:    obs.NewMetrics(),
			Series:     ts,
		}
		if staged {
			cfg.Pipeline = PipelinePolicy{Depth: 3}
			cfg.Batch = BatchPolicy{MaxBatch: 4, Window: 200 * time.Millisecond, JitterSeed: 5}
		}
		b.StartTimer()
		rep, err := ServeStream(cfg, sim.NewPoisson(n, rate, 7), func(int) *tensor.Tensor { return in })
		b.StopTimer()
		ts.Close()
		if err != nil {
			b.Fatal(err)
		}
		if rep.Completed != n {
			b.Fatalf("completed %d of %d", rep.Completed, n)
		}
		if throttles >= 0 && rep.Throttles != throttles {
			b.Fatalf("iteration %d served a different storm: %d throttles, iteration 1 had %d", i+1, rep.Throttles, throttles)
		}
		throttles = rep.Throttles
		b.StartTimer()
	}
	b.StopTimer()
	b.ReportMetric(float64(n)*float64(b.N)/b.Elapsed().Seconds(), "req/s")
	b.ReportMetric(float64(throttles)/float64(n), "throttles/req")
}

// BenchmarkSimMillionRequests is the discrete-event core's headline
// number: one million Poisson requests served end to end — admission,
// backoff, container pool, billing — through the streaming sequential
// scheduler. The whole trace never materializes; per-request results
// fold into the summary as they settle.
func BenchmarkSimMillionRequests(b *testing.B) {
	benchStorm(b, 1_000_000, 100, false)
}

// BenchmarkSimServe100k is the same storm at a size that keeps
// multi-iteration benchmarking (and bench-diff noise estimates) cheap.
func BenchmarkSimServe100k(b *testing.B) {
	benchStorm(b, 100_000, 100, false)
}

// BenchmarkServeStreamPipelined drives the pipelined+batched event
// scheduler through the streaming path: staged partition execution
// overlapped across requests, queued arrivals coalesced into shared
// batched invocations, O(backlog) memory. Same storm shape as the
// sequential benchmarks so the req/s numbers compare directly.
func BenchmarkServeStreamPipelined(b *testing.B) {
	benchStorm(b, 100_000, 100, true)
}

// BenchmarkServeSequential50 pins the retained (non-streaming) serve
// path for comparison: span trees on, per-request results kept.
func BenchmarkServeSequential50(b *testing.B) {
	n := 50
	arrivals := make([]time.Duration, n)
	for i := range arrivals {
		arrivals[i] = time.Duration(i) * 5 * time.Millisecond
	}
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		e := deployWide(b, 16)
		e.pl.SetAccountConcurrency(256)
		ins := inputs(e.model, n)
		b.StartTimer()
		if _, err := Serve(Config{
			Deployment: e.dep,
			Throttle:   ThrottlePolicy{MaxAttempts: 500, JitterSeed: 3},
		}, ins, arrivals); err != nil {
			b.Fatal(err)
		}
	}
}
