package main

import (
	"fmt"
	"math"
	"runtime"
	"time"

	"ampsinf/internal/cloud/pricing"
	"ampsinf/internal/coordinator"
	"ampsinf/internal/nn"
	"ampsinf/internal/nn/zoo"
	"ampsinf/internal/optimizer"
	"ampsinf/internal/perf"
	"ampsinf/internal/tensor"
	"ampsinf/internal/workload"
)

// zooModels are planned, deployed and run one after another. VGG16 is
// left out: its float32 fc1 layer alone exceeds the 250 MB package
// limit, so the planner rejects it.
var zooModels = []string{"resnet50", "inceptionv3", "xception", "mobilenet"}

// realCompute is the one zoo model deployed with real forward passes;
// its partitioned output is checked against the whole-model pass.
const realCompute = "mobilenet"

// sloFactor puts each model's SLO 12% under its cost-optimal estimate,
// so the planner's λ-bisection has to bind.
const sloFactor = 0.88

// zooPass accumulates one pass's simulated outcomes and work counts.
type zooPass struct {
	lats  []time.Duration
	warm  time.Duration
	good  int
	spent float64

	invocations, coldStarts, gbSeconds float64
	s3Requests, s3MB, charges          float64
}

// coldZoo is one closed-loop pass over the zoo: per model, weights, a
// fine-grained 2021-quota plan, a fresh deployment, one cold and one
// warm eager run.
func coldZoo(b *bench) (*iteration, error) {
	it := &iteration{layer: map[string]float64{}}
	var p zooPass
	runtime.GC()
	start := time.Now()
	b.tr.startProfile()
	for _, name := range zooModels {
		end := b.tr.begin("model:" + name)
		err := zooModel(b, it, &p, name)
		end()
		if err != nil {
			b.tr.stopProfile()
			return nil, fmt.Errorf("%s: %w", name, err)
		}
	}
	b.tr.stopProfile()
	it.measured = time.Since(start) - it.extra

	n := float64(len(p.lats))
	it.requests = len(p.lats)
	it.sim = map[string]float64{
		"sim_latency_p50_s":  workload.Percentile(p.lats, 50).Seconds(),
		"sim_latency_p99_s":  workload.Percentile(p.lats, 99).Seconds(),
		"sim_completion_s":   p.warm.Seconds() / float64(len(zooModels)),
		"sim_usd_per_1k_req": p.spent / n * 1000,
		"sim_goodput_ratio":  float64(p.good) / n,
		"answered_ratio":     1, // every run returned a prediction, or the pass failed
	}
	l := it.layer
	l["lambda.invocations_per_req"] = p.invocations / n
	l["lambda.cold_start_ratio"] = ratio(p.coldStarts, p.invocations)
	l["lambda.gb_s_per_req"] = p.gbSeconds / n
	l["s3.requests_per_req"] = p.s3Requests / n
	l["s3.mb_per_req"] = p.s3MB / n
	l["billing.charges_per_req"] = p.charges / n
	return it, nil
}

// zooModel runs one model of a pass: set-up on a fresh cloud (timed
// into it.setup and it.plan), then the cold and warm runs.
func zooModel(b *bench, it *iteration, p *zooPass, name string) error {
	m, err := zoo.Build(name, 0)
	if err != nil {
		return err
	}
	in := workload.Image(m, b.seed)
	real := name == realCompute

	runtime.GC()
	setupStart := time.Now()
	end := b.tr.begin("nn.InitWeights")
	w := nn.InitWeights(m, b.seed)
	end()
	planStart := time.Now()
	plan, slo, err := zooPlan(b, m)
	if err != nil {
		return err
	}
	it.plan += time.Since(planStart)
	e := newEnv(pricing.Quota2021(), true, 0, b.tr != nil)
	end = b.tr.begin("coordinator.Deploy")
	dep, err := coordinator.Deploy(coordinator.Config{
		Platform: e.pl, Store: e.store, NamePrefix: "zoo", SkipCompute: !real, Metrics: e.mx,
	}, m, w, plan)
	end()
	if err != nil {
		return err
	}
	defer dep.Teardown()
	it.setup += time.Since(setupStart)

	if b.tr != nil {
		splitWeights(b, it, m, w, plan)
	}

	var ref *tensor.Tensor
	if real {
		if ref, err = forward(b, m, w, in); err != nil {
			return err
		}
	}
	reps, d, err := eagerPair(b, dep, m, in, ref)
	if err != nil {
		return err
	}
	it.serve += d
	var cost float64
	for _, rep := range reps {
		cost += rep.Cost
		p.lats = append(p.lats, rep.Completion)
		if rep.Completion <= slo {
			p.good++
		}
	}
	p.warm += reps[1].Completion
	spent := e.meter.Total()
	if !closeRel(spent, cost, 1e-9) {
		b.failf("%s meter total %.12g differs from the runs' summed Report.Cost %.12g", name, spent, cost)
	}
	p.spent += spent

	snap := e.mx.Snapshot()
	puts, gets := e.store.Stats()
	p.invocations += float64(snap.Counters["lambda_invocations_total"])
	p.coldStarts += float64(snap.Counters["lambda_cold_starts_total"])
	p.gbSeconds += snap.Totals["lambda_gb_seconds_total"]
	p.s3Requests += float64(puts + gets)
	p.s3MB += float64(snap.Counters[`s3_bytes_total{op="put"}`]+snap.Counters[`s3_bytes_total{op="get"}`]) / (1 << 20)
	p.charges += float64(e.charges)
	it.layer["optimizer.partitions."+name] = float64(len(plan.Lambdas))
	it.actBytes = append(it.actBytes, ratio(float64(snap.Counters[`s3_bytes_total{op="put"}`]), float64(snap.Counters[`s3_requests_total{op="put"}`])))
	return nil
}

// zooPlan plans on the 2021 quotas at a 1 MB memory stride: first the
// cost-optimal plan, then the plan under an SLO 12% tighter than its
// estimate. It returns the plan and that SLO.
func zooPlan(b *bench, m *nn.Model) (*optimizer.Plan, time.Duration, error) {
	q := pricing.Quota2021()
	req := optimizer.Request{Model: m, Perf: perf.Default(), Quota: &q, SearchStrideMB: 1}
	end := b.tr.begin("optimizer.New")
	o, err := optimizer.New(req)
	end()
	if err != nil {
		return nil, 0, err
	}
	end = b.tr.begin("optimizer.OptimizeCostOnly")
	base, err := o.OptimizeCostOnly()
	end()
	if err != nil {
		return nil, 0, err
	}
	req.SLO = time.Duration(float64(base.EstTime) * sloFactor)
	end = b.tr.begin("optimizer.New")
	o, err = optimizer.New(req)
	end()
	if err != nil {
		return nil, 0, err
	}
	end = b.tr.begin("optimizer.Optimize")
	plan, err := o.Optimize()
	end()
	if err != nil {
		return nil, 0, err
	}
	if plan.LagrangeMultiplier == 0 {
		b.failf("%s: the SLO did not bind (λ = 0), so the plan skipped the bisection", m.Name)
	}
	return plan, req.SLO, nil
}

// eagerPair serves one cold and one warm eager request on a fresh
// deployment and returns both reports and their summed host time. With
// a reference output (a real-compute deployment) it checks both
// outputs against it and records the warm one as an infer_s sample.
func eagerPair(b *bench, dep *coordinator.Deployment, m *nn.Model, in, ref *tensor.Tensor) ([2]*coordinator.Report, time.Duration, error) {
	var reps [2]*coordinator.Report
	var total time.Duration
	for i, kind := range []string{"cold", "warm"} {
		end := b.tr.begin("coordinator.RunEager")
		t := time.Now()
		rep, err := dep.RunEager(in)
		d := time.Since(t)
		end()
		if err != nil {
			return reps, 0, fmt.Errorf("%s run: %w", kind, err)
		}
		reps[i] = rep
		total += d
		if ref != nil && i == 0 {
			checkOutput(b, m, kind, rep.Output, ref)
		} else if ref != nil {
			b.recordInference(m, kind, rep.Output, d, ref)
		}
	}
	return reps, total, nil
}

// recordInference checks a warm real-compute output against the
// whole-model pass and records its host time as an infer_s sample and
// the model's computed FLOPs over it as a tensor.gflop_per_s sample.
func (b *bench) recordInference(m *nn.Model, kind string, out *tensor.Tensor, d time.Duration, ref *tensor.Tensor) {
	checkOutput(b, m, kind, out, ref)
	b.infer = append(b.infer, d)
	b.gflops = append(b.gflops, float64(m.TotalFLOPs())/d.Seconds()/1e9)
}

// forward is the whole-model reference pass the partitioned output is
// checked against.
func forward(b *bench, m *nn.Model, w nn.Weights, in *tensor.Tensor) (*tensor.Tensor, error) {
	end := b.tr.begin("nn.Forward")
	defer end()
	return m.Forward(w, in)
}

// checkOutput fails the run unless a partitioned real-compute output
// matches the whole-model forward pass bit for bit, as the coordinator
// promises.
func checkOutput(b *bench, m *nn.Model, kind string, got, ref *tensor.Tensor) {
	if diff := maxAbsDiff(got, ref); diff != 0 {
		b.failf("%s %s partitioned output differs from the whole-model forward pass by %g", m.Name, kind, diff)
	}
}

func maxAbsDiff(a, b *tensor.Tensor) float64 {
	if a == nil || b == nil {
		return math.Inf(1)
	}
	x, y := a.Data(), b.Data()
	if len(x) != len(y) {
		return math.Inf(1)
	}
	var d float64
	for i := range x {
		d = math.Max(d, math.Abs(float64(x[i])-float64(y[i])))
	}
	return d
}
