package optimizer

import (
	"errors"
	"math"
	"testing"
	"time"

	"ampsinf/internal/cloud/pricing"
	"ampsinf/internal/nn/zoo"
	"ampsinf/internal/perf"
)

func request(model string) Request {
	m, err := zoo.Build(model, 0)
	if err != nil {
		panic(err)
	}
	return Request{Model: m, Perf: perf.Default()}
}

func TestOptimizeTinyCNNSingleLambda(t *testing.T) {
	// TinyCNN fits one lambda; the cost-optimal plan should not split it
	// (splitting adds invocation + transfer costs with no benefit).
	plan, err := Optimize(request("tinycnn"))
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Lambdas) != 1 {
		t.Fatalf("tinycnn plan uses %d lambdas, want 1", len(plan.Lambdas))
	}
	if !plan.MeetsSLO {
		t.Fatal("no-SLO plan must report MeetsSLO")
	}
	if plan.EstCost <= 0 || plan.EstTime <= 0 {
		t.Fatalf("degenerate estimates: %v / %v", plan.EstCost, plan.EstTime)
	}
}

func TestOptimizeResNet50MustPartition(t *testing.T) {
	// ResNet50's 98 MB of weights + 169 MB dependencies exceed 250 MB:
	// every feasible plan uses ≥ 2 lambdas (the paper's Table 1 premise).
	plan, err := Optimize(request("resnet50"))
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Lambdas) < 2 {
		t.Fatalf("resnet50 plan uses %d lambdas; deployment limit requires ≥2", len(plan.Lambdas))
	}
	// Every partition respects the deployment limit.
	p := perf.Default()
	for i, l := range plan.Lambdas {
		deploy := l.Profile.DeployBytes(256<<10) + int64(p.DepsMB*(1<<20))
		if deploy > int64(pricing.LambdaDeployLimitMB)<<20 {
			t.Errorf("partition %d deployment %d MB over limit", i, deploy>>20)
		}
		if l.Profile.TmpBytes() > int64(pricing.LambdaTmpLimitMB)<<20 {
			t.Errorf("partition %d tmp %d MB over limit", i, l.Profile.TmpBytes()>>20)
		}
		if !pricingValidBlock(l.MemoryMB) {
			t.Errorf("partition %d memory %d not a valid block", i, l.MemoryMB)
		}
	}
	// Bounds must partition the layer range contiguously.
	bounds := plan.Bounds()
	if bounds[0] != 1 || bounds[len(bounds)-1] != len(request("resnet50").Model.Layers) {
		t.Fatalf("bounds %v do not cover the model", bounds)
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			t.Fatalf("bounds %v not increasing", bounds)
		}
	}
}

func pricingValidBlock(mem int) bool {
	return mem >= 128 && mem <= 3008 && (mem-128)%64 == 0
}

func TestDPMatchesExhaustive(t *testing.T) {
	for _, name := range []string{"tinycnn", "linearnet"} {
		o, err := New(request(name))
		if err != nil {
			t.Fatal(err)
		}
		want, ok := o.ExhaustiveMinCost()
		if !ok {
			t.Fatalf("%s: exhaustive enumeration unavailable (%d segments)", name, len(o.Segments()))
		}
		plan, err := o.Optimize()
		if err != nil {
			t.Fatal(err)
		}
		// Compare without the tiny storage term the DP defers.
		var got float64
		for _, l := range plan.Lambdas {
			_, cost, err := o.SpanEstimate(l.SegLo, l.SegHi, l.MemoryMB)
			if err != nil {
				t.Fatal(err)
			}
			got += cost
		}
		if math.Abs(got-want) > 1e-9*(1+want) {
			t.Errorf("%s: DP cost %.9f vs exhaustive %.9f", name, got, want)
		}
	}
}

func indexOfBlock(blocks []int, mem int) int {
	for i, b := range blocks {
		if b == mem {
			return i
		}
	}
	return -1
}

func TestSLOReducesTimeAtHigherCost(t *testing.T) {
	req := request("resnet50")
	unconstrained, err := Optimize(req)
	if err != nil {
		t.Fatal(err)
	}
	// Demand 13% faster than the cost-optimal plan (achievable: larger
	// memory blocks buy speed, at a price).
	req.SLO = time.Duration(float64(unconstrained.EstTime) * 0.87)
	constrained, err := Optimize(req)
	if err != nil {
		t.Fatal(err)
	}
	if !constrained.MeetsSLO {
		t.Fatalf("SLO %v not met (plan time %v)", req.SLO, constrained.EstTime)
	}
	if constrained.EstTime > req.SLO {
		t.Fatalf("plan time %v exceeds SLO %v", constrained.EstTime, req.SLO)
	}
	if constrained.EstCost < unconstrained.EstCost {
		t.Fatalf("SLO plan cheaper (%.6f) than unconstrained optimum (%.6f)",
			constrained.EstCost, unconstrained.EstCost)
	}
	if constrained.LagrangeMultiplier <= 0 {
		t.Fatal("binding SLO must produce a positive multiplier")
	}
}

func TestGenerousSLOKeepsCostOptimum(t *testing.T) {
	req := request("mobilenet")
	base, _ := Optimize(req)
	req.SLO = base.EstTime * 10
	withSLO, err := Optimize(req)
	if err != nil {
		t.Fatal(err)
	}
	if withSLO.EstCost != base.EstCost {
		t.Fatalf("generous SLO changed cost: %.6f vs %.6f", withSLO.EstCost, base.EstCost)
	}
	if withSLO.LagrangeMultiplier != 0 {
		t.Fatal("non-binding SLO should leave λ = 0")
	}
}

func TestImpossibleSLOFlagged(t *testing.T) {
	req := request("resnet50")
	req.SLO = time.Millisecond
	plan, err := Optimize(req)
	if err != nil {
		t.Fatal(err)
	}
	if plan.MeetsSLO {
		t.Fatal("1 ms SLO reported as met")
	}
}

func TestMaxLambdasRespected(t *testing.T) {
	req := request("resnet50")
	req.MaxLambdas = 2
	plan, err := Optimize(req)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Lambdas) > 2 {
		t.Fatalf("plan uses %d lambdas, cap 2", len(plan.Lambdas))
	}
}

func TestMaxLayersPerPartition(t *testing.T) {
	req := request("mobilenet")
	base, _ := Optimize(req)
	maxLayers := 0
	for _, l := range base.Lambdas {
		if n := l.LayerHi - l.LayerLo; n > maxLayers {
			maxLayers = n
		}
	}
	req.MaxLayersPerPartition = maxLayers / 2
	plan, err := Optimize(req)
	if err != nil {
		t.Fatal(err)
	}
	for i, l := range plan.Lambdas {
		if n := l.LayerHi - l.LayerLo; n > req.MaxLayersPerPartition {
			t.Fatalf("partition %d has %d layers, cap %d", i, n, req.MaxLayersPerPartition)
		}
	}
}

func TestBnBPathMatchesScanPath(t *testing.T) {
	reqScan := request("tinycnn")
	reqBnB := request("tinycnn")
	reqBnB.UseBnB = true
	a, err := Optimize(reqScan)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Optimize(reqBnB)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(a.EstCost-b.EstCost) > 1e-9 {
		t.Fatalf("scan %.9f vs BnB %.9f", a.EstCost, b.EstCost)
	}
	am, bm := a.Memories(), b.Memories()
	if len(am) != len(bm) {
		t.Fatalf("different partition counts: %v vs %v", am, bm)
	}
	for i := range am {
		if am[i] != bm[i] {
			t.Fatalf("different memories: %v vs %v", am, bm)
		}
	}
}

func TestVGG16InfeasibleSingleLayerTooBig(t *testing.T) {
	// VGG16's fc1 weights alone (≈392 MB) exceed any partition's
	// deployment budget; the optimizer must report infeasibility rather
	// than emit a broken plan.
	_, err := Optimize(request("vgg16"))
	if err == nil {
		t.Fatal("VGG16 should be infeasible under the 250 MB limit (paper Sec. 1: VGG-class models)")
	}
}

func TestPlanPerLambdaEstimatesSum(t *testing.T) {
	plan, err := Optimize(request("inceptionv3"))
	if err != nil {
		t.Fatal(err)
	}
	var tsum time.Duration
	var csum float64
	for _, l := range plan.Lambdas {
		tsum += l.EstTime
		csum += l.EstCost
	}
	if tsum != plan.EstTime {
		t.Fatalf("times do not sum: %v vs %v", tsum, plan.EstTime)
	}
	if math.Abs(csum-plan.EstCost) > 1e-12 {
		t.Fatalf("costs do not sum: %v vs %v", csum, plan.EstCost)
	}
}

func TestNewRejectsInvalidRequest(t *testing.T) {
	// Each case breaks one field; New must refuse it with a wrapped
	// ErrInvalidRequest instead of panicking (a zero block step divides
	// by zero building the grid) or planning on nonsense (zero
	// PeakGFLOPS makes every span's time overflow negative).
	quota := func(edit func(*pricing.Quota)) func(*Request) {
		return func(r *Request) {
			q := pricing.Quota2021()
			edit(&q)
			r.Quota = &q
		}
	}
	params := func(edit func(*perf.Params)) func(*Request) {
		return func(r *Request) { edit(&r.Perf) }
	}
	cases := []struct {
		name string
		edit func(*Request)
	}{
		{"nil model", func(r *Request) { r.Model = nil }},
		{"MemoryStepMB", quota(func(q *pricing.Quota) { q.MemoryStepMB = 0 })},
		{"MinMemoryMB", quota(func(q *pricing.Quota) { q.MinMemoryMB = 0 })},
		{"MinMemoryMB above MaxMemoryMB", quota(func(q *pricing.Quota) { q.MinMemoryMB = q.MaxMemoryMB + 1 })},
		{"Timeout", quota(func(q *pricing.Quota) { q.Timeout = 0 })},
		{"PeakGFLOPS", params(func(p *perf.Params) { p.PeakGFLOPS = 0 })},
		{"DepsInitSecPerMB", params(func(p *perf.Params) { p.DepsInitSecPerMB = -0.01 })},
		{"WeightsLoadSecPerMB", params(func(p *perf.Params) { p.WeightsLoadSecPerMB = math.NaN() })},
		{"ColdStartBase", params(func(p *perf.Params) { p.ColdStartBase = -time.Millisecond })},
		{"InvokeOverhead", params(func(p *perf.Params) { p.InvokeOverhead = -time.Millisecond })},
		{"MemPressureAlpha", params(func(p *perf.Params) { p.MemPressureAlpha = -0.1 })},
		{"SaturationMB", params(func(p *perf.Params) { p.SaturationMB = 0 })},
		{"DepsMB", params(func(p *perf.Params) { p.DepsMB = math.Inf(1) })},
		{"HandlerMB", params(func(p *perf.Params) { p.HandlerMB = math.Inf(-1) })},
		{"RuntimeOverheadMB", params(func(p *perf.Params) { p.RuntimeOverheadMB = -1 })},
		{"BatchMarginal", params(func(p *perf.Params) { p.BatchMarginal = math.NaN() })},
	}
	for _, c := range cases {
		req := request("tinycnn")
		c.edit(&req)
		if _, err := New(req); !errors.Is(err, ErrInvalidRequest) {
			t.Errorf("%s: New error %v, want ErrInvalidRequest", c.name, err)
		}
		if _, err := Optimize(req); !errors.Is(err, ErrInvalidRequest) {
			t.Errorf("%s: Optimize error %v, want ErrInvalidRequest", c.name, err)
		}
	}
	if _, err := New(request("tinycnn")); err != nil {
		t.Fatalf("default request rejected: %v", err)
	}
}
