package optimizer

import (
	"testing"
	"time"

	"ampsinf/internal/cloud/pricing"
)

// The paper reports the optimizer overhead as "within a few seconds on a
// laptop"; these benches measure our reproduction's planning cost.

func BenchmarkNewResNet50(b *testing.B) {
	req := request("resnet50")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := New(req); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkOptimizeCostOnly(b *testing.B) {
	o, err := New(request("resnet50"))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := o.OptimizeCostOnly(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkOptimizeWithBindingSLO(b *testing.B) {
	req := request("resnet50")
	base, err := Optimize(req)
	if err != nil {
		b.Fatal(err)
	}
	req.SLO = time.Duration(float64(base.EstTime) * 0.88)
	o, err := New(req)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := o.Optimize(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkOptimizeQuota2021Stride1 plans ResNet50 on the fine-grained
// December-2020 quota grid (10,240 MB in 1 MB steps → ~10k memory
// blocks) with a binding SLO, the worst case the ROADMAP's Figure-10
// sweep extension hits: every λ-bisection step re-solves the per-span
// block selection over the full grid.
func BenchmarkOptimizeQuota2021Stride1(b *testing.B) {
	req := stride1Request(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		o, err := New(req)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := o.Optimize(); err != nil {
			b.Fatal(err)
		}
	}
}

// stride1Request builds the ~10k-block request with an SLO 12% under the
// cost-optimal plan's response time, so Optimize has to bisect λ.
func stride1Request(b *testing.B) Request {
	b.Helper()
	req := request("resnet50")
	q := pricing.Quota2021()
	req.Quota = &q
	req.SearchStrideMB = 1
	o, err := New(req)
	if err != nil {
		b.Fatal(err)
	}
	base, err := o.OptimizeCostOnly()
	if err != nil {
		b.Fatal(err)
	}
	req.SLO = time.Duration(float64(base.EstTime) * 0.88)
	return req
}

func BenchmarkOptimizeBnBPath(b *testing.B) {
	req := request("tinycnn")
	req.UseBnB = true
	o, err := New(req)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := o.Optimize(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPlanMobileNetQuota2021Stride1 plans MobileNet (84 segments,
// 3,570 spans) on the 1 MB grid the way a deployment that enforces an
// SLO does: a cost-only New to find the cost-optimal response time,
// then a fresh New under an SLO 12% tighter and a bisecting Optimize.
func BenchmarkPlanMobileNetQuota2021Stride1(b *testing.B) {
	req := request("mobilenet")
	q := pricing.Quota2021()
	req.Quota = &q
	req.SearchStrideMB = 1
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		o, err := New(req)
		if err != nil {
			b.Fatal(err)
		}
		base, err := o.OptimizeCostOnly()
		if err != nil {
			b.Fatal(err)
		}
		sloReq := req
		sloReq.SLO = time.Duration(float64(base.EstTime) * 0.88)
		o, err = New(sloReq)
		if err != nil {
			b.Fatal(err)
		}
		plan, err := o.Optimize()
		if err != nil {
			b.Fatal(err)
		}
		if plan.LagrangeMultiplier == 0 {
			b.Fatal("SLO did not bind")
		}
	}
}
