package optimizer

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"time"

	"ampsinf/internal/cloud/pricing"
	"ampsinf/internal/nn/zoo"
	"ampsinf/internal/perf"
)

// The hot path (prefix-sum profiling, parallel table build, bounded
// lazy block scan, lower-envelope block selection, scratch reuse)
// claims byte-identical plans, not approximately equal ones. These
// tests drive it against the reference planner in reference_test.go
// across models, quotas, search strides, SLO tightness and solver
// modes, demanding reflect.DeepEqual — any float that drifts by one ulp
// fails.

func equivRequest(t *testing.T, model string, quota2021 bool, useBnB bool) Request {
	t.Helper()
	m, err := zoo.Build(model, 0)
	if err != nil {
		t.Fatal(err)
	}
	req := Request{Model: m, Perf: perf.Default(), UseBnB: useBnB}
	if quota2021 {
		q := pricing.Quota2021()
		req.Quota = &q
	}
	return req
}

// comparePlans checks the plans at each SLO fraction of the
// cost-optimal time and returns how many of them bound the SLO (λ > 0).
func comparePlans(t *testing.T, base Request, fractions []float64, tag string) (binding int) {
	t.Helper()
	ref, err := newReference(base)
	if err != nil {
		t.Fatal(err)
	}
	costOnly, refErr := ref.OptimizeCostOnly()
	if refErr != nil {
		// Both paths must agree that the model has no feasible plan.
		fastO, err := New(base)
		if err != nil {
			t.Fatal(err)
		}
		if _, fastErr := fastO.OptimizeCostOnly(); fastErr == nil {
			t.Fatalf("%s: reference infeasible (%v) but fast path found a plan", tag, refErr)
		}
		return 0
	}
	for _, frac := range fractions {
		req := base
		req.SLO = time.Duration(float64(costOnly.EstTime) * frac)
		fastO, err := New(req)
		if err != nil {
			t.Fatal(err)
		}
		refO, err := newReference(req)
		if err != nil {
			t.Fatal(err)
		}
		fast, err1 := fastO.Optimize()
		slow, err2 := refO.Optimize()
		if (err1 == nil) != (err2 == nil) {
			t.Fatalf("%s frac=%.2f: errors diverge: %v vs %v", tag, frac, err1, err2)
		}
		if err1 != nil {
			continue
		}
		if !reflect.DeepEqual(fast, slow) {
			t.Errorf("%s frac=%.2f: plans differ\nfast: %+v\nref:  %+v", tag, frac, fast, slow)
		}
		if fast.LagrangeMultiplier > 0 {
			binding++
		}
	}
	return binding
}

func TestFastMatchesReferencePlans(t *testing.T) {
	models := []string{"tinycnn", "linearnet", "tinytransformer", "vgg16", "resnet50"}
	// SLO as a fraction of the cost-optimal plan's time: 0 disables the
	// SLO, mid-range fractions force the bisection, and a near-zero
	// fraction drives the unattainable branch (MeetsSLO = false).
	fractions := []float64{0, 0.95, 0.7, 0.45, 0.01}
	for _, model := range models {
		for _, quota2021 := range []bool{false, true} {
			base := equivRequest(t, model, quota2021, false)
			comparePlans(t, base, fractions, fmt.Sprintf("%s quota2021=%v", model, quota2021))
		}
	}
}

func TestFastMatchesReferencePlansStride1(t *testing.T) {
	// The 2021 quota at a 1 MB stride is the grid where the bounded scan
	// prunes most (10,113 blocks per span). Fractions below 1 bind the
	// SLO, so the bisection's λ > 0 queries extend the scans lazily.
	for _, model := range []string{"tinycnn", "linearnet", "xception"} {
		base := equivRequest(t, model, true, false)
		base.SearchStrideMB = 1
		if comparePlans(t, base, []float64{0.88, 0.6}, model+" stride1") == 0 {
			t.Errorf("%s stride1: no SLO bound, so no λ > 0 query ran", model)
		}
	}
}

func TestFastMatchesReferencePlansBnB(t *testing.T) {
	// The branch-and-bound oracle costs a full QCR solve per (span, λ)
	// pair on both paths, so the BnB matrix stays small: tiny models on
	// a coarsened 2020 grid (the equivalence argument is independent of
	// block count), one SLO that exercises the bisection.
	for _, model := range []string{"tinycnn", "linearnet"} {
		base := equivRequest(t, model, false, true)
		base.SearchStrideMB = 256
		comparePlans(t, base, []float64{0, 0.7}, model+" bnb")
	}
}

func TestFastMatchesReferenceConfigAPIs(t *testing.T) {
	// The fast path drops the dense per-block tables, so the config
	// helpers re-derive block values on demand; they must agree with the
	// reference's stored tables bit-for-bit.
	for _, quota2021 := range []bool{false, true} {
		req := equivRequest(t, "vgg16", quota2021, false)
		fastO, err := New(req)
		if err != nil {
			t.Fatal(err)
		}
		refO, err := newReference(req)
		if err != nil {
			t.Fatal(err)
		}
		S := len(fastO.Segments())
		for a := 0; a < S; a++ {
			for b := a + 1; b <= S; b++ {
				if got, want := fastO.SpanFeasible(a, b), refO.SpanFeasible(a, b); got != want {
					t.Fatalf("SpanFeasible(%d,%d): %v vs %v", a, b, got, want)
				}
				fm, rm := fastO.FeasibleMemories(a, b), refO.FeasibleMemories(a, b)
				if !reflect.DeepEqual(fm, rm) {
					t.Fatalf("FeasibleMemories(%d,%d): %v vs %v", a, b, fm, rm)
				}
				for _, mem := range fm {
					t1, c1, err1 := fastO.SpanEstimate(a, b, mem)
					t2, c2, err2 := refO.SpanEstimate(a, b, mem)
					if err1 != nil || err2 != nil || t1 != t2 || c1 != c2 {
						t.Fatalf("SpanEstimate(%d,%d,%d): (%v,%v,%v) vs (%v,%v,%v)",
							a, b, mem, t1, c1, err1, t2, c2, err2)
					}
				}
			}
		}
	}
}

func TestEnvelopeMatchesExactScan(t *testing.T) {
	// For every feasible span and a sweep of randomized multipliers,
	// selectBlock must return exactly the block index and objective
	// value of the reference's full scan (fresh objective slice +
	// lowest-index argmin). Each visit order starts from a fresh
	// Optimizer, so the lazy scan extension is reached from both sides:
	// descending λ extends each span to its fastest needed block at
	// once, ascending λ extends it step by step.
	rng := rand.New(rand.NewSource(7))
	lambdas := []float64{0, 1e-9, 1e-6, 1e-3, 0.1, 5, 1e3}
	for i := 0; i < 40; i++ {
		lambdas = append(lambdas, math.Exp(rng.Float64()*30-12))
	}
	ascending := append([]float64(nil), lambdas...)
	sort.Float64s(ascending)
	descending := make([]float64, len(ascending))
	for i, l := range ascending {
		descending[len(ascending)-1-i] = l
	}
	orders := map[string][]float64{"random": lambdas, "ascending": ascending, "descending": descending}
	cases := []struct {
		model     string
		quota2021 bool
		stride    int
	}{
		{"tinycnn", false, 0}, {"tinycnn", true, 0}, {"tinycnn", true, 1},
		{"linearnet", true, 1},
		{"vgg16", false, 0}, {"vgg16", true, 0},
		{"resnet50", false, 0}, {"resnet50", true, 0},
	}
	for _, c := range cases {
		req := equivRequest(t, c.model, c.quota2021, false)
		req.SearchStrideMB = c.stride
		refO, err := newReference(req)
		if err != nil {
			t.Fatal(err)
		}
		// The reference answer for every (span, λ), computed once.
		type answer struct {
			j int
			v float64
		}
		S := len(refO.Segments())
		want := map[[2]int]map[float64]answer{}
		for a := 0; a < S; a++ {
			for b := a + 1; b <= S; b++ {
				if !refO.table[a][b].feasible {
					continue
				}
				m := map[float64]answer{}
				for _, lambda := range lambdas {
					j, v := refO.selectBlockRef(refO.table[a][b], lambda)
					m[lambda] = answer{j, v}
				}
				want[[2]int{a, b}] = m
			}
		}
		for name, order := range orders {
			fastO, err := New(req)
			if err != nil {
				t.Fatal(err)
			}
			for _, lambda := range order {
				for span, m := range want {
					fsc := &fastO.table[span[0]][span[1]]
					if !fsc.feasible {
						t.Fatalf("%+v span %v: feasible in the reference only", c, span)
					}
					gj, gv := fastO.selectBlock(fsc, lambda)
					if w := m[lambda]; gj != w.j || gv != w.v {
						t.Fatalf("%+v %s span %v λ=%g: selectBlock (%d, %v) vs scan (%d, %v)",
							c, name, span, lambda, gj, gv, w.j, w.v)
					}
				}
			}
		}
	}
}

// scannedShare is the fraction of the span×block grid, from each span's
// working-set floor up, that the bounded scans have evaluated so far.
func scannedShare(o *Optimizer) float64 {
	var scanned, grid int
	for a := range o.table {
		for b := a + 1; b < len(o.table[a]); b++ {
			sc := &o.table[a][b]
			if !sc.capsOK {
				continue
			}
			floor := sort.SearchInts(o.blocks, sc.minMem)
			scanned += sc.next - floor
			grid += len(o.blocks) - floor
		}
	}
	return float64(scanned) / float64(grid)
}

func TestBoundedScanPrunesStride1Grid(t *testing.T) {
	// A full sweep evaluates every block above each span's floor; the
	// cost bound must stop MobileNet's cost-only scans well short of
	// that on the 1 MB grid, and a binding SLO's lazy extensions must
	// leave most of the grid untouched too.
	req := equivRequest(t, "mobilenet", true, false)
	req.SearchStrideMB = 1
	o, err := New(req)
	if err != nil {
		t.Fatal(err)
	}
	base, err := o.OptimizeCostOnly()
	if err != nil {
		t.Fatal(err)
	}
	if share := scannedShare(o); share >= 0.5 {
		t.Fatalf("cost-only New scanned %.1f%% of the grid, want < 50%%", 100*share)
	}
	req.SLO = time.Duration(float64(base.EstTime) * 0.88)
	o, err = New(req)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := o.Optimize()
	if err != nil {
		t.Fatal(err)
	}
	if plan.LagrangeMultiplier == 0 {
		t.Fatal("SLO did not bind")
	}
	if share := scannedShare(o); share >= 0.5 {
		t.Fatalf("binding-SLO Optimize scanned %.1f%% of the grid, want < 50%%", 100*share)
	}
}

func TestOverflowingTimesMatchReference(t *testing.T) {
	// At 1 FLOP/s MobileNet's small-memory blocks take longer than
	// time.Duration can hold. The time model saturates, so times stay
	// non-increasing in memory and the bounded scan still agrees with
	// the full sweep: no plan fits the timeout.
	req := equivRequest(t, "mobilenet", false, false)
	req.Perf.PeakGFLOPS = 1e-9
	comparePlans(t, req, []float64{0}, "mobilenet at 1 FLOP/s")
	if plan, err := Optimize(req); err == nil {
		t.Fatalf("planned %v at %v despite compute past the timeout", plan.Memories(), plan.EstTime)
	}
}
