package optimizer

// This file keeps the pre-overhaul planner as a test oracle: serial
// table build, O(span) profiling through perf.ProfilePartition, dense
// per-block tables from a full sweep of the block grid, and a full
// per-block rescan (fresh objective slice or fresh BnB problem) on
// every λ step, with freshly allocated DP tables. The equivalence tests
// assert that the production planner (prefix-sum profiling, parallel
// build, bounded lazy block scan, lower-envelope selection, scratch
// reuse) produces byte-identical Plans. Only the λ bisection and plan
// assembly are shared, through lambdaSolver.

import (
	"math"
	"time"

	"ampsinf/internal/cloud/pricing"
	"ampsinf/internal/miqp"
	"ampsinf/internal/perf"
)

// refOptimizer is an Optimizer whose span table and DP come from the
// reference scans.
type refOptimizer struct{ *Optimizer }

// newReference builds a reference planner for req.
func newReference(req Request) (*refOptimizer, error) {
	o, err := prepare(req)
	if err != nil {
		return nil, err
	}
	r := &refOptimizer{o}
	r.buildTableRef()
	return r, nil
}

func (r *refOptimizer) Optimize() (*Plan, error) { return r.optimize(r) }

func (r *refOptimizer) OptimizeCostOnly() (*Plan, error) { return r.optimizeCostOnly(r) }

func (r *refOptimizer) buildTableRef() {
	S := len(r.segs)
	r.table = make([][]spanChoice, S)
	for a := 0; a < S; a++ {
		r.table[a] = make([]spanChoice, S+1)
		for b := a + 1; b <= S; b++ {
			r.table[a][b] = r.solveSpanRef(a, b)
		}
	}
}

// solveSpanRef is the original solveSpan: dense per-block tables filled
// by a direct scan over every block.
func (r *refOptimizer) solveSpanRef(a, b int) spanChoice {
	prof := perf.ProfilePartition(r.req.Model, r.segs, a, b)
	prof.WeightsBytes = int64(float64(prof.WeightsBytes) * r.req.WeightScale)
	sc := spanChoice{memIdx: -1}

	if cap := r.req.MaxLayersPerPartition; cap > 0 && prof.Layers > cap {
		return sc
	}
	p := r.req.Perf
	q := r.req.Quota
	deploy := prof.DeployBytes(r.req.DescBytes) + int64(p.DepsMB*(1<<20))
	if deploy > int64(q.DeployLimitMB)<<20 {
		return sc
	}
	if prof.TmpBytes() > int64(q.TmpLimitMB)<<20 {
		return sc
	}
	sc.capsOK = true

	minMem := p.MinFeasibleMemoryMB(prof.WeightsBytes, q.MinMemoryMB, q.MemoryStepMB)
	sc.minMem = minMem

	L := len(r.blocks)
	sc.times = make([]time.Duration, L)
	sc.costs = make([]float64, L)
	sc.allow = make([]bool, L)

	transfer := r.transferTime(prof.InBytes) + r.transferTime(prof.OutBytes)
	for j, mem := range r.blocks {
		if mem < minMem {
			continue
		}
		t := p.EndToEndTime(mem, prof.FLOPs, prof.WeightsBytes) + transfer
		if t > q.Timeout {
			continue
		}
		cost := q.ExecutionCost(mem, t) +
			pricing.LambdaInvocation + pricing.S3GetRequest + pricing.S3PutRequest
		sc.allow[j] = true
		sc.times[j] = t
		sc.costs[j] = cost
	}

	sc.memIdx, _ = r.selectBlockRef(sc, 0)
	sc.feasible = sc.memIdx >= 0
	if sc.feasible {
		sc.time = sc.times[sc.memIdx]
		sc.cost = sc.costs[sc.memIdx]
	}
	return sc
}

// selectBlockRef is the original selectBlock: a fresh objective slice
// and exact one-hot scan per call, or a freshly constructed BnB problem.
func (r *refOptimizer) selectBlockRef(sc spanChoice, lambda float64) (int, float64) {
	if sc.allow == nil {
		return -1, math.Inf(1)
	}
	if !r.req.UseBnB {
		obj := make([]float64, len(sc.costs))
		for j := range obj {
			obj[j] = sc.costs[j] + lambda*sc.times[j].Seconds()
		}
		return miqp.SolveOneHot(nil, obj, sc.allow)
	}
	var idx []int
	for j, ok := range sc.allow {
		if ok {
			idx = append(idx, j)
		}
	}
	if len(idx) == 0 {
		return -1, math.Inf(1)
	}
	n := len(idx)
	q := make([][]float64, n)
	pvec := make([]float64, n)
	ones := make([]float64, n)
	for row, j := range idx {
		q[row] = make([]float64, n)
		execCost := sc.costs[j] - pricing.LambdaInvocation - pricing.S3GetRequest - pricing.S3PutRequest
		q[row][row] = execCost
		pvec[row] = lambda*sc.times[j].Seconds() +
			pricing.LambdaInvocation + pricing.S3GetRequest + pricing.S3PutRequest
		ones[row] = 1
	}
	return solveOneHotQP(idx, q, pvec, ones)
}

// solveForLambda is the original solveForLambda: freshly allocated DP
// tables and a selectBlockRef rescan for every (span, λ) pair.
func (r *refOptimizer) solveForLambda(lambda float64) (dpResult, bool) {
	S := len(r.segs)
	K := r.req.MaxLambdas
	if K > S {
		K = S
	}
	const inf = math.MaxFloat64
	best := make([][]float64, S+1)
	prev := make([][]int, S+1)
	choice := make([][]int, S+1)
	for b := 0; b <= S; b++ {
		best[b] = make([]float64, K+1)
		prev[b] = make([]int, K+1)
		choice[b] = make([]int, K+1)
		for k := range best[b] {
			best[b][k] = inf
			prev[b][k] = -1
		}
	}
	best[0][0] = 0
	for b := 1; b <= S; b++ {
		for a := 0; a < b; a++ {
			sc := r.table[a][b]
			if !sc.feasible {
				continue
			}
			j, val := r.selectBlockRef(sc, lambda)
			if j < 0 {
				continue
			}
			for k := 1; k <= K; k++ {
				if best[a][k-1] == inf {
					continue
				}
				if cand := best[a][k-1] + val; cand < best[b][k] {
					best[b][k] = cand
					prev[b][k] = a
					choice[b][k] = j
				}
			}
		}
	}
	bestK, bestObj := -1, inf
	for k := 1; k <= K; k++ {
		if best[S][k] < bestObj {
			bestObj, bestK = best[S][k], k
		}
	}
	if bestK < 0 {
		return dpResult{}, false
	}
	bounds := make([]int, bestK+1)
	mems := make([]int, bestK)
	b, k := S, bestK
	for k > 0 {
		a := prev[b][k]
		bounds[k] = b
		mems[k-1] = choice[b][k]
		b, k = a, k-1
	}
	bounds[0] = 0
	return dpResult{objective: bestObj, bounds: bounds, memIdx: mems}, true
}
