package perf

import (
	"time"

	"ampsinf/internal/nn"
)

// SpanProfiler answers ProfilePartition queries in O(1) by precomputing
// prefix sums (layers, FLOPs, weights) and a range-max table (peak
// activation) over the segment list. All aggregation is integer
// arithmetic, so every profile is bit-identical to the O(span) loop in
// ProfilePartition — a property the tests assert. The profiler is
// immutable after construction and safe for concurrent readers.
type SpanProfiler struct {
	segs     []nn.Segment
	prefix   *nn.SegmentPrefix
	inBytes0 int64
}

// NewSpanProfiler builds the prefix statistics for one model's segments.
func NewSpanProfiler(m *nn.Model, segs []nn.Segment) *SpanProfiler {
	return &SpanProfiler{
		segs:     segs,
		prefix:   nn.NewSegmentPrefix(segs),
		inBytes0: int64(m.InputShape.Elems()) * 4,
	}
}

// Profile aggregates the segment span [sLo, sHi) — the O(1) equivalent
// of ProfilePartition.
func (sp *SpanProfiler) Profile(sLo, sHi int) SegmentProfile {
	p := SegmentProfile{
		Layers:       sp.prefix.Layers(sLo, sHi),
		FLOPs:        sp.prefix.FLOPs(sLo, sHi),
		WeightsBytes: sp.prefix.Params(sLo, sHi) * 4,
		PeakActBytes: sp.prefix.MaxPeakAct(sLo, sHi),
	}
	if sLo == 0 {
		p.InBytes = sp.inBytes0
	} else {
		p.InBytes = sp.segs[sLo-1].OutBytes
	}
	p.OutBytes = sp.segs[sHi-1].OutBytes
	return p
}

// EndToEndEval evaluates EndToEndTime for one fixed partition profile
// across many memory blocks, hoisting the per-span invariants (working
// set, pressure numerator, full-share work seconds) out of the
// per-block loop. TimeAt(p.Block(mem)) is bit-identical to
// Params.EndToEndTime(mem, flops, weightsBytes): the hoisted
// subexpressions are pure functions of span- or block-constant inputs,
// so reusing their values performs exactly the same float operations.
type EndToEndEval struct {
	ws       float64
	aws      float64 // MemPressureAlpha·ws, the Penalty numerator
	depsWork float64
	loadWork float64
	compWork float64
	base     time.Duration
}

// SpanEval precomputes the invariants for a partition of the given
// compute and weight footprint.
func (p Params) SpanEval(flops, weightsBytes int64) EndToEndEval {
	mb := float64(weightsBytes) / (1 << 20)
	ws := p.WorkingSetMB(weightsBytes)
	return EndToEndEval{
		ws:       ws,
		aws:      p.MemPressureAlpha * ws,
		depsWork: p.DepsMB * p.DepsInitSecPerMB,
		loadWork: mb * p.WeightsLoadSecPerMB,
		compWork: float64(flops) / (p.PeakGFLOPS * 1e9),
		base:     p.ColdStartBase + p.InvokeOverhead,
	}
}

// Block holds the memory-only operands of the time model for one
// allocation, so a planner sweeping many spans over one block grid
// derives them once per block rather than once per (span, block).
type Block struct {
	share float64 // Share(memMB)
	mem   float64 // float64(memMB); 0 when memMB ≤ 0 (no pressure term)
}

// Block precomputes the per-allocation operands for memMB.
func (p Params) Block(memMB int) Block {
	b := Block{share: p.Share(memMB)}
	if memMB > 0 {
		b.mem = float64(memMB)
	}
	return b
}

// TimeAt returns the cold-start end-to-end serving time at block b,
// excluding network transfers (as EndToEndTime does).
func (e *EndToEndEval) TimeAt(b Block) time.Duration {
	pen := 1.0
	if b.mem > 0 && e.ws > 0 {
		pen = 1 + e.aws/b.mem
	}
	scale := func(work float64) time.Duration {
		return durationOf(work / b.share * pen * float64(time.Second))
	}
	return e.base + scale(e.depsWork) + scale(e.loadWork) + scale(e.compWork)
}
