package perf

import (
	"testing"

	"ampsinf/internal/nn/zoo"
)

// The fast planner path substitutes SpanProfiler.Profile and
// EndToEndEval.TimeAt for ProfilePartition and EndToEndTime; plan
// byte-identity rests on these being exactly equal, so the tests demand
// bit-for-bit equality, not approximation.

func TestSpanProfilerMatchesProfilePartition(t *testing.T) {
	for _, name := range []string{"tinycnn", "linearnet", "mobilenet", "resnet50", "inceptionv3", "bertbase"} {
		m, err := zoo.Build(name, 0)
		if err != nil {
			t.Fatal(err)
		}
		segs := m.Segments()
		sp := NewSpanProfiler(m, segs)
		for a := 0; a < len(segs); a++ {
			for b := a + 1; b <= len(segs); b++ {
				want := ProfilePartition(m, segs, a, b)
				if got := sp.Profile(a, b); got != want {
					t.Fatalf("%s span [%d,%d): %+v != %+v", name, a, b, got, want)
				}
			}
		}
	}
}

func TestSpanEvalMatchesEndToEndTime(t *testing.T) {
	p := Default()
	flopsCases := []int64{0, 1, 55_000_000, 4_100_000_000, 22_000_000_000}
	weightCases := []int64{0, 1 << 10, 16 << 20, 98 << 20, 300 << 20}
	for _, flops := range flopsCases {
		for _, weights := range weightCases {
			e := p.SpanEval(flops, weights)
			for mem := 128; mem <= 10240; mem += 7 {
				want := p.EndToEndTime(mem, flops, weights)
				if got := e.TimeAt(p.Block(mem)); got != want {
					t.Fatalf("flops=%d weights=%d mem=%d: %v != %v", flops, weights, mem, got, want)
				}
			}
		}
	}
}

func TestSpanEvalNonDefaultParams(t *testing.T) {
	// Perturbed parameters exercise the saturation boundary and a zero
	// pressure coefficient.
	p := Default()
	p.SaturationMB = 2048
	p.MemPressureAlpha = 0
	p.PeakGFLOPS = 1.25
	e := p.SpanEval(3_000_000_000, 40<<20)
	for _, mem := range []int{128, 1024, 2047, 2048, 2049, 3008} {
		if got, want := e.TimeAt(p.Block(mem)), p.EndToEndTime(mem, 3_000_000_000, 40<<20); got != want {
			t.Fatalf("mem=%d: %v != %v", mem, got, want)
		}
	}
	// An empty working set and non-positive allocations take Penalty's
	// no-pressure branch.
	p = Default()
	p.DepsMB, p.HandlerMB, p.RuntimeOverheadMB = 0, 0, 0
	e = p.SpanEval(1_000_000, 0)
	for _, mem := range []int{-64, 0, 128, 4096} {
		if got, want := e.TimeAt(p.Block(mem)), p.EndToEndTime(mem, 1_000_000, 0); got != want {
			t.Fatalf("empty working set, mem=%d: %v != %v", mem, got, want)
		}
	}
	p = Default()
	e = p.SpanEval(1_000_000, 1<<20)
	for _, mem := range []int{-64, 0} {
		if got, want := e.TimeAt(p.Block(mem)), p.EndToEndTime(mem, 1_000_000, 1<<20); got != want {
			t.Fatalf("mem=%d: %v != %v", mem, got, want)
		}
	}
}
