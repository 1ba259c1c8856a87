package coordinator

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"time"

	"ampsinf/internal/obs"
	"ampsinf/internal/tensor"
)

// A staged job whose deadline is already spent when a later partition
// starts fails fast without attempting it. That operation made no
// attempt, so it adds no retries: the report keeps Retries == 0 and the
// retries counter does not move.
func TestStagedDeadlineFailFastCountsNoRetries(t *testing.T) {
	for _, lean := range []bool{false, true} {
		mx := obs.NewMetrics()
		_, d, m, _ := deployTinyResilient(t, 0, 0, func(cfg *Config) {
			cfg.Metrics = mx
			cfg.SkipCompute = lean
		})
		if d.Partitions() < 2 {
			t.Fatalf("want a multi-partition pipeline, got %d", d.Partitions())
		}
		const deadline = time.Hour
		before := mx.Snapshot().Counters["coordinator_retries_total"]
		sj, err := d.BeginStaged([]*tensor.Tensor{randomInput(m, 1)}, StagedOptions{Deadline: deadline, Lean: lean})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := sj.RunStage(sj.InputReady()); err != nil {
			t.Fatalf("lean=%v: stage 0: %v", lean, err)
		}
		if _, err := sj.RunStage(deadline); !IsDeadlineExceeded(err) {
			t.Fatalf("lean=%v: stage 1 past the deadline: got %v, want a deadline error", lean, err)
		}
		rep := sj.Rep()
		if rep.Retries != 0 {
			t.Errorf("lean=%v: failed-fast job reports %d retries, want 0", lean, rep.Retries)
		}
		if after := mx.Snapshot().Counters["coordinator_retries_total"]; after != before {
			t.Errorf("lean=%v: coordinator_retries_total moved %d -> %d", lean, before, after)
		}
		d.ReleaseReport(rep)
	}
}

// Members whose shapes do not stack fail BeginStaged with exactly the
// error tensor.Stack returns — also on the lean SkipCompute path, which
// never stacks — and open no job, so nothing is billed.
func TestBeginStagedMismatchedMembersMatchesStack(t *testing.T) {
	for _, tc := range []struct {
		name       string
		lean, skip bool
	}{
		{name: "lean-skip-compute", lean: true, skip: true},
		{name: "lean-compute", lean: true},
		{name: "traced"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e, d, m, _ := deployTinyResilient(t, 0, 0, func(cfg *Config) { cfg.SkipCompute = tc.skip })
			good := randomInput(m, 1)
			shape := good.Shape().Clone()
			shape[len(shape)-1]++
			cases := [][]*tensor.Tensor{
				{good, tensor.New(shape...)},
				{good, good, tensor.New(good.Shape()[1:]...)},
				{},
			}
			for _, members := range cases {
				_, want := tensor.Stack(members)
				if want == nil {
					t.Fatal("test members stack cleanly")
				}
				spent := e.meter.Total()
				sj, err := d.BeginStaged(members, StagedOptions{Lean: tc.lean})
				if sj != nil {
					t.Fatalf("%d members: BeginStaged opened a job on unstackable members", len(members))
				}
				if err == nil || err.Error() != want.Error() {
					t.Fatalf("%d members: got error %v, want tensor.Stack's %v", len(members), err, want)
				}
				if e.meter.Total() != spent {
					t.Fatalf("%d members: rejected job billed %v", len(members), e.meter.Total()-spent)
				}
			}
		})
	}
}

// percentileBySort is the copy-and-sort nearest-rank percentile the
// sorted window replaced, kept as the reference it must agree with.
func percentileBySort(window []time.Duration, p float64) time.Duration {
	n := len(window)
	if n == 0 {
		return 0
	}
	sorted := append([]time.Duration(nil), window...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	idx := int(math.Ceil(p/100*float64(n))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= n {
		idx = n - 1
	}
	return sorted[idx]
}

// The sorted window returns the reference nearest-rank percentile after
// every add: before and after the ring wraps, over draws with many
// duplicates.
func TestLatencyRingMatchesSortReference(t *testing.T) {
	ps := []float64{1, 50, 90, 99, 100}
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		distinct := 1 + rng.Intn(12) // few distinct values: heavy duplication
		var r latencyRing
		var window []time.Duration
		for k := 0; k < 5*latencyHistorySize; k++ {
			d := time.Duration(rng.Intn(distinct)) * time.Millisecond
			if rng.Intn(8) == 0 {
				d = time.Duration(rng.Int63n(int64(time.Second)))
			}
			r.add(d)
			window = append(window, d)
			if len(window) > latencyHistorySize {
				window = window[1:]
			}
			if r.size() != len(window) {
				t.Fatalf("seed %d add %d: size %d, want %d", seed, k, r.size(), len(window))
			}
			for _, p := range ps {
				if got, want := r.percentile(p), percentileBySort(window, p); got != want {
					t.Fatalf("seed %d add %d: p%v = %v, want %v", seed, k, p, got, want)
				}
			}
		}
	}
	var empty latencyRing
	if got := empty.percentile(50); got != 0 {
		t.Fatalf("empty window p50 = %v, want 0", got)
	}
	if a := testing.AllocsPerRun(10, func() { empty.add(time.Millisecond); empty.percentile(90) }); a != 0 {
		t.Fatalf("add+percentile allocate %v times, want 0", a)
	}
}
