package main

import (
	"fmt"
	"time"

	"ampsinf/internal/cloud/billing"
	"ampsinf/internal/cloud/lambda"
	"ampsinf/internal/cloud/s3"
	"ampsinf/internal/obs"
	"ampsinf/internal/perf"
	"ampsinf/internal/sim"
)

// Layer probes time one hot-path operation of a layer in isolation, so
// a per-request count from the traced run can be read against a
// per-call cost. Each probe runs probeReps timed loops of n calls after
// one warm-up loop and reports the median ns/call.
const probeReps = 5

func probe(n int, body func(n int)) float64 {
	body(n)
	vals := make([]float64, 0, probeReps)
	for r := 0; r < probeReps; r++ {
		t := time.Now()
		body(n)
		vals = append(vals, float64(time.Since(t).Nanoseconds())/float64(n))
	}
	return median(vals)
}

// runProbes measures every layer probe. actBytes is the workload's mean
// S3 object size (bytes per PUT), the size the S3 probe moves.
func runProbes(actBytes float64) (map[string]float64, error) {
	out := map[string]float64{}

	// sim: one push and one pop on a heap holding 1024 live events.
	var h sim.Heap
	var seq uint64
	for i := 0; i < 1024; i++ {
		seq++
		h.Push(sim.Event{At: time.Duration(seq*7919%100003) * time.Millisecond, Seq: seq})
	}
	out["sim.heap_push_pop_ns"] = probe(200000, func(n int) {
		for i := 0; i < n; i++ {
			e, _ := h.Pop()
			seq++
			h.Push(sim.Event{At: e.At + time.Duration(seq%977)*time.Millisecond, Seq: seq})
		}
	})

	// lambda: a warm invocation on a clocked platform with metrics and a
	// series attached, as the stream serves run it. Each call first
	// advances the clock past the previous invocation, which frees the
	// container.
	meter := &billing.Meter{}
	pl := lambda.New(meter, perf.Default())
	pl.SetMetrics(obs.NewMetrics())
	ts := obs.NewTimeSeries(time.Second)
	ts.SetRetention(64)
	pl.SetSeries(ts)
	pl.EnableClock()
	err := pl.CreateFunction(lambda.FunctionConfig{
		Name: "probe", MemoryMB: 1024, PackageBytes: 1 << 20,
		Handler: func(ctx *lambda.Context, payload []byte) ([]byte, error) {
			ctx.Advance("compute", 50*time.Millisecond)
			return nil, nil
		},
	})
	if err != nil {
		return nil, err
	}
	payload := []byte(`{"job":"probe","input_key":"probe/input"}`)
	now := time.Duration(0)
	invoke := func() error {
		now += time.Second
		pl.AdvanceTo(now)
		ts.Advance(now)
		res, err := pl.Invoke("probe", payload, lambda.InvokeOptions{})
		if err != nil {
			return err
		}
		pl.RecycleResult(res)
		return nil
	}
	if err := invoke(); err != nil { // the cold start
		return nil, fmt.Errorf("lambda probe: %w", err)
	}
	out["lambda.invoke_warm_ns"] = probe(20000, func(n int) {
		for i := 0; i < n && err == nil; i++ {
			err = invoke()
		}
	})
	if err != nil {
		return nil, fmt.Errorf("lambda probe: %w", err)
	}

	// s3: Put, Get and Delete of one object at the activation size.
	store := s3.New(s3.DefaultConfig(), &billing.Meter{})
	store.SetMetrics(obs.NewMetrics())
	if actBytes < 1 {
		actBytes = 1
	}
	data := make([]byte, int(actBytes))
	out["s3.put_get_ns"] = probe(2000, func(n int) {
		for i := 0; i < n && err == nil; i++ {
			if _, err = store.Put("probe/act", data); err != nil {
				break
			}
			_, _, err = store.Get("probe/act")
			store.Delete("probe/act")
		}
	})
	if err != nil {
		return nil, fmt.Errorf("s3 probe: %w", err)
	}

	// billing: one charge, cycling over the categories a request bills.
	cats := []string{"lambda:invocations", "lambda:execution", "s3:requests", "s3:storage"}
	m := &billing.Meter{}
	out["billing.add_ns"] = probe(500000, func(n int) {
		for i := 0; i < n; i++ {
			m.Add(cats[i&3], 1e-7)
		}
	})

	// obs: a counter-handle increment, a series histogram observation
	// inside one window, and one window's flush — a counter write into
	// the next window plus the Advance that closes it.
	mx := obs.NewMetrics()
	ch := mx.CounterHandle("probe_total")
	out["obs.counter_inc_ns"] = probe(1000000, func(n int) {
		for i := 0; i < n; i++ {
			ch.Inc(1)
		}
	})
	series := obs.NewTimeSeries(time.Second)
	series.SetRetention(64)
	hh := series.HistHandle("probe_seconds")
	at := time.Duration(0)
	out["obs.series_observe_ns"] = probe(500000, func(n int) {
		for i := 0; i < n; i++ {
			at += time.Microsecond
			hh.Observe(at, float64(i&1023)*1e-3)
		}
	})
	flush := obs.NewTimeSeries(time.Second)
	flush.SetRetention(64)
	fc := flush.CounterHandle("probe_total")
	win := time.Duration(0)
	out["obs.advance_ns"] = probe(50000, func(n int) {
		for i := 0; i < n; i++ {
			fc.Inc(win, 1)
			win += time.Second
			flush.Advance(win)
		}
	})
	return out, nil
}
