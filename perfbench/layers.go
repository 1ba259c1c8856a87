package main

import "time"

// perLayer lists every per-layer metric with its unit, in report order.
// A traced run emits all of them on every workload; a layer that does
// no work on a workload reports 0 there (README.md says which).
var perLayer = []struct{ name, unit string }{
	{"sim.cpu_share", "ratio"},
	{"sim.heap_push_pop_ns", "ns"},
	{"lambda.cpu_share", "ratio"},
	{"lambda.invoke_warm_ns", "ns"},
	{"lambda.invocations_per_req", "1/req"},
	{"lambda.cold_start_ratio", "ratio"},
	{"lambda.gb_s_per_req", "GB-s/req"},
	{"s3.cpu_share", "ratio"},
	{"s3.requests_per_req", "1/req"},
	{"s3.mb_per_req", "MB/req"},
	{"s3.put_get_ns", "ns"},
	{"billing.cpu_share", "ratio"},
	{"billing.charges_per_req", "1/req"},
	{"billing.add_ns", "ns"},
	{"faults.injected_per_req", "1/req"},
	{"coordinator.cpu_share", "ratio"},
	{"coordinator.retries_per_req", "1/req"},
	{"coordinator.hedges_per_req", "1/req"},
	{"coordinator.hedge_win_ratio", "ratio"},
	{"coordinator.budget_denied_per_req", "1/req"},
	{"coordinator.wasted_spend_ratio", "ratio"},
	{"coordinator.deploy_s", "s"},
	{"serving.cpu_share", "ratio"},
	{"serving.queue_wait_mean_s", "sim_s"},
	{"serving.throttles_per_req", "1/req"},
	{"serving.batch_size_mean", "req"},
	{"serving.shed_ratio", "ratio"},
	{"serving.brownout_transitions", "count"},
	{"serving.fallback_ratio", "ratio"},
	{"serving.peak_in_flight", "count"},
	{"serving.allocs_per_req", "allocs/req"},
	{"serving.alloc_bytes_per_req", "B/req"},
	{"obs.cpu_share", "ratio"},
	{"obs.windows_flushed", "count"},
	{"obs.counter_inc_ns", "ns"},
	{"obs.series_observe_ns", "ns"},
	{"obs.advance_ns", "ns"},
	{"optimizer.cpu_share", "ratio"},
	{"optimizer.plan_s.resnet50", "s"},
	{"optimizer.plan_s.inceptionv3", "s"},
	{"optimizer.plan_s.xception", "s"},
	{"optimizer.plan_s.mobilenet", "s"},
	{"optimizer.partitions.resnet50", "count"},
	{"optimizer.partitions.inceptionv3", "count"},
	{"optimizer.partitions.xception", "count"},
	{"optimizer.partitions.mobilenet", "count"},
	{"nn.cpu_share", "ratio"},
	{"nn.init_weights_s", "s"},
	{"modelfmt.cpu_share", "ratio"},
	{"modelfmt.split_weights_s", "s"},
	{"modelfmt.package_mb", "MB"},
	{"tensor.cpu_share", "ratio"},
	{"tensor.gflop_per_s", "GFLOP/s"},
	{"runtime.gc_cpu_share", "ratio"},
	{"trace.overhead_ratio", "ratio"},
}

// recordSpans folds the spans one traced iteration recorded (those
// from mark on) into its per-layer figures.
func recordSpans(tr *tracer, it *iteration, mark int) {
	sums := tr.spanSums(mark)
	it.layer["coordinator.deploy_s"] = sums["coordinator.Deploy"].Seconds()
	it.layer["nn.init_weights_s"] = sums["nn.InitWeights"].Seconds()
	it.layer["modelfmt.split_weights_s"] = sums["modelfmt.SplitWeights"].Seconds()
	for _, m := range zooModels {
		var d time.Duration
		for _, call := range []string{"optimizer.New", "optimizer.OptimizeCostOnly", "optimizer.Optimize"} {
			d += sums[call+"@"+m]
		}
		it.layer["optimizer.plan_s."+m] = d.Seconds()
	}
}

// layerMetrics reduces a traced run to the per-layer metrics: counts
// and spans as medians over the traced iterations, CPU shares from
// their pooled profiles, the layer probes, and the tracing overhead —
// the traced over the untraced median host time per request of the
// measured phase, minus one.
func layerMetrics(b *bench, traced, untraced []*iteration) map[string]metric {
	vals := map[string]float64{}
	for _, l := range perLayer {
		xs := make([]float64, 0, len(traced))
		for _, it := range traced {
			xs = append(xs, it.layer[l.name])
		}
		vals[l.name] = median(xs)
	}
	for k, v := range b.tr.cpuShares() {
		vals[k] = v
	}
	vals["tensor.gflop_per_s"] = median(b.gflops)
	var act []float64
	for _, it := range traced {
		act = append(act, it.actBytes...)
	}
	probes, err := runProbes(median(act))
	if err != nil {
		b.failf("layer probes: %v", err)
	}
	for k, v := range probes {
		vals[k] = v
	}
	perReq := func(its []*iteration) float64 {
		xs := make([]float64, 0, len(its))
		for _, it := range its {
			xs = append(xs, it.measured.Seconds()/float64(it.requests))
		}
		return median(xs)
	}
	vals["trace.overhead_ratio"] = perReq(traced)/perReq(untraced) - 1

	out := make(map[string]metric, len(perLayer))
	for _, l := range perLayer {
		out[l.name] = metric{vals[l.name], l.unit}
	}
	return out
}
