package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime/pprof"
	"sort"
	"strings"
	"time"
)

// span is one timed call the benchmark made into the program.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // -1 for a root
	Name   string `json:"name"`
	// Start and End are host time since the run began.
	Start time.Duration `json:"start_ns"`
	End   time.Duration `json:"end_ns"`
	// Self is the duration minus the children's, filled in at exit.
	Self time.Duration `json:"self_ns"`
}

// tracer records spans around the benchmark's calls into each layer
// and CPU profiles of the phases that reach layers only from inside the
// program. A nil tracer is a no-op, so untraced iterations share the
// same code.
type tracer struct {
	t0    time.Time
	spans []span
	stack []int

	prof      bytes.Buffer
	profiling bool
	samples   map[string]int64 // attribution bucket → CPU samples
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), samples: map[string]int64{}}
}

func noop() {}

// begin opens a span under the innermost open one and returns the
// function that closes it.
func (t *tracer) begin(name string) func() {
	if t == nil {
		return noop
	}
	id := len(t.spans)
	parent := -1
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Start: time.Since(t.t0)})
	t.stack = append(t.stack, id)
	return func() {
		t.spans[id].End = time.Since(t.t0)
		t.stack = t.stack[:len(t.stack)-1]
	}
}

// mark returns the index the next span will take, so a caller can later
// select the spans one iteration recorded.
func (t *tracer) mark() int {
	if t == nil {
		return 0
	}
	return len(t.spans)
}

// startProfile starts a CPU profile into the tracer's buffer.
func (t *tracer) startProfile() {
	if t == nil {
		return
	}
	t.prof.Reset()
	if err := pprof.StartCPUProfile(&t.prof); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: cpu profile: %v\n", err)
		return
	}
	t.profiling = true
}

// stopProfile stops the profile and folds its samples into the
// per-layer buckets.
func (t *tracer) stopProfile() {
	if t == nil || !t.profiling {
		return
	}
	pprof.StopCPUProfile()
	t.profiling = false
	stacks, err := parseProfile(t.prof.Bytes())
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: parsing cpu profile: %v\n", err)
		return
	}
	for _, s := range stacks {
		t.samples[attribute(s.frames)] += s.count
	}
}

// attribute names the bucket a CPU sample belongs to: the innermost
// ampsinf/internal/<pkg> frame on its stack, so time in the runtime,
// allocator or a lock goes to the package that asked for it; "runtime.gc"
// for garbage-collector workers; "other" for everything else (the
// benchmark itself, the scheduler, idle). Frames run innermost first.
func attribute(frames []string) string {
	const prefix = "ampsinf/internal/"
	for _, f := range frames {
		if rest, ok := strings.CutPrefix(f, prefix); ok {
			if i := strings.IndexByte(rest, '.'); i > 0 {
				return rest[:i]
			}
			return rest
		}
	}
	for _, f := range frames {
		if strings.HasPrefix(f, "runtime.gc") || f == "runtime.bgsweep" || f == "runtime.bgscavenge" {
			return "runtime.gc"
		}
	}
	return "other"
}

// layerPackages maps each reported layer to the packages whose samples
// it owns. The planner layer includes the cost model and pricing it
// evaluates and the MIQP solver it calls.
var layerPackages = map[string][]string{
	"sim":         {"sim"},
	"lambda":      {"cloud/lambda"},
	"s3":          {"cloud/s3"},
	"billing":     {"cloud/billing"},
	"coordinator": {"coordinator"},
	"serving":     {"serving"},
	"obs":         {"obs"},
	"optimizer":   {"optimizer", "perf", "cloud/pricing", "miqp"},
	"nn":          {"nn", "nn/zoo"},
	"modelfmt":    {"modelfmt"},
	"tensor":      {"tensor"},
}

// cpuShares returns each layer's share of the profiled samples, plus
// runtime.gc_cpu_share.
func (t *tracer) cpuShares() map[string]float64 {
	var total int64
	for _, n := range t.samples {
		total += n
	}
	out := map[string]float64{}
	for layer, pkgs := range layerPackages {
		var n int64
		for _, p := range pkgs {
			n += t.samples[p]
		}
		out[layer+".cpu_share"] = ratio(float64(n), float64(total))
	}
	out["runtime.gc_cpu_share"] = ratio(float64(t.samples["runtime.gc"]), float64(total))
	return out
}

// spanSums sums, per span name, the durations of the spans recorded
// since mark, keyed also by the enclosing "model:<name>" span when
// there is one ("optimizer.Optimize@resnet50").
func (t *tracer) spanSums(mark int) map[string]time.Duration {
	out := map[string]time.Duration{}
	for _, s := range t.spans[mark:] {
		d := s.End - s.Start
		out[s.Name] += d
		for p := s.Parent; p >= 0; p = t.spans[p].Parent {
			if m, ok := strings.CutPrefix(t.spans[p].Name, "model:"); ok {
				out[s.Name+"@"+m] += d
				break
			}
		}
	}
	return out
}

// writeSpans computes self times and writes every span, plus per-name
// totals, to <dir>/spans-<workload>-seed<n>.json.
func (t *tracer) writeSpans(dir, workload string, seed int64) error {
	if t == nil {
		return nil
	}
	for i := range t.spans {
		t.spans[i].Self = t.spans[i].End - t.spans[i].Start
	}
	for _, s := range t.spans {
		if s.Parent >= 0 {
			t.spans[s.Parent].Self -= s.End - s.Start
		}
	}
	type total struct {
		Name  string        `json:"name"`
		Count int           `json:"count"`
		Total time.Duration `json:"total_ns"`
		Self  time.Duration `json:"self_ns"`
	}
	byName := map[string]*total{}
	for _, s := range t.spans {
		tt := byName[s.Name]
		if tt == nil {
			tt = &total{Name: s.Name}
			byName[s.Name] = tt
		}
		tt.Count++
		tt.Total += s.End - s.Start
		tt.Self += s.Self
	}
	totals := make([]*total, 0, len(byName))
	for _, tt := range byName {
		totals = append(totals, tt)
	}
	sort.Slice(totals, func(i, j int) bool { return totals[i].Self > totals[j].Self })

	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(struct {
		Workload string   `json:"workload"`
		Seed     int64    `json:"seed"`
		Totals   []*total `json:"totals"`
		Spans    []span   `json:"spans"`
	}{workload, seed, totals, t.spans}, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, fmt.Sprintf("spans-%s-seed%d.json", workload, seed)), data, 0o644)
}
