package main

import (
	"bytes"
	"runtime/pprof"
	"strings"
	"testing"
	"time"
)

var spinSink uint64

//go:noinline
func spin(d time.Duration) {
	x := uint64(1)
	for end := time.Now().Add(d); time.Now().Before(end); {
		for i := 0; i < 1000; i++ {
			x = x*6364136223846793005 + 1442695040888963407
		}
	}
	spinSink += x
}

// TestParseProfile profiles a known busy function and checks that the
// decoder recovers samples whose stacks name it.
func TestParseProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skipf("cpu profiling unavailable: %v", err)
	}
	spin(300 * time.Millisecond)
	pprof.StopCPUProfile()
	stacks, err := parseProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	var hits int64
	for _, s := range stacks {
		for _, f := range s.frames {
			if strings.HasSuffix(f, ".spin") {
				hits += s.count
				break
			}
		}
	}
	if hits == 0 {
		t.Fatalf("no sample names spin among %d stacks", len(stacks))
	}
}

func TestAttribute(t *testing.T) {
	for _, c := range []struct {
		frames []string
		want   string
	}{
		{[]string{"runtime.mallocgc", "ampsinf/internal/cloud/lambda.(*Platform).Invoke", "ampsinf/internal/serving.runSequential"}, "cloud/lambda"},
		{[]string{"ampsinf/internal/sim.(*Slab[go.shape.struct { a int }]).Alloc"}, "sim"},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, "runtime.gc"},
		{[]string{"runtime.futex", "runtime.mcall"}, "other"},
	} {
		if got := attribute(c.frames); got != c.want {
			t.Errorf("attribute(%v) = %q, want %q", c.frames, got, c.want)
		}
	}
}
