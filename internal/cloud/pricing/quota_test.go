package pricing

import (
	"testing"
	"time"
)

func TestQuota2020MatchesConstants(t *testing.T) {
	q := Quota2020()
	if q.MinMemoryMB != 128 || q.MaxMemoryMB != 3008 || q.MemoryStepMB != 64 {
		t.Fatalf("2020 memory quota %+v", q)
	}
	if q.DeployLimitMB != 250 || q.TmpLimitMB != 512 || q.MaxLayers != 5 {
		t.Fatalf("2020 size quota %+v", q)
	}
	if len(q.MemoryBlocks()) != 46 {
		t.Fatalf("2020 blocks %d", len(q.MemoryBlocks()))
	}
}

func TestQuota2021Granularity(t *testing.T) {
	q := Quota2021()
	if q.MaxMemoryMB != 10240 || q.MemoryStepMB != 1 {
		t.Fatalf("2021 quota %+v", q)
	}
	if !q.ValidMemory(4321) {
		t.Fatal("2021 quota rejects 4321 MB")
	}
	if q.ValidMemory(10241) || q.ValidMemory(127) {
		t.Fatal("2021 quota accepts out-of-range memory")
	}
	if got := len(q.MemoryBlocks()); got != 10113 {
		t.Fatalf("2021 blocks %d, want 10113", got)
	}
}

func TestQuotaValidMemory2020(t *testing.T) {
	q := Quota2020()
	if !q.ValidMemory(1792) || q.ValidMemory(1800) {
		t.Fatal("2020 grid validation wrong")
	}
}

func TestSearchBlocks(t *testing.T) {
	q := Quota2021()
	blocks := q.SearchBlocks(512)
	if blocks[0] != 128 {
		t.Fatalf("first block %d", blocks[0])
	}
	if blocks[len(blocks)-1] != 10240 {
		t.Fatal("max block missing from search grid")
	}
	for i := 1; i < len(blocks)-1; i++ {
		if blocks[i]-blocks[i-1] != 512 {
			t.Fatalf("non-uniform stride at %d", i)
		}
	}
	// Stride below the quota step snaps up to the step.
	q20 := Quota2020()
	fine := q20.SearchBlocks(1)
	if len(fine) != 46 {
		t.Fatalf("2020 fine grid has %d blocks", len(fine))
	}
}

func TestQuotaExecutionCostGranularity(t *testing.T) {
	q20, q21 := Quota2020(), Quota2021()
	d := 101 * time.Millisecond
	// 2020 bills 200 ms, 2021 bills 101 ms.
	c20 := q20.ExecutionCost(1024, d)
	c21 := q21.ExecutionCost(1024, d)
	if c21 >= c20 {
		t.Fatalf("1 ms granularity not cheaper: %v vs %v", c21, c20)
	}
	want := 1.0 * 0.101 * LambdaGBSecond
	if diff := c21 - want; diff > 1e-12 || diff < -1e-12 {
		t.Fatalf("2021 cost %v, want %v", c21, want)
	}
	if q20.ExecutionCost(1024, -time.Second) < 0 {
		t.Fatal("negative duration produced negative cost")
	}
}

func TestQuotaValidate(t *testing.T) {
	for _, q := range []Quota{Quota2020(), Quota2021()} {
		if err := q.Validate(); err != nil {
			t.Fatalf("shipped quota rejected: %v", err)
		}
	}
	for name, edit := range map[string]func(*Quota){
		"step":    func(q *Quota) { q.MemoryStepMB = 0 },
		"min":     func(q *Quota) { q.MinMemoryMB = -128 },
		"min>max": func(q *Quota) { q.MaxMemoryMB = q.MinMemoryMB - 1 },
		"timeout": func(q *Quota) { q.Timeout = -time.Second },
	} {
		q := Quota2021()
		edit(&q)
		if q.Validate() == nil {
			t.Errorf("%s: invalid quota %+v accepted", name, q)
		}
	}
}

func TestBilledSecondsRoundsUp(t *testing.T) {
	q := Quota2021()
	if got := q.BilledSeconds(1500 * time.Microsecond); got != 0.002 {
		t.Fatalf("1.5 ms billed as %v s, want 0.002", got)
	}
	if got := q.BilledSeconds(-time.Second); got != 0 {
		t.Fatalf("negative duration billed as %v s", got)
	}
	if got := (Quota{}).BilledSeconds(time.Millisecond); got != 0.1 {
		t.Fatalf("zero granularity billed 1 ms as %v s, want the 2020 100 ms", got)
	}
}
