package serving

import (
	"fmt"
	"math/rand"
	"strconv"
	"time"

	"ampsinf/internal/coordinator"
	"ampsinf/internal/obs"
	"ampsinf/internal/sim"
	"ampsinf/internal/tensor"
)

// stageJob is one admitted batch unit moving through the pipeline: its
// staged coordinator job plus the scheduling state the event loop needs
// — which stage runs next and when the previous one ended. Records are
// slab-recycled; the waits and arrs slices keep their capacity across
// reuse.
type stageJob struct {
	seq  int
	unit batchUnit
	sj   *coordinator.StagedJob
	// dep is the deployment this unit was admitted onto — the primary,
	// or the quantized fallback while brownout holds the fallback rung —
	// so settled reports recycle into the pool they came from.
	dep *coordinator.Deployment
	// start is the absolute admission instant (the job's time zero);
	// prevEnd the absolute end of the job's last completed step (the
	// input upload before stage 0).
	start   time.Duration
	prevEnd time.Duration
	next    int
	// arrs are the member requests' arrival instants (len == unit.Size).
	arrs []time.Duration
	// Admission bookkeeping carried from the pending unit:
	throttles int
	wait      time.Duration
	waits     []time.Duration
}

// pendingUnit is one batch unit waiting for admission: its next
// admission instant, its members' arrivals and the throttle backoffs it
// has accumulated.
type pendingUnit struct {
	unit     batchUnit
	readyAt  time.Duration
	attempts int
	arrs     []time.Duration
	wait     time.Duration
	waits    []time.Duration
}

// Event classes, in priority order at equal instants: stage completions
// settle before new stage starts, and both before fresh admissions, so
// freed pipeline slots and depth capacity are visible to the events
// that want them.
const (
	evFinish = iota
	evStage
	evAdmit
	evNone
)

// fifo is an index queue over slab ids with an advancing head, so
// steady-state push/pop allocates nothing once capacity has grown.
type fifo struct {
	ids  []int32
	head int
}

func (f *fifo) push(id int32) { f.ids = append(f.ids, id) }

func (f *fifo) pop() int32 {
	id := f.ids[f.head]
	f.head++
	if f.head == len(f.ids) {
		f.ids = f.ids[:0]
		f.head = 0
	}
	return id
}

func (f *fifo) peek() (int32, bool) {
	if f.head == len(f.ids) {
		return 0, false
	}
	return f.ids[f.head], true
}

// pipeHandles are the staged scheduler's extra metric slots, resolved
// once per run like serveHandles. Per-stage busy totals are labeled by
// stage index, so their names are formatted here — once — instead of
// per stage event.
type pipeHandles struct {
	batches     obs.CounterHandle
	tsBatches   obs.SeriesCounterHandle
	tsBatchSize obs.SeriesHistHandle
	tsRunning   obs.SeriesGaugeHandle
	tsStageBusy []obs.SeriesTotalHandle
}

func newPipeHandles(mx *obs.Metrics, ts *obs.TimeSeries, width int) pipeHandles {
	ph := pipeHandles{
		batches:     mx.CounterHandle("serving_batches_total"),
		tsBatches:   ts.CounterHandle("serving_batches_total"),
		tsBatchSize: ts.HistHandle("serving_batch_size"),
		tsRunning:   ts.GaugeHandle("serving_pipeline_running"),
		tsStageBusy: make([]obs.SeriesTotalHandle, width),
	}
	for i := range ph.tsStageBusy {
		ph.tsStageBusy[i] = ts.TotalHandle(
			fmt.Sprintf("serving_stage_busy_seconds_total{stage=%q}", strconv.Itoa(i)))
	}
	return ph
}

// gaugeDedup skips rewriting a gauge when the (window, value) pair did
// not change: the gauge is last-write-wins per window, so the skipped
// write could not have changed any frame — same bytes, less work.
type gaugeDedup struct {
	win  int64
	val  int
	seen bool
}

func (g *gaugeDedup) changed(win int64, val int) bool {
	if g.seen && g.win == win && g.val == val {
		return false
	}
	g.seen, g.win, g.val = true, win, val
	return true
}

// unitCoalescer groups a lazy arrival source into batch units
// incrementally, draw-for-draw identical to coalesce(): the leader of
// each batch is the earliest uncoalesced arrival, one jittered window
// is drawn per batch in leader order, and followers join while the
// batch has room and arrive inside the window. Only the one-arrival
// lookahead is ever materialized, so a million-request trace coalesces
// in O(1) memory.
type unitCoalescer struct {
	src      sim.Source
	pol      BatchPolicy
	rng      *rand.Rand
	nextArr  time.Duration
	haveNext bool
	nextIdx  int
	lastArr  time.Duration
	// ctl, when set, widens the batch window while brownout holds the
	// wide-batch rung or below. The jitter draw happens regardless, so
	// the rng stream — and with it every batch after recovery — stays
	// aligned with an unwidened run.
	ctl *brownoutCtl
}

func newUnitCoalescer(src sim.Source, pol BatchPolicy, rng *rand.Rand) *unitCoalescer {
	c := &unitCoalescer{src: src, pol: pol, rng: rng}
	c.nextArr, c.haveNext = src.Next()
	return c
}

// next yields the next batch unit, appending its members' arrivals into
// arrs (re-sliced from the front and returned, so callers can recycle
// the backing array). ok is false once the trace is exhausted.
func (c *unitCoalescer) next(arrs []time.Duration) (u batchUnit, _ []time.Duration, ok bool, err error) {
	arrs = arrs[:0]
	if !c.haveNext {
		return batchUnit{}, arrs, false, nil
	}
	if c.nextArr < c.lastArr {
		return batchUnit{}, arrs, false, fmt.Errorf("serving: arrivals not sorted at %d", c.nextIdx)
	}
	first := c.nextIdx
	lead := c.nextArr
	c.lastArr = c.nextArr
	arrs = append(arrs, c.nextArr)
	c.nextIdx++
	c.nextArr, c.haveNext = c.src.Next()
	if !c.pol.enabled() {
		return batchUnit{First: first, Size: 1, DispatchAt: lead}, arrs, true, nil
	}
	w := batchWindow(c.pol, c.rng)
	if f, ok := c.ctl.widenBatch(); ok {
		w = time.Duration(float64(w) * f)
	}
	deadline := satAdd(lead, w)
	for c.haveNext && len(arrs) < c.pol.MaxBatch && c.nextArr <= deadline {
		if c.nextArr < c.lastArr {
			return batchUnit{}, arrs, false, fmt.Errorf("serving: arrivals not sorted at %d", c.nextIdx)
		}
		c.lastArr = c.nextArr
		arrs = append(arrs, c.nextArr)
		c.nextIdx++
		c.nextArr, c.haveNext = c.src.Next()
	}
	u = batchUnit{First: first, Size: len(arrs)}
	if u.Size == c.pol.MaxBatch {
		// Full batch dispatches the moment its last member arrives.
		u.DispatchAt = arrs[len(arrs)-1]
	} else {
		u.DispatchAt = deadline
	}
	return u, arrs, true, nil
}

// servePipelined is the retained entry into the staged scheduler: every
// per-request result (and, subject to sampling, span tree) is kept.
func servePipelined(cfg Config, inputs []*tensor.Tensor, arrivals []time.Duration) (*Report, error) {
	return runPipelined(cfg, sim.NewSlice(arrivals), func(i int) *tensor.Tensor { return inputs[i] }, false)
}

// runPipelined is the staged serving scheduler behind PipelinePolicy
// and BatchPolicy: requests are coalesced into batch units, admitted
// units execute partition stages through coordinator.StagedJob, and a
// single event loop interleaves every unit's stages in global time
// order — partition i of request n overlaps partition i+1 of request
// n−1. Each partition stage has one pipeline slot, so a deployment's
// warm container per function is reused back to back instead of
// fanning out; Depth bounds how many units occupy the pipeline at once
// and the account concurrency limit still gates every admission.
//
// The loop runs on the unified discrete-event core (internal/sim): one
// event heap orders stage starts and finishes by (time, class, seq),
// a second orders admissions by raw (readyAt, leader index) exactly as
// the former per-iteration scans did. Stage events are pushed when a
// job becomes the head of its stage queue — the instant max(prevEnd,
// freeAt) is fixed from then until the event fires, because only the
// head can change a slot's freeAt — so every event's time is final at
// push and the pop order reproduces the scan order byte for byte
// (pinned by the equivalence battery against the preserved legacy
// implementation).
//
// In retained mode (stream false) every batch unit is coalesced and
// queued up front, as the materialized scheduler always did. In stream
// mode units are coalesced lazily — one lookahead unit beyond the
// admission frontier — per-request results fold into the summary
// accumulator as units settle, and no span trees are built, so memory
// stays O(backlog): slab-recycled units and staged jobs, never the
// trace. Unit dispatch instants are non-decreasing in leader order
// (a later leader either missed the previous window or follows a full
// batch's last member), so merging the backoff heap with the coalescer
// frontier pops admissions in exactly the order the materialized queue
// would. The one divergence: the retained serving_queue_depth gauge
// counts every not-yet-admitted unit of the whole trace, which a
// stream cannot know — streaming emits the not-yet-admitted request
// backlog instead (the sequential scheduler's streaming semantic).
func runPipelined(cfg Config, src sim.Source, input func(int) *tensor.Tensor, stream bool) (*Report, error) {
	dep := cfg.Deployment
	pl := dep.Platform()
	pl.EnableClock()
	width := dep.Partitions()
	limit := pl.AccountConcurrency()
	mx := cfg.Metrics
	ts := cfg.Series
	h := newServeHandles(mx, ts)
	ph := newPipeHandles(mx, ts, width)
	tsWindow := ts.Window()
	var depthDedup gaugeDedup
	sampler := cfg.Sample.sampler()
	slo := cfg.SLO

	// Brownout controller, as in the sequential loop. The coalescer only
	// sees live levels in stream mode — retained runs coalesce the whole
	// trace up front, before any window has flushed.
	var ctl *brownoutCtl
	fallback := cfg.Fallback
	if cfg.Brownout.enabled() {
		ctl = newBrownoutCtl(cfg.Brownout)
		ts.Subscribe(ctl.observe)
	}
	applyBrownout := func(now time.Duration) {
		if ctl == nil || ctl.level == ctl.applied {
			return
		}
		ctl.applied = ctl.level
		h.tsBrownoutLevel.Set(now, float64(ctl.level))
		hedgeOff := ctl.level >= BrownoutNoHedge
		dep.SetHedgingDisabled(hedgeOff)
		if fallback != nil {
			fallback.SetHedgingDisabled(hedgeOff)
		}
	}

	depth := cfg.Pipeline.Depth
	if depth < 1 {
		depth = 1
	}
	seed := cfg.Throttle.JitterSeed
	if seed == 0 {
		seed = 1
	}
	rng := rand.New(rand.NewSource(seed))
	bseed := cfg.Batch.JitterSeed
	if bseed == 0 {
		bseed = 1
	}
	brng := rand.New(rand.NewSource(bseed))

	mode := "pipelined"
	switch {
	case cfg.Pipeline.enabled() && cfg.Batch.enabled():
		mode = "pipelined+batched"
	case cfg.Batch.enabled():
		mode = "batched"
	}
	n := src.Remaining()
	rep := &Report{Mode: mode, Requests: n}
	if !stream {
		rep.Jobs = make([]JobResult, n)
	}
	rep.SLOActive = slo.enabled()
	rep.SLODeadline = slo.Deadline

	var acc summaryAcc
	var scratch JobResult

	var units sim.Slab[pendingUnit]
	var jobs sim.Slab[stageJob]
	// admitQ orders waiting units by raw (readyAt, leader index); the
	// clamp to now happens only when comparing against the event heap,
	// mirroring the former scan's selection exactly.
	var admitQ sim.Heap
	var evs sim.Heap
	coal := newUnitCoalescer(src, cfg.Batch, brng)
	coal.ctl = ctl
	var arrsBuf []time.Duration

	// Stream mode holds one coalesced unit beyond the admission frontier;
	// retained mode queues the whole trace up front. backlog counts
	// member requests in not-yet-admitted units (heap + lookahead) for
	// the streaming depth gauge.
	var lookID int32
	haveLook := false
	backlog := 0
	pullUnit := func() error {
		u, arrs, ok, err := coal.next(arrsBuf)
		arrsBuf = arrs
		if err != nil || !ok {
			haveLook = false
			return err
		}
		id, p := units.Alloc()
		p.unit = u
		p.readyAt = u.DispatchAt
		p.attempts = 0
		p.arrs = append(p.arrs[:0], arrs...)
		p.wait = 0
		p.waits = p.waits[:0]
		lookID = id
		haveLook = true
		backlog += u.Size
		return nil
	}
	if stream {
		if err := pullUnit(); err != nil {
			return nil, err
		}
	} else {
		for {
			u, arrs, ok, err := coal.next(arrsBuf)
			arrsBuf = arrs
			if err != nil {
				return nil, err
			}
			if !ok {
				break
			}
			id, p := units.Alloc()
			p.unit = u
			p.readyAt = u.DispatchAt
			p.attempts = 0
			p.arrs = append(p.arrs[:0], arrs...)
			p.wait = 0
			p.waits = p.waits[:0]
			admitQ.Push(sim.Event{At: u.DispatchAt, Class: evAdmit, Seq: uint64(u.First), ID: id})
		}
	}

	// One pipeline slot per partition stage: freeAt[i] is when stage i's
	// slot is next available, stageQ[i] the jobs waiting for it in
	// admission order. Only the fifo head holds a live stage event.
	freeAt := make([]time.Duration, width)
	stageQ := make([]fifo, width)
	running := 0 // units admitted into the pipeline and not yet settled
	seqCounter := 0

	// pushStage schedules the head job of its next stage's queue; the
	// slot-free and input-ready instants are both fixed at this point.
	pushStage := func(id int32, j *stageJob) {
		at := j.prevEnd
		if freeAt[j.next] > at {
			at = freeAt[j.next]
		}
		evs.Push(sim.Event{At: at, Class: evStage, Seq: uint64(j.seq), ID: id})
	}
	// enqueueStage appends a job to its next stage's queue, scheduling it
	// immediately when it becomes the head.
	enqueueStage := func(id int32, j *stageJob) {
		q := &stageQ[j.next]
		q.push(id)
		if q.head == len(q.ids)-1 {
			pushStage(id, j)
		}
	}
	// promote schedules the new head of stage i's queue after the old
	// head ran (freeAt[i] has just been updated).
	promote := func(i int) {
		if hid, ok := stageQ[i].peek(); ok {
			pushStage(hid, jobs.Get(hid))
		}
	}

	// Completion predictor for SLO shedding, as in the sequential loop.
	var estSum time.Duration
	var estN int

	// fill populates one member request's result and trace. The leader
	// carries the shifted job tree (with every cost event); followers get
	// a batch-ride span pointing at it, so obs.SumCostsAll over the
	// report's traces still replays each charge exactly once. In stream
	// mode results fold into the summary instead and no spans are built.
	fill := func(j *stageJob, jrep *coordinator.Report, done time.Duration, outcome, errText string) {
		u := j.unit
		shares := SplitCost(jrep.Cost, u.Size)
		for k := 0; k < u.Size; k++ {
			idx := u.First + k
			jr := &scratch
			if stream {
				scratch = JobResult{}
			} else {
				jr = &rep.Jobs[idx]
			}
			jr.Index = idx
			jr.Arrival = j.arrs[k]
			jr.Start = j.start
			jr.Done = done
			jr.Queue = j.start - j.arrs[k]
			jr.Latency = done - j.arrs[k]
			jr.Cost = shares[k]
			jr.Throttles = j.throttles
			jr.ThrottleWait = j.wait
			jr.Outcome = outcome
			jr.Err = errText
			if k == 0 {
				// The leader owns the job-level record: retries, faults and
				// the span tree belong to the one shared invocation.
				jr.Retries = jrep.Retries
				jr.Faults = jrep.FaultsInjected
				jr.Hedges = jrep.Hedges
				jr.HedgeWins = jrep.HedgeWins
				jr.ShortCircuits = jrep.ShortCircuits
				jr.BudgetDenied = jrep.BudgetDenied
				jr.WastedSpend = jrep.WastedSpend
				for _, lr := range jrep.PerLambda {
					if lr.Cold {
						jr.ColdStarts++
					}
				}
				// A sampled-out unit has no coordinator tree (failures and
				// hedge wins force one); then neither the leader nor its
				// followers keep request spans.
				if !stream {
					if jrep.Trace != nil {
						jr.Trace = requestSpan(jr, j.waits, jrep.Trace)
						if sampler != nil {
							h.spansSampled.Inc(1)
							h.tsSpansSampled.Inc(done, 1)
						}
					} else if sampler != nil {
						h.spansDropped.Inc(1)
						h.tsSpansDropped.Inc(done, 1)
					}
				}
			} else if !stream && jrep.Trace != nil {
				jr.Trace = batchRideSpan(jr, j.waits, u.First, u.Size)
			}
			h.cost.Add(jr.Cost)
			h.tsCost.Add(done, jr.Cost)
			if jr.Done > rep.Makespan {
				rep.Makespan = jr.Done
			}
			if stream {
				acc.fold(rep, jr)
			}
		}
	}

	// failUnit settles a unit whose staged job terminated with an error,
	// mirroring the sequential loop's outcome classification. It returns
	// a non-nil error when the failure must abort the whole run.
	failUnit := func(j *stageJob, err error) error {
		deadlined := coordinator.IsDeadlineExceeded(err)
		if !deadlined && !slo.TolerateFailures {
			return fmt.Errorf("serving: request %d: %w", j.unit.First, err)
		}
		if deadlined && slo.Deadline == 0 && !slo.TolerateFailures {
			return fmt.Errorf("serving: request %d: %w", j.unit.First, err)
		}
		budgetOut := !deadlined && coordinator.IsBudgetExhausted(err)
		outcome := OutcomeFailed
		if deadlined {
			outcome = OutcomeDeadline
		} else if budgetOut {
			outcome = OutcomeBudgetExhausted
		}
		frep := j.sj.Rep()
		var failDur time.Duration
		if frep.Trace != nil {
			failDur = frep.Trace.Duration
		} else {
			// Lean failures carry the elapsed time as a scalar instead
			// of a span tree (zero outside stream mode).
			failDur = frep.Elapsed
		}
		done := j.start + failDur
		fill(j, frep, done, outcome, err.Error())
		for k := 0; k < j.unit.Size; k++ {
			switch {
			case deadlined:
				h.deadline.Inc(1)
				h.tsDeadline.Inc(done, 1)
			case budgetOut:
				h.budgetExhausted.Inc(1)
				h.tsBudgetExhausted.Inc(done, 1)
			default:
				h.failures.Inc(1)
				h.tsFailures.Inc(done, 1)
			}
		}
		if stream {
			j.dep.ReleaseReport(frep)
		}
		return nil
	}

	var members []*tensor.Tensor

	for {
		ev, haveEv := evs.Peek()
		adm, haveAdm := admitQ.Peek()
		fromLook := false
		if stream && haveLook {
			// The coalescer frontier competes with backed-off units by the
			// same raw (readyAt, leader) order the materialized queue used.
			// Backed-off leaders always precede the frontier leader, so the
			// frontier wins only on a strictly earlier instant.
			p := units.Get(lookID)
			if !haveAdm || p.readyAt < adm.At {
				adm = sim.Event{At: p.readyAt, Class: evAdmit, Seq: uint64(p.unit.First), ID: lookID}
				fromLook = true
			}
			haveAdm = true
		}
		if !haveEv && !haveAdm {
			break
		}
		canAdmit := haveAdm && running < depth
		var admitAt time.Duration
		if canAdmit {
			// Units released into the past (the depth gate held them while
			// the clock moved on) admit now.
			admitAt = adm.At
			if admitAt < pl.Now() {
				admitAt = pl.Now()
			}
		}
		// At equal instants finishes and stage starts precede admissions
		// (class order), so admission wins only strictly earlier.
		chooseAdmit := canAdmit && (!haveEv || admitAt < ev.At)
		if !chooseAdmit && !haveEv {
			// Pipeline at depth capacity with nothing left to run: every
			// slot is waiting on an admission the depth gate blocks. This
			// cannot happen (finishing jobs free capacity and always hold a
			// live event), but guard against looping forever if it ever
			// does.
			return nil, fmt.Errorf("serving: pipelined scheduler stalled with %d queued, %d running", admitQ.Len(), running)
		}

		if chooseAdmit {
			uid := adm.ID
			if fromLook {
				haveLook = false
				if err := pullUnit(); err != nil {
					return nil, err
				}
			} else {
				admitQ.Pop()
			}
			p := units.Get(uid)
			pl.AdvanceTo(admitAt)
			now := pl.Now()
			u := p.unit
			backlog -= u.Size
			leader := u.First
			elapsed := now - p.arrs[0]
			if ts != nil {
				ts.Advance(now)
				// Queue depth after this unit leaves the queue: retained
				// runs count the not-yet-admitted units of the whole
				// materialized trace; streaming counts the request backlog
				// it can actually see. Writes repeating the previous
				// (window, value) pair are deduped — last-write-wins per
				// window makes them unobservable.
				d := admitQ.Len()
				if stream {
					d = backlog + coal.src.Remaining()
					if coal.haveNext {
						d++
					}
				}
				if depthDedup.changed(int64(now/tsWindow), d) {
					h.tsQueueDepth.Set(now, float64(d))
				}
			}
			applyBrownout(now)

			// Brownout's deepest rung rejects whole units at admission,
			// billed through its own counter so the health triggers see
			// post-shed windows as healthy (see the sequential loop).
			if ctl.Level() >= BrownoutShed {
				shedUnit(rep, &scratch, &acc, p, now, h, stream, true)
				units.Free(uid)
				continue
			}

			if slo.Shed && (elapsed >= slo.Deadline ||
				(estN > 0 && elapsed+estSum/time.Duration(estN) > slo.Deadline)) {
				shedUnit(rep, &scratch, &acc, p, now, h, stream, false)
				units.Free(uid)
				continue
			}

			if pl.InFlightAt(now)+width > limit {
				p.attempts++
				rep.Throttles++
				h.throttles.Inc(1)
				h.tsThrottles.Inc(now, 1)
				if p.attempts >= cfg.Throttle.attempts() {
					if !slo.TolerateFailures {
						return nil, fmt.Errorf("serving: request %d throttled %d times (limit %d, width %d)",
							leader, p.attempts, limit, width)
					}
					throttleOutUnit(rep, &scratch, &acc, p, now, h, stream)
					units.Free(uid)
					continue
				}
				bo := backoff(cfg.Throttle, p.attempts, rng)
				p.wait += bo
				if !stream {
					// Individual waits feed span building only;
					// stream mode keeps just the scalar total.
					p.waits = append(p.waits, bo)
				}
				p.readyAt = now + bo
				backlog += u.Size
				admitQ.Push(sim.Event{At: p.readyAt, Class: evAdmit, Seq: uint64(leader), ID: uid})
				continue
			}

			var jobDeadline time.Duration
			if slo.Deadline > 0 {
				jobDeadline = slo.Deadline - elapsed
				if jobDeadline <= 0 {
					jobDeadline = time.Nanosecond
				}
			}

			members = members[:0]
			for k := 0; k < u.Size; k++ {
				members = append(members, input(leader+k))
			}
			if u.Size > 1 {
				ph.batches.Inc(1)
				ph.tsBatches.Inc(now, 1)
			}
			ph.tsBatchSize.Observe(now, float64(u.Size))
			// Brownout's fallback rung routes this unit onto the quantized
			// deployment; the shared platform and meter keep costs exact.
			curDep := dep
			if ctl.Level() >= BrownoutFallback && fallback != nil {
				curDep = fallback
				rep.FallbackServed += u.Size
				h.fallback.Inc(int64(u.Size))
				h.tsFallback.Inc(now, int64(u.Size))
			}
			// The coordinator stacks the members only if a stage reads
			// them; members that cannot stack fail the serve (nil job).
			sj, err := curDep.BeginStaged(members, coordinator.StagedOptions{
				Deadline: jobDeadline,
				NoTrace:  stream || !sampler.Keep(uint64(leader)),
				Lean:     stream,
			})
			if sj == nil {
				return nil, fmt.Errorf("serving: batching requests %d..%d: %w", leader, leader+u.Size-1, err)
			}
			jid, j := jobs.Alloc()
			j.seq = seqCounter
			j.unit = u
			j.sj = sj
			j.dep = curDep
			j.start = now
			j.prevEnd = 0
			j.next = 0
			j.throttles = p.attempts
			j.wait = p.wait
			// Copied, not aliased: the unit's slab slot (and with it the
			// waits/arrs backing arrays) is recycled by later admissions.
			if !stream {
				j.waits = append(j.waits[:0], p.waits...)
			}
			j.arrs = append(j.arrs[:0], p.arrs...)
			seqCounter++
			units.Free(uid)
			if err != nil {
				if ferr := failUnit(j, err); ferr != nil {
					return nil, ferr
				}
				jobs.Free(jid)
				continue
			}
			j.prevEnd = now + sj.InputReady()
			running++
			enqueueStage(jid, j)
			continue
		}

		e, _ := evs.Pop()
		j := jobs.Get(e.ID)
		pl.AdvanceTo(e.At)
		now := pl.Now()
		ts.Advance(now)
		applyBrownout(now)

		switch e.Class {
		case evFinish:
			running--
			jrep, err := j.sj.Finish(now - j.start)
			if err != nil {
				ferr := failUnit(j, err)
				jobs.Free(e.ID)
				if ferr != nil {
					return nil, ferr
				}
				continue
			}
			fill(j, jrep, now, OutcomeOK, "")
			estSum += jrep.Completion
			estN++
			if stream {
				j.dep.ReleaseReport(jrep)
			}
			for k := 0; k < j.unit.Size; k++ {
				queueSec := (j.start - j.arrs[k]).Seconds()
				latencySec := (now - j.arrs[k]).Seconds()
				h.jobs.Inc(1)
				h.queueSec.Observe(queueSec)
				h.latencySec.Observe(latencySec)
				h.tsJobs.Inc(now, 1)
				h.tsQueueSec.Observe(now, queueSec)
				h.tsLatencySec.Observe(now, latencySec)
			}
			ph.tsRunning.Set(now, float64(running))
			jobs.Free(e.ID)

		case evStage:
			i := j.next
			stageQ[i].pop() // e.ID: only the head holds a live event
			svc, err := j.sj.RunStage(now - j.start)
			if err != nil {
				freeAt[i] = now + svc
				running--
				ferr := failUnit(j, err)
				jobs.Free(e.ID)
				if ferr != nil {
					return nil, ferr
				}
				promote(i)
				continue
			}
			freeAt[i] = now + svc
			j.prevEnd = now + svc
			j.next++
			// Stage utilization: the slot for partition stage i is busy for
			// svc from now — accounted in the window the stage started in.
			ph.tsStageBusy[i].Add(now, svc.Seconds())
			if j.next == width {
				evs.Push(sim.Event{At: j.prevEnd, Class: evFinish, Seq: uint64(j.seq), ID: e.ID})
			} else {
				enqueueStage(e.ID, j)
			}
			if inFlight := pl.InFlightAt(now); inFlight > rep.PeakInFlight {
				rep.PeakInFlight = inFlight
			}
			promote(i)
		}
	}

	if stream {
		acc.finalize(rep, n)
	} else {
		summarize(rep)
	}
	mx.Gauge("serving_peak_in_flight", float64(rep.PeakInFlight))
	cfg.Series.Advance(rep.Makespan)
	cfg.Series.Flush()
	finishBrownout(ctl, rep, mx, dep, fallback)
	return rep, nil
}

// shedUnit records an admission-control rejection for every member of a
// pending unit, mirroring the sequential loop's shed bookkeeping. With
// brown set the rejection came from brownout's deepest rung and bills
// through the brownout counter instead of serving_shed_total.
func shedUnit(rep *Report, scratch *JobResult, acc *summaryAcc, p *pendingUnit, now time.Duration, h serveHandles, stream, brown bool) {
	for k := 0; k < p.unit.Size; k++ {
		idx := p.unit.First + k
		jr := scratch
		if stream {
			*scratch = JobResult{}
		} else {
			jr = &rep.Jobs[idx]
		}
		jr.Index = idx
		jr.Arrival = p.arrs[k]
		jr.Start = now
		jr.Done = now
		jr.Queue = now - p.arrs[k]
		jr.Latency = jr.Queue
		jr.Throttles = p.attempts
		jr.ThrottleWait = p.wait
		jr.Outcome = OutcomeShed
		if !stream {
			jr.Trace = requestSpan(jr, p.waits, nil)
		}
		if brown {
			rep.BrownoutShed++
			h.brownoutShed.Inc(1)
			h.tsBrownoutShed.Inc(now, 1)
		} else {
			h.shed.Inc(1)
			h.tsShed.Inc(now, 1)
		}
		if stream {
			acc.fold(rep, jr)
		}
	}
}

// throttleOutUnit records an exhausted admission for every member of a
// pending unit (recorded only under TolerateFailures).
func throttleOutUnit(rep *Report, scratch *JobResult, acc *summaryAcc, p *pendingUnit, now time.Duration, h serveHandles, stream bool) {
	for k := 0; k < p.unit.Size; k++ {
		idx := p.unit.First + k
		jr := scratch
		if stream {
			*scratch = JobResult{}
		} else {
			jr = &rep.Jobs[idx]
		}
		jr.Index = idx
		jr.Arrival = p.arrs[k]
		jr.Start = now
		jr.Done = now
		jr.Queue = now - p.arrs[k]
		jr.Latency = jr.Queue
		jr.Throttles = p.attempts
		jr.ThrottleWait = p.wait
		jr.Outcome = OutcomeThrottled
		jr.Err = fmt.Sprintf("throttled %d times", p.attempts)
		if !stream {
			jr.Trace = requestSpan(jr, p.waits, nil)
		}
		h.admFail.Inc(1)
		h.tsAdmFail.Inc(now, 1)
		if stream {
			acc.fold(rep, jr)
		}
	}
}

// batchRideSpan is a follower member's trace: the usual request root
// (arrival, queue wait, backoffs) plus a batch-ride child covering the
// shared invocation's extent and naming the leader whose tree carries
// the actual spans and cost events. Followers hold no cost events of
// their own, so summing costs across all request traces still counts
// every charge exactly once.
func batchRideSpan(jr *JobResult, waits []time.Duration, leader, size int) *obs.Span {
	root := requestSpan(jr, waits, nil)
	ride := root.AddChild(&obs.Span{
		Name: "batch-ride", Kind: obs.KindBatch, Track: "serving",
		Start: jr.Start, Duration: jr.Done - jr.Start,
	})
	ride.SetAttr("leader", strconv.Itoa(leader))
	ride.SetAttr("batch", strconv.Itoa(size))
	return root
}
