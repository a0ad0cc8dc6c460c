package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"hash"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"repro/gptune"
	"repro/internal/bench"
	"repro/internal/histdb"
	"repro/internal/mpx"
	"repro/internal/sample"
)

// tuneSpec configures a tune workload: batch MLA on the registry's
// constrained gemm scenario through the gptune ask/tell engine, with a
// checkpoint WAL as the CLI's -checkpoint flag sets up.
type tuneSpec struct {
	name          string
	delta, epsTot int
	surrogate     string
	refitEvery    int
	inducing      int // sgp inducing points per task; 0 = the backend default
	// priorPerTask is the size, per task, of the prior history file the
	// session loads before tuning; 0 means no prior.
	priorPerTask int
	// sessionSeconds is the nominal length of one session on a 2-vCPU
	// virtual machine; a run holds round(--seconds / sessionSeconds)
	// sessions, so the work per run is fixed by --seconds and not by the
	// speed of the code.
	sessionSeconds float64
}

var (
	tuneGemm = tuneSpec{
		name: "tune-gemm", delta: 4, epsTot: 30, surrogate: "lcm",
		sessionSeconds: 4,
	}
	tuneHistory = tuneSpec{
		name: "tune-history", delta: 4, epsTot: 10, surrogate: "sgp", refitEvery: 5, inducing: 64,
		priorPerTask: 1000, sessionSeconds: 0.6,
	}
)

// setupReps is how many times a run times its set-up; setup_s is the median.
const setupReps = 31

// repeatGens is how many search generations the determinism check replays
// after the initial sampling batch.
const repeatGens = 2

// oracleSessions bounds how many sessions' tasks get their optimum
// enumerated (about 1.3 s of CPU per task) for the quality rows.
const oracleSessions = 4

// sessionInput is one session's generated inputs.
type sessionInput struct {
	tasks [][]float64
	seed  int64
	opt   []float64 // enumerated optimum per task (the oracle); nil when not computed
}

type tuneInputs struct {
	sessions []sessionInput
	priors   []string // prior history path per session; nil for none
}

func gemmProblem() (*gptune.Problem, *bench.Scenario, error) {
	sc, err := bench.Get("gemm")
	if err != nil {
		return nil, nil, err
	}
	p, err := sc.Problem(nil)
	return p, sc, err
}

// sessionsFor sizes a run: the number of sessions --seconds holds.
func (ts tuneSpec) sessionsFor(seconds int) int {
	return max(1, int(math.Round(float64(seconds)/ts.sessionSeconds)))
}

// inputs generates every session's tasks and engine seed from the workload
// seed, writes the prior history file if the workload has one, and — when
// oracle is set — computes the known optimum of each task by enumeration,
// outside every timed region.
func (ts tuneSpec) inputs(seed int64, sessions int, dir string, workers int, oracle bool) (*tuneInputs, error) {
	p, sc, err := gemmProblem()
	if err != nil {
		return nil, err
	}
	in := &tuneInputs{sessions: make([]sessionInput, sessions)}
	for s := range in.sessions {
		tasks, err := gptune.SampleTasks(p, ts.delta, deriveSeed(seed, "tasks", s))
		if err != nil {
			return nil, err
		}
		in.sessions[s] = sessionInput{tasks: tasks, seed: deriveSeed(seed, "engine", s)}
		if ts.priorPerTask > 0 {
			path := filepath.Join(dir, fmt.Sprintf("prior-%d.hist.json", s))
			if err := writePrior(path, p, tasks, ts.priorPerTask, deriveSeed(seed, "prior", s)); err != nil {
				return nil, err
			}
			in.priors = append(in.priors, path)
			settle() // keep input generation from setting the peak RSS
		}
	}
	if !oracle {
		return in, nil
	}
	// Oracle: enumerate the first sessions' optima, tasks in parallel.
	n := min(sessions, oracleSessions)
	for s := 0; s < n; s++ {
		in.sessions[s].opt = make([]float64, ts.delta)
	}
	known := make([]bool, n*ts.delta)
	mpx.ParallelFor(n*ts.delta, workers, func(i int) {
		si := &in.sessions[i/ts.delta]
		v, ok := sc.Optimum(si.tasks[i%ts.delta])
		si.opt[i%ts.delta], known[i] = v, ok && v > 0
	})
	for i, ok := range known {
		if !ok {
			return nil, fmt.Errorf("no known optimum for task %v", in.sessions[i/ts.delta].tasks[i%ts.delta])
		}
	}
	return in, nil
}

// writePrior stores a history of n feasible Latin-hypercube evaluations per
// task, the archive an earlier tuning campaign would have left behind.
func writePrior(path string, p *gptune.Problem, tasks [][]float64, n int, seed int64) error {
	db := gptune.NewHistory()
	rng := rand.New(rand.NewSource(seed))
	for _, task := range tasks {
		xs, err := sample.FeasibleLHS(p.Tuning, n, rng)
		if err != nil {
			return err
		}
		for _, x := range xs {
			y, err := p.Objective(task, x)
			if err != nil {
				return err
			}
			db.Append(gptune.HistoryRecord{Problem: p.Name, Task: task, Config: x, Outputs: y})
		}
	}
	return db.Save(path)
}

// timedCheckpoint wraps the WAL-backed checkpointer so the traced run can
// time Checkpointer.Eval (WAL append plus fsync) from outside.
type timedCheckpoint struct {
	cp *gptune.Checkpointer
	tr *tracer
	// parent is the loop's span in progress. Eval runs on the goroutine
	// that calls Observe, which is the loop's own.
	parent uint64
}

func (c *timedCheckpoint) Eval(rec gptune.CheckpointRecord) error {
	id, start := c.tr.begin()
	err := c.cp.Eval(rec)
	c.tr.end(id, c.parent, "histdb", "checkpoint", start)
	return err
}

func (c *timedCheckpoint) Lookup(task, requested []float64) (x, y []float64, ok bool) {
	return c.cp.Lookup(task, requested)
}

// refitCounter is the Options.Transfer store: the engine saves one model
// snapshot per full refit (incremental generations save none), so counting
// saves counts refits.
type refitCounter struct{ n int }

func (r *refitCounter) SaveModel(gptune.ModelSnapshot) error {
	r.n++
	return nil
}

// sessionOut is what one tuning session measured and produced.
type sessionOut struct {
	evals     int
	elapsed   time.Duration   // the timed region
	cpu       time.Duration   // process CPU time over the timed region, kernel runs left out
	refCPU    time.Duration   // the reference-kernel runs between its batches
	heap      []float64       // heap samples over the timed region, MiB
	suggestMs []float64       // SuggestAll calls that handed out a batch
	reportMs  []float64       // Observe calls
	digests   []string        // history digest after each batch
	quality   *sessionQuality // nil without the oracle
	modeling  time.Duration
	search    time.Duration
	objective time.Duration
	refits    int
	loadMs    float64
	final     *gptune.Result // session 0 only
	ownX      [][][]float64  // the session's own evaluations per task
	ownY      [][][]float64
	checks    []string // output-check failures
}

// sessionPaths returns a fresh checkpoint location under dir.
func sessionPath(dir string, s, workers int) (string, error) {
	path := filepath.Join(dir, fmt.Sprintf("session-%d-w%d.hist.json", s, workers))
	for _, p := range []string{path, histdb.WalPath(path)} {
		if err := os.Remove(p); err != nil && !errors.Is(err, os.ErrNotExist) {
			return "", err
		}
	}
	return path, nil
}

// setup builds what a session needs before its first ask — the problem, the
// checkpoint and the engine — and returns the time it took.
func (ts tuneSpec) setup(dir string, workers int, si sessionInput) (time.Duration, error) {
	path, err := sessionPath(dir, -1, workers)
	if err != nil {
		return 0, err
	}
	t0 := time.Now()
	p, _, err := gemmProblem()
	if err != nil {
		return 0, err
	}
	cp, err := gptune.NewCheckpoint(path, gptune.CheckpointOptions{Problem: p.Name})
	if err != nil {
		return 0, err
	}
	_, err = gptune.NewEngine(p, si.tasks, ts.options(workers, si.seed, cp, &refitCounter{}))
	d := time.Since(t0)
	if cerr := cp.Close(); err == nil {
		err = cerr
	}
	return d, err
}

func (ts tuneSpec) options(workers int, seed int64, cp gptune.Checkpoint, refits *refitCounter) gptune.Options {
	return gptune.Options{
		EpsTot:     ts.epsTot,
		Workers:    workers,
		Seed:       seed,
		Surrogate:  ts.surrogate,
		RefitEvery: ts.refitEvery,
		Inducing:   ts.inducing,
		Checkpoint: cp,
		Transfer:   refits,
	}
}

// gemmFeasible checks the scenario's divisibility constraints directly.
func gemmFeasible(x []float64) bool {
	return len(x) == 5 && math.Mod(x[0], x[3]) == 0 && math.Mod(x[1], x[4]) == 0
}

// session runs one tuning session with the ask/tell loop every tune run
// uses: SuggestAll hands out a batch, the loop evaluates each suggestion
// and reports it with Observe, in batch order. maxBatches > 0 stops early
// (the determinism repeat). A non-nil rc runs once after each batch, and
// its time is left out of the session's.
func (ts tuneSpec) session(in *tuneInputs, s int, dir string, workers, maxBatches int, tr *tracer, rc *refClock) (*sessionOut, error) {
	si := in.sessions[s]
	p, _, err := gemmProblem()
	if err != nil {
		return nil, err
	}
	path, err := sessionPath(dir, s, workers)
	if err != nil {
		return nil, err
	}
	cp, err := gptune.NewCheckpoint(path, gptune.CheckpointOptions{Problem: p.Name})
	if err != nil {
		return nil, err
	}
	defer cp.Close()
	ck := &timedCheckpoint{cp: cp, tr: tr}
	refits := &refitCounter{}
	opts := ts.options(workers, si.seed, ck, refits)
	out := &sessionOut{ownX: make([][][]float64, ts.delta), ownY: make([][][]float64, ts.delta)}

	var eng *gptune.Engine
	var t0 time.Time
	var cpu0, refWall time.Duration
	settle()
	heap := startHeapSampler()
	if in.priors != nil {
		// The history load is part of the timed run: reusing an archive
		// costs reading it.
		t0, cpu0 = time.Now(), cpuTime()
		id, start := tr.begin()
		db, err := gptune.LoadHistory(in.priors[s])
		if err != nil {
			return nil, err
		}
		opts.Prior = gptune.PriorFromHistory(db, p.Name, si.tasks)
		tr.end(id, 0, "histdb", "load", start)
		out.loadMs = ms(time.Since(t0))
		if len(opts.Prior) != ts.priorPerTask*ts.delta {
			out.checks = append(out.checks, fmt.Sprintf("prior: loaded %d samples, want %d", len(opts.Prior), ts.priorPerTask*ts.delta))
		}
		if eng, err = gptune.NewEngine(p, si.tasks, opts); err != nil {
			return nil, err
		}
	} else {
		if eng, err = gptune.NewEngine(p, si.tasks, opts); err != nil {
			return nil, err
		}
		t0, cpu0 = time.Now(), cpuTime()
	}

	var q *qualityTracker
	if si.opt != nil {
		q = newQualityTracker(si.opt)
	}
	h := sha256.New()
	for batches := 0; maxBatches <= 0 || batches < maxBatches; batches++ {
		id, start := tr.begin()
		tc := time.Now()
		suggs, err := eng.SuggestAll()
		d := time.Since(tc)
		tr.end(id, 0, "core", "suggest_all", start)
		if err != nil {
			return nil, err
		}
		if len(suggs) == 0 {
			break
		}
		out.suggestMs = append(out.suggestMs, ms(d))
		for _, sg := range suggs {
			if !gemmFeasible(sg.X) {
				out.checks = append(out.checks, fmt.Sprintf("suggestion %v violates MC%%MR==0 or NC%%NR==0", sg.X))
			}
			to := time.Now()
			y, err := p.Objective(si.tasks[sg.Task], sg.X)
			out.objective += time.Since(to)
			if err != nil {
				return nil, err
			}
			id, start := tr.begin()
			ck.parent = id
			tc := time.Now()
			err = eng.Observe(sg.ID, y)
			d := time.Since(tc)
			tr.end(id, 0, "core", "observe", start)
			if err != nil {
				return nil, err
			}
			out.reportMs = append(out.reportMs, ms(d))
			out.ownX[sg.Task] = append(out.ownX[sg.Task], sg.X)
			out.ownY[sg.Task] = append(out.ownY[sg.Task], y)
			hashObservation(h, sg.Task, sg.X, y)
			if q != nil {
				q.observe(sg.Task, y[0], time.Since(t0)-refWall)
			}
			out.evals++
		}
		out.digests = append(out.digests, hex.EncodeToString(h.Sum(nil)))
		if rc != nil {
			tk, k0 := time.Now(), rc.cpu
			if err := rc.sample(1); err != nil {
				return nil, err
			}
			refWall += time.Since(tk)
			out.refCPU += rc.cpu - k0
		}
	}
	out.elapsed, out.cpu = time.Since(t0)-refWall, cpuTime()-cpu0-out.refCPU
	out.heap = heap.stop()

	res := eng.Result()
	if s == 0 {
		out.final = res // the layer rows' data; later sessions' would only pad the RSS
	}
	out.modeling, out.search = res.Stats.Modeling, res.Stats.Search
	out.refits = refits.n
	if q != nil {
		sq := &sessionQuality{}
		sq.evalsTo1, sq.timeTo1, sq.censored = q.result(ts.epsTot, out.elapsed)
		for i, t := range res.Tasks {
			_, y := t.Best()
			sq.bestGapPct += (y[0]/si.opt[i] - 1) * 100 / float64(len(res.Tasks))
		}
		out.quality = sq
	}
	if maxBatches <= 0 {
		if want := ts.delta * ts.epsTot; out.evals != want || !eng.Done() {
			out.checks = append(out.checks, fmt.Sprintf("session %d: %d evaluations committed (done=%v), want %d", s, out.evals, eng.Done(), want))
		}
	}
	if err := cp.Close(); err != nil {
		return nil, err
	}
	v, err := gptune.VerifyHistory(path)
	switch {
	case err != nil:
		out.checks = append(out.checks, fmt.Sprintf("session %d: checkpoint verify: %v", s, err))
	case v.TornBytes != 0 || v.SnapshotRecords+v.LogRecords != out.evals:
		out.checks = append(out.checks, fmt.Sprintf("session %d: checkpoint holds %d records (%d torn bytes), want %d",
			s, v.SnapshotRecords+v.LogRecords, v.TornBytes, out.evals))
	}
	return out, nil
}

// hashObservation folds one committed evaluation into a history digest.
func hashObservation(h hash.Hash, task int, x, y []float64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], uint64(task))
	h.Write(b[:])
	for _, vs := range [][]float64{x, y} {
		for _, v := range vs {
			binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
			h.Write(b[:])
		}
	}
}

// sessionQuality is time to quality against the oracle.
type sessionQuality struct {
	evalsTo1   int // evaluations per task until every task is within 1%
	timeTo1    time.Duration
	censored   bool // some task never came within 1%
	bestGapPct float64
}

// qualityTracker follows each task's best-so-far against its known optimum.
type qualityTracker struct {
	opt   []float64
	best  []float64
	count []int
	hitAt []int // evaluation index at which the task first came within 1%
	done  bool
	evals int
	at    time.Duration
}

func newQualityTracker(opt []float64) *qualityTracker {
	q := &qualityTracker{opt: opt, best: make([]float64, len(opt)), count: make([]int, len(opt)), hitAt: make([]int, len(opt))}
	for i := range q.best {
		q.best[i] = math.Inf(1)
	}
	return q
}

// observe records one evaluation of task with objective value y at elapsed
// time since the session began.
func (q *qualityTracker) observe(task int, y float64, elapsed time.Duration) {
	q.count[task]++
	q.best[task] = math.Min(q.best[task], y)
	if q.hitAt[task] == 0 && q.best[task] <= q.opt[task]*1.01 {
		q.hitAt[task] = q.count[task]
	}
	if q.done {
		return
	}
	worst := 0
	for _, h := range q.hitAt {
		if h == 0 {
			return
		}
		worst = max(worst, h)
	}
	q.done, q.evals, q.at = true, worst, elapsed
}

// result returns evaluations per task and time until every task was within
// 1%; a session that never got there is censored at budget+1 evaluations
// and its full length.
func (q *qualityTracker) result(budget int, total time.Duration) (int, time.Duration, bool) {
	if !q.done {
		return budget + 1, total, true
	}
	return q.evals, q.at, false
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// deriveSeed derives a stream seed from the workload seed (splitmix64 over
// the seed, an FNV-1a hash of the tag, and an index).
func deriveSeed(seed int64, tag string, i int) int64 {
	h := uint64(14695981039346656037)
	for _, c := range []byte(tag) {
		h ^= uint64(c)
		h *= 1099511628211
	}
	z := uint64(seed) ^ h ^ (uint64(i)+1)*0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	z ^= z >> 31
	return int64(z >> 1)
}

// run executes a tune workload: inputs, set-up repetitions, the measured
// sessions, the determinism repeat, and — when tracing — the oracle, a
// traced pass and the layer rows.
func (ts tuneSpec) run(c runConfig) (*outcome, error) {
	sessions := ts.sessionsFor(c.seconds)
	in, err := ts.inputs(c.seed, sessions, c.dir, c.workers, c.trace)
	if err != nil {
		return nil, err
	}
	// The set-ups run between sessions, spread over the run so that their
	// median samples the host's drift as the sessions do.
	rc := cholClock(c.workers)
	var setups []float64
	perSlot := (setupReps + sessions) / (sessions + 1)
	between := func(slot int) error {
		for r := 0; r < perSlot; r++ {
			d, err := ts.setup(c.dir, c.workers, in.sessions[(slot+r)%sessions])
			if err != nil {
				return err
			}
			setups = append(setups, d.Seconds())
		}
		return nil
	}
	base, err := ts.measure(in, c.dir, c.workers, nil, rc, between)
	if err != nil {
		return nil, err
	}
	o := &outcome{metrics: newMetricSet()}
	m := o.metrics
	m.set("setup_s", median(setups))
	m.note("setup_s", "median of %d spread over the run, quartiles %.2g %.2g s", len(setups), sortedCopy(setups)[len(setups)/4], sortedCopy(setups)[3*len(setups)/4])
	o.absorb(base)

	rep, err := ts.session(in, 0, c.dir, 1, 1+repeatGens, nil, nil)
	if err != nil {
		return nil, err
	}
	if k := len(rep.digests) - 1; k < 0 || k >= len(base[0].digests) || rep.digests[k] != base[0].digests[k] {
		o.checks = append(o.checks, fmt.Sprintf("history digest of session 0 after %d batches differs between Workers=%d and a Workers=1 repeat",
			len(rep.digests), c.workers))
	}
	o.checks = append(o.checks, rep.checks...)

	baseEPS := evalsPerSecond(base)
	var suggest, rpt, cpu, heap []float64
	for _, s := range base {
		cpu = append(cpu, ms(s.cpu)/float64(s.evals))
		heap = append(heap, s.heap...)
		suggest = append(suggest, s.suggestMs...)
		rpt = append(rpt, s.reportMs...)
	}
	// The median over sessions, because a session's cost has a heavy tail:
	// one slow surrogate fit can double it.
	setRef(m, median(cpu), rc)
	m.note("api.cpu_ms_per_eval", "median over %d sessions of %d evaluations, range %.1f–%.1f", len(cpu), base[0].evals, sortedCopy(cpu)[0], maxOf(cpu))
	m.set("heap_p90_mb", heapP90(heap))
	m.note("heap_p90_mb", "%d samples over %d sessions, peak %.2f", len(heap), len(base), maxOf(heap))
	m.set("api.evals_per_s", baseEPS)
	m.setDist("api.suggest_ms.p50", "api.suggest_ms.tail", suggest)
	m.setDist("api.report_ms.p50", "api.report_ms.tail", rpt)
	ts.sessionLayers(m, base)

	if c.trace {
		tr := newTracer()
		traced, err := ts.measure(in, c.dir, c.workers, tr, nil, nil)
		if err != nil {
			return nil, err
		}
		o.absorb(traced)
		ts.sessionLayers(m, traced)
		o.spans = tr.snapshot()
		m.set("trace.overhead_pct", (1-evalsPerSecond(traced)/baseEPS)*100)
		var ckpt []float64
		for _, s := range o.spans {
			if s.Layer == "histdb" && s.Op == "checkpoint" {
				ckpt = append(ckpt, float64(s.dur())/1e3)
			}
		}
		m.setDist("histdb.checkpoint_us.p50", "histdb.checkpoint_us.tail", ckpt)
		selfSumGap(m, o.spans, map[string]bool{"suggest_all": true, "observe": true}, append(suggest, rpt...))

		p, _, err := gemmProblem()
		if err != nil {
			return nil, err
		}
		s0 := traced[0].final
		xs, ys := make([][][]float64, len(s0.Tasks)), make([][][]float64, len(s0.Tasks))
		for t, tr := range s0.Tasks {
			xs[t], ys[t] = tr.X, tr.Y
		}
		ld := layerData{exact: datasetOf(p, traced[0].ownX, traced[0].ownY), full: datasetOf(p, xs, ys), seed: in.sessions[0].seed, inducing: ts.inducing}
		if err := layerRows(m, ld, c.workers); err != nil {
			return nil, err
		}
	}
	return o, nil
}

// evalsPerSecond is committed evaluations over the sessions' timed runs.
func evalsPerSecond(sessions []*sessionOut) float64 {
	evals, elapsed := 0, time.Duration(0)
	for _, s := range sessions {
		evals += s.evals
		elapsed += s.elapsed
	}
	return float64(evals) / elapsed.Seconds()
}

// measure runs every session of the workload once, with rc's kernel after
// each batch when rc is not nil. A non-nil between runs before each session
// and after the last, with the slot's index.
func (ts tuneSpec) measure(in *tuneInputs, dir string, workers int, tr *tracer, rc *refClock, between func(int) error) ([]*sessionOut, error) {
	outs := make([]*sessionOut, len(in.sessions))
	for s := 0; s <= len(in.sessions); s++ {
		if between != nil {
			if err := between(s); err != nil {
				return nil, err
			}
		}
		if s == len(in.sessions) {
			break
		}
		out, err := ts.session(in, s, dir, workers, 0, tr, rc)
		if err != nil {
			return nil, fmt.Errorf("session %d: %w", s, err)
		}
		outs[s] = out
	}
	return outs, nil
}

// absorb adds the sessions' evaluations and output checks to the outcome.
func (o *outcome) absorb(sessions []*sessionOut) {
	for _, s := range sessions {
		o.attempted += int64(s.evals)
		o.checks = append(o.checks, s.checks...)
	}
}

// sessionLayers records the core and quality rows the sessions measured.
func (ts tuneSpec) sessionLayers(m *metricSet, sessions []*sessionOut) {
	var gens, observeUs []float64
	var refits, censored int
	var modeling, search, objective time.Duration
	var t1, e1, gap, load []float64
	for _, s := range sessions {
		gens = append(gens, s.suggestMs...)
		for _, r := range s.reportMs {
			observeUs = append(observeUs, r*1e3)
		}
		refits += s.refits
		modeling += s.modeling
		search += s.search
		objective += s.objective
		if q := s.quality; q != nil {
			t1 = append(t1, q.timeTo1.Seconds())
			e1 = append(e1, float64(q.evalsTo1))
			gap = append(gap, q.bestGapPct)
			if q.censored {
				censored++
			}
		}
		if s.loadMs > 0 {
			load = append(load, s.loadMs)
		}
	}
	m.set("core.generations", float64(len(gens)))
	m.set("core.refits", float64(refits))
	m.set("core.generation_ms.p50", median(gens))
	m.set("core.generation_ms.max", maxOf(gens))
	m.set("core.modeling_s", modeling.Seconds())
	m.set("core.search_s", search.Seconds())
	m.set("core.objective_s", objective.Seconds())
	m.set("core.observe_us.p50", median(observeUs))
	if len(load) > 0 {
		m.set("histdb.load_ms", median(load))
	}
	if len(t1) == 0 {
		return // no oracle: quality is measured by traced runs
	}
	m.set("quality.time_to_1pct_s", mean(t1))
	m.set("quality.evals_to_1pct", mean(e1))
	m.set("quality.best_gap_pct", mean(gap))
	for _, name := range []string{"quality.time_to_1pct_s", "quality.evals_to_1pct", "quality.best_gap_pct"} {
		m.note(name, "mean of %d sessions, %d censored at the budget", len(t1), censored)
	}
}
