package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"math"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"repro/gptune"
	"repro/gptune/client"
	"repro/internal/bench"
	"repro/internal/histdb"
	"repro/internal/mpx"
	"repro/internal/router"
	"repro/internal/serve"
)

// fleetSpec configures serve-fleet: in-process gptuned replicas behind the
// router on a disk-backed data directory, many small synchronous recsys
// studies, and closed-loop clients.
type fleetSpec struct {
	name     string
	replicas int
	delta    int
	epsTot   int
	// studiesPerSecond sizes a run: --seconds × studiesPerSecond studies,
	// fixed work per run, near --seconds long on a 2-vCPU virtual machine.
	studiesPerSecond float64
	// minOps is the fewest suggests and reports a run must hold, so that
	// each tail has at least minBeyond samples beyond it.
	minOps int
	// refStudies is how many studies are replayed in process through the
	// batch loop (gptune.Tune) to check their served history bit for bit.
	refStudies int
}

var serveFleet = fleetSpec{
	name: "serve-fleet", replicas: 2, delta: 2, epsTot: 20,
	studiesPerSecond: 1.7, minOps: 1000, refStudies: 2,
}

type studyInput struct {
	name  string
	tasks [][]float64
	seed  int64
	floor []float64 // known optimum per task
}

func (fs fleetSpec) studiesFor(seconds int) int {
	return max(1, int(math.Round(float64(seconds)*fs.studiesPerSecond)))
}

func recsysProblem() (*gptune.Problem, *bench.Scenario, error) {
	sc, err := bench.Get("recsys")
	if err != nil {
		return nil, nil, err
	}
	p, err := sc.Problem(nil)
	return p, sc, err
}

// inputs generates every study's tasks and engine seed from the workload
// seed.
func (fs fleetSpec) inputs(seed int64, studies int) ([]studyInput, error) {
	p, sc, err := recsysProblem()
	if err != nil {
		return nil, err
	}
	out := make([]studyInput, studies)
	for i := range out {
		tasks, err := gptune.SampleTasks(p, fs.delta, deriveSeed(seed, "study-tasks", i))
		if err != nil {
			return nil, err
		}
		floor := make([]float64, len(tasks))
		for t, task := range tasks {
			v, ok := sc.Optimum(task)
			if !ok || !(v > 0) {
				return nil, fmt.Errorf("no known optimum for recsys task %v", task)
			}
			floor[t] = v
		}
		out[i] = studyInput{name: fmt.Sprintf("fleet-%04d", i), tasks: tasks, seed: deriveSeed(seed, "study", i), floor: floor}
	}
	return out, nil
}

func (fs fleetSpec) spec(in studyInput) client.StudySpec {
	return client.StudySpec{
		Name:     in.name,
		Scenario: "recsys",
		Tasks:    in.tasks,
		Options:  client.OptionsSpec{EpsTot: fs.epsTot, Seed: in.seed},
	}
}

// batchOf maps a suggestion ID to its batch: IDs are handed out in order,
// the initial batch holds δ·round(ε_tot/2) of them and every later batch δ.
func (fs fleetSpec) batchOf(id int64) int64 {
	if id < 0 {
		return -1
	}
	initial := int64(fs.delta) * int64(math.Round(float64(fs.epsTot)*0.5))
	if id < initial {
		return 0
	}
	return 1 + (id-initial)/int64(fs.delta)
}

// replica is one in-process gptuned.
type replica struct {
	srv *serve.Server
	hs  *http.Server
	wg  sync.WaitGroup
	url string
}

// fleet is the running service: replicas, router, and the counters its
// wrappers keep.
type fleet struct {
	replicas []*replica
	rt       *router.Router
	rhs      *http.Server
	rwg      sync.WaitGroup
	url      string
	serveSC  statusCounts
	routerSC statusCounts
}

func listen() (net.Listener, string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, "", err
	}
	return ln, "http://" + ln.Addr().String(), nil
}

// startFleet starts the replicas and the router. On error everything
// started so far is stopped.
func startFleet(dir string, n int, tr *tracer) (*fleet, error) {
	f := &fleet{}
	var urls []string
	for i := 0; i < n; i++ {
		srv, err := serve.NewServer(serve.Config{DataDir: filepath.Join(dir, fmt.Sprintf("node%d", i))})
		if err != nil {
			f.stop()
			return nil, err
		}
		ln, url, err := listen()
		if err != nil {
			srv.Close()
			f.stop()
			return nil, err
		}
		rep := &replica{srv: srv, url: url, hs: &http.Server{Handler: &spanHandler{h: srv.Handler(), tr: tr, layer: "serve", counts: &f.serveSC}}}
		mpx.Go(&rep.wg, func() { _ = rep.hs.Serve(ln) }) // returns http.ErrServerClosed at stop
		f.replicas = append(f.replicas, rep)
		urls = append(urls, url)
	}
	rt, err := router.New(router.Config{Replicas: urls})
	if err != nil {
		f.stop()
		return nil, err
	}
	rt.Start()
	f.rt = rt
	ln, url, err := listen()
	if err != nil {
		f.stop()
		return nil, err
	}
	f.url = url
	f.rhs = &http.Server{Handler: &spanHandler{h: rt.Handler(), tr: tr, layer: "router", counts: &f.routerSC}}
	mpx.Go(&f.rwg, func() { _ = f.rhs.Serve(ln) })
	return f, nil
}

// stop shuts the router and the replicas down and closes every study WAL.
func (f *fleet) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	var first error
	keep := func(err error) {
		if err != nil && first == nil {
			first = err
		}
	}
	if f.rhs != nil {
		keep(f.rhs.Shutdown(ctx))
		f.rwg.Wait()
	}
	if f.rt != nil {
		f.rt.Stop()
	}
	for _, r := range f.replicas {
		r.srv.BeginDrain()
		keep(r.hs.Shutdown(ctx))
		r.wg.Wait()
		keep(r.srv.Close())
	}
	return first
}

// histPath finds the replica data directory holding a study's history.
func (f *fleet) histPath(name string) (string, error) {
	for _, r := range f.replicas {
		if _, err := os.Stat(r.srv.SpecPath(name)); err == nil {
			return r.srv.HistPath(name), nil
		}
	}
	return "", fmt.Errorf("study %s is on no replica", name)
}

// fleetClient is one closed-loop client: its own gptune/client over one
// kept-alive connection, and the samples it measured.
type fleetClient struct {
	cl       *client.Client
	tr       *tracer
	ctx      context.Context
	attempts atomic.Int64

	calls, failed, committed, dups int
	suggestMs, reportMs            []float64
	genRoots                       []uint64 // root spans of suggests that ran or waited on a generation
	roots                          []uint64 // root spans of suggest and report calls
	errs                           []string
}

func newFleetClient(ctx context.Context, url string, tr *tracer, seed int64) (*fleetClient, error) {
	c := &fleetClient{tr: tr, ctx: ctx}
	transport := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, IdleConnTimeout: time.Minute}
	cl, err := client.New(client.Config{
		Replicas:   []string{url},
		HTTPClient: &http.Client{Transport: &spanTransport{base: transport, tr: tr, attempts: &c.attempts}},
		JitterSeed: seed,
	})
	if err != nil {
		return nil, err
	}
	c.cl = cl
	return c, nil
}

// call runs one logical client call under a client-layer span and returns
// its client-observed latency.
func (c *fleetClient) call(op string, fn func(ctx context.Context) error) (time.Duration, uint64, error) {
	c.calls++
	id, start := c.tr.begin()
	ctx := c.ctx
	if id != 0 {
		ctx = context.WithValue(ctx, spanKey{}, id)
	}
	t0 := time.Now()
	err := fn(ctx)
	d := time.Since(t0)
	c.tr.end(id, 0, "client", op, start)
	return d, id, err
}

func (c *fleetClient) fail(format string, args ...any) {
	c.failed++
	if len(c.errs) < 5 {
		c.errs = append(c.errs, fmt.Sprintf(format, args...))
	}
}

// fleetStudy is the clients' shared view of one study.
type fleetStudy struct {
	in    studyInput
	done  atomic.Bool
	maxID atomic.Int64 // highest suggestion ID handed out so far, -1 before any

	mu      sync.Mutex
	first   time.Duration // since the run began, first suggest of the study
	end     time.Duration // since the run began, end of the study's wave
	started bool
	q       *qualityTracker
	best    []client.BestEntry
}

// fleetRun is one measured pass of serve-fleet.
type fleetRun struct {
	setupS    float64
	setups    []float64     // every set-up's seconds, in order
	elapsed   time.Duration // the waves' client phases
	cpu       time.Duration // process CPU time over the waves' client phases
	ref       *refClock     // kernel runs before each wave and after the last
	waveCPU   []float64     // CPU ms per committed evaluation, per wave
	heap      []float64     // heap samples over the waves' client phases, MiB
	clients   []*fleetClient
	studies   []*fleetStudy
	spans     []span
	histories map[string][]client.TaskHistory
	checks    []string
	serve4xx  int64
	serve5xx  int64
	router5xx int64
}

// setup starts the fleet and creates every study through the router.
func (fs fleetSpec) setup(dir string, studies []studyInput, tr *tracer) (*fleet, *fleetClient, time.Duration, error) {
	if err := os.RemoveAll(dir); err != nil {
		return nil, nil, 0, err
	}
	t0 := time.Now()
	f, err := startFleet(dir, fs.replicas, tr)
	if err != nil {
		return nil, nil, 0, err
	}
	admin, err := newFleetClient(context.Background(), f.url, tr, 0)
	if err != nil {
		f.stop()
		return nil, nil, 0, err
	}
	for _, in := range studies {
		spec := fs.spec(in)
		if _, _, err := admin.call("create", func(ctx context.Context) error { return admin.cl.Create(ctx, spec) }); err != nil {
			f.stop()
			return nil, nil, 0, fmt.Errorf("creating %s: %w", in.name, err)
		}
	}
	return f, admin, time.Since(t0), nil
}

// measure sets the fleet up fleetSetupReps times (keeping the last), drives
// every study to done with nproc closed-loop clients, and checks the outputs.
func (fs fleetSpec) measure(dir string, studies []studyInput, nclients int, tr *tracer) (*fleetRun, error) {
	run := &fleetRun{histories: map[string][]client.TaskHistory{}}
	var setups []float64
	var f *fleet
	var admin *fleetClient
	for r := 0; r < fleetSetupReps; r++ {
		var d time.Duration
		var err error
		if f, admin, d, err = fs.setup(filepath.Join(dir, "data"), studies, tr); err != nil {
			return nil, err
		}
		setups = append(setups, d.Seconds())
		if r < fleetSetupReps-1 {
			if err := f.stop(); err != nil {
				return nil, err
			}
			settle() // keep discarded set-ups from setting the peak RSS
		}
	}
	run.setupS = median(setups)
	run.setups = setups
	stopped := false
	defer func() {
		if !stopped {
			f.stop()
		}
	}()

	p, _, err := recsysProblem()
	if err != nil {
		return nil, err
	}
	run.studies = make([]*fleetStudy, len(studies))
	for i, in := range studies {
		st := &fleetStudy{in: in, q: newQualityTracker(in.floor)}
		st.maxID.Store(-1)
		run.studies[i] = st
	}
	ctx, cancel := context.WithTimeout(context.Background(), fleetDeadline)
	defer cancel()
	var open atomic.Int64
	open.Store(int64(len(studies)))
	for i := 0; i < nclients; i++ {
		c, err := newFleetClient(ctx, f.url, tr, int64(i+1))
		if err != nil {
			return nil, err
		}
		run.clients = append(run.clients, c)
	}
	// The studies run in waves, one after the other, with the reference
	// kernel before each wave and after the last: a wave is to serve-fleet
	// what a session is to the tune workloads.
	ref, closeRef, err := httpClock(nclients)
	if err != nil {
		return nil, err
	}
	defer closeRef()
	run.ref = ref
	t0 := time.Now()
	waves := min(fleetWaves, len(studies))
	for w := 0; w < waves; w++ {
		if err := run.ref.sample(fleetRefSamples); err != nil {
			return nil, err
		}
		wave := run.studies[w*len(studies)/waves : (w+1)*len(studies)/waves]
		open.Store(int64(len(wave)))
		committed0 := run.committed()
		var wg sync.WaitGroup
		settle()
		heap := startHeapSampler()
		tw, cpu0 := time.Now(), cpuTime()
		for i, c := range run.clients {
			cursor := i * len(wave) / nclients
			mpx.Go(&wg, func() { fs.drive(c, p, wave, cursor, &open, t0) })
		}
		wg.Wait()
		elapsed, cpu := time.Since(tw), cpuTime()-cpu0
		for _, st := range wave {
			st.end = time.Since(t0)
		}
		run.heap = append(run.heap, heap.stop()...)
		run.elapsed += elapsed
		run.cpu += cpu
		run.waveCPU = append(run.waveCPU, ms(cpu)/float64(run.committed()-committed0))
		if ctx.Err() != nil {
			run.checks = append(run.checks, fmt.Sprintf("clients hit the %v deadline with %d studies open", fleetDeadline, open.Load()))
			break
		}
	}
	if err := run.ref.sample(fleetRefSamples); err != nil {
		return nil, err
	}
	if err := closeRef(); err != nil {
		return nil, err
	}

	// Output checks through the public API while the fleet still runs.
	want := fs.delta * fs.epsTot
	for _, st := range run.studies {
		name := st.in.name
		var status client.Status
		if _, _, err := admin.call("status", func(ctx context.Context) error {
			var err error
			status, err = admin.cl.Status(ctx, name)
			return err
		}); err != nil {
			return nil, fmt.Errorf("status %s: %w", name, err)
		}
		if !status.Done || status.Observations != want || status.Logged != want {
			run.checks = append(run.checks, fmt.Sprintf("study %s: done=%v observations=%d logged=%d, want done with %d",
				name, status.Done, status.Observations, status.Logged, want))
		}
		var hist []client.TaskHistory
		if _, _, err := admin.call("history", func(ctx context.Context) error {
			var err error
			hist, err = admin.cl.History(ctx, name)
			return err
		}); err != nil {
			return nil, fmt.Errorf("history %s: %w", name, err)
		}
		run.histories[name] = hist
	}
	run.clients = append(run.clients, admin)
	run.serve4xx, run.serve5xx = f.serveSC.c4xx.Load(), f.serveSC.c5xx.Load()
	run.router5xx = f.routerSC.c5xx.Load()
	if run.serve5xx != 0 || run.router5xx != 0 {
		run.checks = append(run.checks, fmt.Sprintf("%d replica and %d router 5xx responses", run.serve5xx, run.router5xx))
	}
	stopped = true
	if err := f.stop(); err != nil {
		return nil, fmt.Errorf("stopping the fleet: %w", err)
	}

	// Every study WAL must verify after shutdown and hold exactly the
	// served history.
	for _, st := range run.studies {
		name := st.in.name
		path, err := f.histPath(name)
		if err != nil {
			run.checks = append(run.checks, err.Error())
			continue
		}
		v, err := histdb.Verify(path)
		if err != nil || v.TornBytes != 0 {
			run.checks = append(run.checks, fmt.Sprintf("study %s: WAL verify: %v (torn bytes %d)", name, err, v.TornBytes))
			continue
		}
		db, err := histdb.Load(path)
		if err != nil {
			run.checks = append(run.checks, fmt.Sprintf("study %s: loading WAL: %v", name, err))
			continue
		}
		walHist := make([]client.TaskHistory, len(st.in.tasks))
		evals := 0
		for _, r := range db.Records() {
			if !r.IsEval() {
				continue
			}
			evals++
			for t, task := range st.in.tasks {
				if equalVec(task, r.Task) {
					walHist[t].X = append(walHist[t].X, r.Config)
					walHist[t].Y = append(walHist[t].Y, r.Outputs)
				}
			}
		}
		if evals != want {
			run.checks = append(run.checks, fmt.Sprintf("study %s: WAL holds %d evaluations, want %d", name, evals, want))
		}
		if historyDigest(walHist) != historyDigest(run.histories[name]) {
			run.checks = append(run.checks, fmt.Sprintf("study %s: WAL history differs from the served history", name))
		}
	}
	run.spans = tr.snapshot()
	return run, nil
}

const (
	fleetSetupReps = 7
	// fleetWaves is how many waves a run's studies are split into.
	fleetWaves = 6
	// fleetRefSamples is how many reference-kernel runs sit before each
	// wave and after the last.
	fleetRefSamples = 4
	// fleetDeadline bounds the client phase so a stuck study fails the run
	// instead of hanging it.
	fleetDeadline = 120 * time.Second
	// maxClientFailures stops a client whose calls keep failing; the run is
	// already incorrect by then.
	maxClientFailures = 20
)

// drive is one client's closed loop: cycle over the open studies; suggest,
// evaluate the scenario objective, report; fetch best once a study is done.
func (fs fleetSpec) drive(c *fleetClient, p *gptune.Problem, studies []*fleetStudy, cursor int, open *atomic.Int64, t0 time.Time) {
	for open.Load() > 0 && c.ctx.Err() == nil && c.failed < maxClientFailures {
		st := studies[cursor%len(studies)]
		cursor++
		if st.done.Load() {
			continue
		}
		name := st.in.name
		before := st.maxID.Load()
		var sg client.Suggestion
		d, root, err := c.call("suggest", func(ctx context.Context) error {
			var err error
			sg, err = c.cl.Suggest(ctx, name, -1)
			return err
		})
		c.suggestMs = append(c.suggestMs, ms(d))
		c.roots = append(c.roots, root)
		switch {
		case errors.Is(err, client.ErrDone):
			if st.done.CompareAndSwap(false, true) {
				open.Add(-1)
				var best []client.BestEntry
				if _, _, err := c.call("best", func(ctx context.Context) error {
					var err error
					best, err = c.cl.Best(ctx, name)
					return err
				}); err != nil {
					c.fail("best %s: %v", name, err)
				}
				st.mu.Lock()
				st.best = best
				st.mu.Unlock()
			}
			continue
		case errors.Is(err, client.ErrNonePending):
			continue // every pending suggestion is out with the other client
		case err != nil:
			if c.ctx.Err() == nil {
				c.fail("suggest %s: %v", name, err)
			}
			continue
		}
		for {
			cur := st.maxID.Load()
			if sg.ID <= cur || st.maxID.CompareAndSwap(cur, sg.ID) {
				break
			}
		}
		if fs.batchOf(sg.ID) > fs.batchOf(before) {
			c.genRoots = append(c.genRoots, root)
		}
		st.mu.Lock()
		if !st.started {
			st.started, st.first = true, time.Since(t0)-d
		}
		st.mu.Unlock()

		y, err := p.Objective(st.in.tasks[sg.Task], sg.X)
		if err != nil {
			c.fail("objective %s: %v", name, err)
			continue
		}
		d, root, err = c.call("report", func(ctx context.Context) error { return c.cl.Report(ctx, name, sg.ID, y) })
		c.reportMs = append(c.reportMs, ms(d))
		c.roots = append(c.roots, root)
		var apiErr *client.APIError
		switch {
		case err == nil:
			c.committed++
			st.mu.Lock()
			st.q.observe(sg.Task, y[0], time.Since(t0)-st.first)
			st.mu.Unlock()
		case errors.As(err, &apiErr) && apiErr.Status == http.StatusNotFound:
			// A re-issued suggestion another client already reported:
			// wasted work, not a failure.
			c.dups++
		default:
			if c.ctx.Err() == nil {
				c.fail("report %s: %v", name, err)
			}
		}
	}
}

// historyDigest hashes per-task histories bit for bit.
func historyDigest(hist []client.TaskHistory) string {
	h := sha256.New()
	for t, th := range hist {
		for j := range th.X {
			hashObservation(h, t, th.X[j], th.Y[j])
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

func equalVec(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// referenceDigest replays a study in process through gptune.Tune with
// the options its spec carries; the served history must match it bit for
// bit.
func (fs fleetSpec) referenceDigest(in studyInput) (string, error) {
	p, _, err := recsysProblem()
	if err != nil {
		return "", err
	}
	res, err := gptune.Tune(p, in.tasks, gptune.Options{EpsTot: fs.epsTot, Seed: in.seed})
	if err != nil {
		return "", err
	}
	hist := make([]client.TaskHistory, len(res.Tasks))
	for t, tr := range res.Tasks {
		hist[t] = client.TaskHistory{Task: tr.Task, X: tr.X, Y: tr.Y}
	}
	return historyDigest(hist), nil
}

// run executes serve-fleet: inputs, the measured pass with its output
// checks and the in-process reference replay, and — when tracing — a traced
// pass plus the layer rows on the first study's history.
func (fs fleetSpec) run(c runConfig) (*outcome, error) {
	studies, err := fs.inputs(c.seed, fs.studiesFor(c.seconds))
	if err != nil {
		return nil, err
	}
	base, err := fs.measure(filepath.Join(c.dir, "base"), studies, c.workers, nil)
	if err != nil {
		return nil, err
	}
	o := &outcome{metrics: newMetricSet()}
	m := o.metrics
	o.absorbFleet(base)
	var suggest, rpt []float64
	committed := 0
	for _, cl := range base.clients {
		suggest = append(suggest, cl.suggestMs...)
		rpt = append(rpt, cl.reportMs...)
		committed += cl.committed
	}
	if len(suggest) < fs.minOps || len(rpt) < fs.minOps {
		o.checks = append(o.checks, fmt.Sprintf("run held %d suggests and %d reports, want at least %d of each", len(suggest), len(rpt), fs.minOps))
	}
	for i := 0; i < min(fs.refStudies, len(studies)); i++ {
		want, err := fs.referenceDigest(studies[i])
		if err != nil {
			return nil, err
		}
		if got := historyDigest(base.histories[studies[i].name]); got != want {
			o.checks = append(o.checks, fmt.Sprintf("study %s: served history differs from the in-process batch replay", studies[i].name))
		}
	}
	baseEPS := base.evalsPerSecond()
	m.set("setup_s", base.setupS)
	m.note("setup_s", "median of %d set-ups of %d replicas, the router and %d studies: %.3f", fleetSetupReps, fs.replicas, len(studies), base.setups)
	setRef(m, median(base.waveCPU), base.ref)
	m.note("api.cpu_ms_per_eval", "median over %d waves of %d evaluations in all, range %.2f–%.2f; client, router and replicas in one process",
		len(base.waveCPU), committed, sortedCopy(base.waveCPU)[0], maxOf(base.waveCPU))
	m.set("heap_p90_mb", heapP90(base.heap))
	m.note("heap_p90_mb", "%d samples over %d waves, peak %.2f", len(base.heap), len(base.waveCPU), maxOf(base.heap))
	m.set("api.evals_per_s", baseEPS)
	m.note("api.evals_per_s", "%d evaluations over %d studies in %.2fs", committed, len(studies), base.elapsed.Seconds())
	m.setDist("api.suggest_ms.p50", "api.suggest_ms.tail", suggest)
	m.setDist("api.report_ms.p50", "api.report_ms.tail", rpt)
	fs.runLayers(m, base)

	if c.trace {
		tr := newTracer()
		traced, err := fs.measure(filepath.Join(c.dir, "traced"), studies, c.workers, tr)
		if err != nil {
			return nil, err
		}
		o.absorbFleet(traced)
		fs.runLayers(m, traced)
		o.spans = traced.spans
		m.set("trace.overhead_pct", (1-traced.evalsPerSecond()/baseEPS)*100)
		fs.spanRows(m, traced)
		selfSumGap(m, traced.spans, map[string]bool{"suggest": true, "report": true}, append(suggest, rpt...))

		p, _, err := recsysProblem()
		if err != nil {
			return nil, err
		}
		hist := traced.histories[studies[0].name]
		xs, ys := make([][][]float64, len(hist)), make([][][]float64, len(hist))
		for t, th := range hist {
			xs[t], ys[t] = th.X, th.Y
		}
		d := datasetOf(p, xs, ys)
		if err := layerRows(m, layerData{exact: d, full: d, seed: studies[0].seed}, c.workers); err != nil {
			return nil, err
		}
	}
	return o, nil
}

// committed counts the evaluations the clients have committed so far.
func (run *fleetRun) committed() int {
	n := 0
	for _, cl := range run.clients {
		n += cl.committed
	}
	return n
}

// evalsPerSecond is committed evaluations over the waves' client phases.
func (run *fleetRun) evalsPerSecond() float64 {
	return float64(run.committed()) / run.elapsed.Seconds()
}

// absorbFleet adds a pass's calls, failures and output checks.
func (o *outcome) absorbFleet(run *fleetRun) {
	o.checks = append(o.checks, run.checks...)
	for _, cl := range run.clients {
		o.attempted += int64(cl.calls)
		o.failed += int64(cl.failed)
		for _, e := range cl.errs {
			o.checks = append(o.checks, "client: "+e)
		}
	}
}

// runLayers records the rows a pass measures without spans: wasted work,
// response classes, retries, and time to quality per study.
func (fs fleetSpec) runLayers(m *metricSet, run *fleetRun) {
	var reports, dups, calls, attempts int64
	for _, cl := range run.clients {
		reports += int64(len(cl.reportMs))
		dups += int64(cl.dups)
		calls += int64(cl.calls)
		attempts += cl.attempts.Load()
	}
	if reports > 0 {
		m.set("serve.dup_report_ratio", float64(dups)/float64(reports))
		m.note("serve.dup_report_ratio", "%d of %d reports", dups, reports)
	}
	m.set("serve.http_4xx", float64(run.serve4xx))
	m.set("serve.http_5xx", float64(run.serve5xx))
	if calls > 0 {
		m.set("client.attempts_per_call", float64(attempts)/float64(calls))
	}

	var t1, e1, gap []float64
	censored := 0
	for _, st := range run.studies {
		st.mu.Lock()
		_, at, cens := st.q.result(fs.epsTot, st.end-st.first)
		best := st.best
		st.mu.Unlock()
		hist := run.histories[st.in.name]
		worst := 0
		for t, th := range hist {
			hit := fs.epsTot + 1
			bestY := math.Inf(1)
			for j, y := range th.Y {
				bestY = math.Min(bestY, y[0])
				if bestY <= st.in.floor[t]*1.01 {
					hit = j + 1
					break
				}
			}
			worst = max(worst, hit)
		}
		if cens {
			censored++
		}
		t1 = append(t1, at.Seconds())
		e1 = append(e1, float64(worst))
		for t, b := range best {
			if len(b.Y) > 0 && t < len(st.in.floor) {
				gap = append(gap, (b.Y[0]/st.in.floor[t]-1)*100)
			}
		}
	}
	m.set("quality.time_to_1pct_s", mean(t1))
	m.set("quality.evals_to_1pct", mean(e1))
	m.set("quality.best_gap_pct", mean(gap))
	for _, name := range []string{"quality.time_to_1pct_s", "quality.evals_to_1pct", "quality.best_gap_pct"} {
		m.note(name, "mean over %d studies, %d censored at the budget", len(run.studies), censored)
	}
}

// spanRows derives the serve, router and client rows from a traced pass.
func (fs fleetSpec) spanRows(m *metricSet, run *fleetRun) {
	self := selfTimes(run.spans)
	byLayer := layerSelf(run.spans)
	var sugUs, repUs, createMs, routerUs, clientUs, genMs []float64
	for _, s := range run.spans {
		switch {
		case s.Layer == "serve" && s.Op == "suggest":
			sugUs = append(sugUs, float64(s.dur())/1e3)
		case s.Layer == "serve" && s.Op == "report":
			repUs = append(repUs, float64(s.dur())/1e3)
		case s.Layer == "serve" && s.Op == "create":
			createMs = append(createMs, float64(s.dur())/1e6)
		case s.Layer == "router" && (s.Op == "suggest" || s.Op == "report"):
			routerUs = append(routerUs, float64(self[s.ID])/1e3)
		}
	}
	for _, cl := range run.clients {
		for _, r := range cl.roots {
			clientUs = append(clientUs, float64(byLayer[r]["client"])/1e3)
		}
		for _, r := range cl.genRoots {
			genMs = append(genMs, float64(byLayer[r]["serve"])/1e6)
		}
	}
	m.setDist("serve.suggest_us.p50", "serve.suggest_us.tail", sugUs)
	m.setDist("serve.report_us.p50", "serve.report_us.tail", repUs)
	m.set("serve.create_ms.p50", median(createMs))
	m.note("serve.create_ms.p50", "n=%d", len(createMs))
	m.set("serve.suggest_gen_ms.p50", median(genMs))
	m.note("serve.suggest_gen_ms.p50", "n=%d", len(genMs))
	m.setDist("router.self_us.p50", "router.self_us.tail", routerUs)
	m.set("client.self_us.p50", median(clientUs))
	m.note("client.self_us.p50", "n=%d", len(clientUs))
}
