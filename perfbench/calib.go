package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"sync"
	"time"

	"repro/internal/mpx"
)

// The host's speed drifts. On a shared 2-vCPU virtual machine the CPU time
// of a fixed computation moved by 20% (interquartile) between windows of
// 4 to 40 seconds, and so did the CPU time of the same deterministic tuning
// session between runs minutes apart: co-tenants share the cores and their
// caches, and CPU time counts the slower cycles as the program's. A run
// cannot outlast such a drift, so it times a reference kernel between its
// timed segments — a fixed computation of the benchmark's own, of the same
// kind as the workload's, that no change to the repository can speed up —
// and reports its CPU cost in units of the kernel as well as in
// milliseconds. The tune workloads' kernel is dense Cholesky
// factorisation, what exact-LCM modeling spends its time in; serve-fleet's
// is JSON round trips over loopback HTTP, what its client, router and
// replica hops spend theirs in.

// refClock times the reference-kernel runs spread over a run. The run's
// cost is divided by their mean: the drift that matters is from run to run,
// and a mean over the whole run carries less of the kernel's own noise than
// the few runs around one session would.
type refClock struct {
	kind    string
	workers int          // goroutines one kernel run uses at once
	kernel  func() error // one kernel run
	runs    int
	cpu     time.Duration
}

// sample times n kernel runs.
func (rc *refClock) sample(n int) error {
	for i := 0; i < n; i++ {
		c0 := cpuTime()
		err := rc.kernel()
		rc.cpu += cpuTime() - c0
		rc.runs++
		if err != nil {
			return fmt.Errorf("reference kernel: %w", err)
		}
	}
	return nil
}

// kernelMs is the mean CPU time of one kernel run.
func (rc *refClock) kernelMs() float64 {
	if rc.runs == 0 {
		return math.NaN()
	}
	return ms(rc.cpu) / float64(rc.runs)
}

// setRef records the run's CPU cost per evaluation in kernel runs and in
// milliseconds, and the kernel's own time.
func setRef(m *metricSet, perMs float64, rc *refClock) {
	m.set("cpu_per_eval_ref", perMs/rc.kernelMs())
	m.note("cpu_per_eval_ref", "%.2f ms per evaluation over %.3f ms per kernel run", perMs, rc.kernelMs())
	m.set("api.cpu_ms_per_eval", perMs)
	m.set("host.ref_kernel_ms", rc.kernelMs())
	m.note("host.ref_kernel_ms", "%s kernel, mean of %d runs on %d goroutines", rc.kind, rc.runs, rc.workers)
}

const (
	cholN    = 120 // order of the Cholesky kernel's matrix, tune-gemm's final covariance size
	cholReps = 40  // factorisations per goroutine in one kernel run
)

// cholMatrix is the Cholesky kernel's SPD input, 1/(1+i+j) plus n on the
// diagonal.
var cholMatrix = func() []float64 {
	a := make([]float64, cholN*cholN)
	for i := 0; i < cholN; i++ {
		for j := 0; j < cholN; j++ {
			a[i*cholN+j] = 1 / float64(1+i+j)
		}
		a[i*cholN+i] += cholN
	}
	return a
}()

// cholClock is the tune workloads' clock: a kernel run is cholReps
// factorisations on each of workers goroutines at once, the parallelism
// the sessions fit at.
func cholClock(workers int) *refClock {
	return &refClock{kind: "cholesky", workers: workers, kernel: func() error {
		bad := make([]bool, workers)
		mpx.ParallelFor(workers, workers, func(w int) {
			l := make([]float64, cholN*cholN)
			for r := 0; r < cholReps; r++ {
				copy(l, cholMatrix)
				cholesky(l, cholN)
			}
			bad[w] = !(l[len(l)-1] > 0)
		})
		for _, b := range bad {
			if b {
				return fmt.Errorf("cholesky: factor is not positive")
			}
		}
		return nil
	}}
}

// cholesky overwrites the lower triangle of the row-major n×n SPD matrix a
// with its Cholesky factor.
func cholesky(a []float64, n int) {
	for j := 0; j < n; j++ {
		d := a[j*n+j]
		for k := 0; k < j; k++ {
			d -= a[j*n+k] * a[j*n+k]
		}
		d = math.Sqrt(d)
		a[j*n+j] = d
		for i := j + 1; i < n; i++ {
			s := a[i*n+j]
			for k := 0; k < j; k++ {
				s -= a[i*n+k] * a[j*n+k]
			}
			a[i*n+j] = s / d
		}
	}
}

// httpReps is how many round trips each goroutine makes in one run of the
// HTTP kernel.
const httpReps = 100

// echoMsg is the HTTP kernel's request and reply body.
type echoMsg struct {
	ID  int       `json:"id"`
	X   []float64 `json:"x"`
	Sum float64   `json:"sum"`
}

// httpClock is serve-fleet's clock: a kernel run is httpReps JSON round
// trips from each of clients goroutines, one kept-alive connection each,
// to an echo handler of the standard library's net/http server. close
// stops the server and waits for it.
func httpClock(clients int) (rc *refClock, close func() error, err error) {
	ln, url, err := listen()
	if err != nil {
		return nil, nil, err
	}
	hs := &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var m echoMsg
		if err := json.NewDecoder(r.Body).Decode(&m); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		for _, x := range m.X {
			m.Sum += x
		}
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(&m)
	})}
	var wg sync.WaitGroup
	mpx.Go(&wg, func() { _ = hs.Serve(ln) }) // returns http.ErrServerClosed at close
	cls := make([]*http.Client, clients)
	for i := range cls {
		cls[i] = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1}}
	}
	x := make([]float64, 16)
	for i := range x {
		x[i] = float64(i) / 4
	}
	rc = &refClock{kind: "http", workers: clients, kernel: func() error {
		errs := make([]error, clients)
		mpx.ParallelFor(clients, clients, func(c int) {
			for r := 0; r < httpReps && errs[c] == nil; r++ {
				errs[c] = echoOnce(cls[c], url, echoMsg{ID: r, X: x})
			}
		})
		for _, err := range errs {
			if err != nil {
				return err
			}
		}
		return nil
	}}
	close = func() error {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		err := hs.Shutdown(ctx)
		wg.Wait()
		for _, cl := range cls {
			cl.CloseIdleConnections()
		}
		return err
	}
	return rc, close, nil
}

// echoOnce makes one round trip and checks the reply.
func echoOnce(cl *http.Client, url string, m echoMsg) error {
	body, err := json.Marshal(&m)
	if err != nil {
		return err
	}
	resp, err := cl.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	var got echoMsg
	if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK || got.ID != m.ID || got.Sum != float64(len(m.X)-1)*float64(len(m.X))/8 {
		return fmt.Errorf("echo %d: status %d, reply %+v", m.ID, resp.StatusCode, got)
	}
	return nil
}
