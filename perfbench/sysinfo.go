package main

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"sync"
	"syscall"
	"time"

	"repro/internal/mpx"
)

// runMeta is recorded with every result: what ran, where, on what.
type runMeta struct {
	Workload   string `json:"workload"`
	Seed       int64  `json:"seed"`
	Seconds    int    `json:"seconds"`
	Trace      bool   `json:"trace"`
	GitRev     string `json:"git_rev"`
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NProc      int    `json:"nproc"`
	DataFS     string `json:"data_fs"`
}

func newRunMeta(workload string, seed int64, seconds int, trace bool, dataDir string) runMeta {
	return runMeta{
		Workload:   workload,
		Seed:       seed,
		Seconds:    seconds,
		Trace:      trace,
		GitRev:     gitRevision(),
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NProc:      runtime.NumCPU(),
		DataFS:     fsType(dataDir),
	}
}

// gitRevision reads the VCS stamp the go command embeds when the binary is
// built inside a git checkout; "unknown" when built from a plain tree.
func gitRevision() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "unknown", false
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			dirty = s.Value == "true"
		}
	}
	if dirty {
		rev += "+dirty"
	}
	return rev
}

// fsType names the filesystem holding dir from its statfs magic number.
// Serve latencies include an fsync per report, so they describe this
// filesystem, not a particular device.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	names := map[int64]string{
		0xEF53:     "ext4",
		0x01021994: "tmpfs",
		0x794C7630: "overlayfs",
		0x58465342: "xfs",
		0x9123683E: "btrfs",
		0x6969:     "nfs",
		0x65735546: "fuse",
		0x2FC12FC1: "zfs",
		0x00C36400: "ceph",
		0x01021997: "9p",
	}
	magic := int64(st.Type)
	if n, ok := names[magic]; ok {
		return n
	}
	return fmt.Sprintf("0x%X", magic)
}

// cpuTime is the CPU time (user plus system) the process has used. Unlike
// wall time it leaves out the time a virtual CPU is descheduled by its host.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// settle collects garbage and returns freed memory to the OS, so every
// timed region starts from the same heap state whatever ran before it.
func settle() {
	runtime.GC()
	debug.FreeOSMemory()
}

// heapSample is the runtime metric heapSampler reads: the bytes of heap
// objects, live ones and dead ones not yet swept.
const heapSample = "/memory/classes/heap/objects:bytes"

// heapPeriod is how often heapSampler reads it; a collection cycle of the
// workloads lasts tens of milliseconds or more.
const heapPeriod = 2 * time.Millisecond

// heapSampler reads the heap's size every heapPeriod until stopped. Unlike
// the peak RSS it covers only the regions it brackets and leaves out the
// runtime's and the binary's own pages, and a percentile over its samples
// does not swing with when the collector happened to run, as a peak does.
type heapSampler struct {
	done    chan struct{}
	wg      sync.WaitGroup
	samples []float64 // MiB
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{done: make(chan struct{})}
	h.sample()
	mpx.Go(&h.wg, func() {
		tick := time.NewTicker(heapPeriod)
		defer tick.Stop()
		for {
			select {
			case <-h.done:
				return
			case <-tick.C:
				h.sample()
			}
		}
	})
	return h
}

func (h *heapSampler) sample() {
	s := []metrics.Sample{{Name: heapSample}}
	metrics.Read(s)
	h.samples = append(h.samples, float64(s[0].Value.Uint64())/(1<<20))
}

// stop ends the sampling, waits for the sampler, and returns the samples.
func (h *heapSampler) stop() []float64 {
	close(h.done)
	h.wg.Wait()
	h.sample()
	return h.samples
}

// heapP90 is the 90th percentile of heap samples.
func heapP90(samples []float64) float64 {
	v, _ := percentile(samples, 0.9)
	return v
}

// rssPeakMiB is the process's peak resident set size.
func rssPeakMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}
