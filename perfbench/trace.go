package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call into a layer. Spans of one request form a tree
// through Parent; times are nanoseconds since the tracer's epoch.
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Layer  string `json:"layer"`
	Op     string `json:"op"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() int64 { return s.End - s.Start }

// tracer keeps spans in memory until the run ends. A nil *tracer is tracing
// off: begin returns 0 and end does nothing, so untraced runs execute the
// same call sites at the cost of a nil check.
type tracer struct {
	epoch time.Time
	next  atomic.Uint64

	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin allocates a span ID and reads the start time.
func (t *tracer) begin() (id uint64, start int64) {
	if t == nil {
		return 0, 0
	}
	return t.next.Add(1), int64(time.Since(t.epoch)) //gptlint:ignore transitive-wallclock span timing only; the checkpoint wrapper calls it and no tuning result reads it
}

// end records the span begun as (id, start).
func (t *tracer) end(id, parent uint64, layer, op string, start int64) {
	if t == nil || id == 0 {
		return
	}
	s := span{ID: id, Parent: parent, Layer: layer, Op: op, Start: start, End: int64(time.Since(t.epoch))} //gptlint:ignore transitive-wallclock span timing only; the checkpoint wrapper calls it and no tuning result reads it
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// snapshot returns the recorded spans sorted by ID.
func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	out := append([]span(nil), t.spans...)
	t.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// writeSpans stores spans as JSON lines.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// selfTimes returns each span's self time: its duration minus the part of
// its interval covered by the union of its children's intervals.
func selfTimes(spans []span) map[uint64]int64 {
	children := map[uint64][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[uint64]int64, len(spans))
	for _, s := range spans {
		self[s.ID] = s.dur() - covered(s, children[s.ID])
	}
	return self
}

// covered measures the union of the children's intervals clipped to the
// parent's interval.
func covered(parent span, kids []span) int64 {
	type iv struct{ lo, hi int64 }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.Start, parent.Start), min(k.End, parent.End)
		if hi > lo {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
	var total, curLo, curHi int64
	open := false
	for _, v := range ivs {
		switch {
		case !open:
			curLo, curHi, open = v.lo, v.hi, true
		case v.lo <= curHi:
			curHi = max(curHi, v.hi)
		default:
			total += curHi - curLo
			curLo, curHi = v.lo, v.hi
		}
	}
	if open {
		total += curHi - curLo
	}
	return total
}

// layerSelf sums, for every root span (no parent), the self time of each
// layer within the root's tree: map root ID → layer → nanoseconds.
func layerSelf(spans []span) map[uint64]map[string]int64 {
	self := selfTimes(spans)
	byID := make(map[uint64]span, len(spans))
	for _, s := range spans {
		byID[s.ID] = s
	}
	rootOf := func(s span) uint64 {
		for s.Parent != 0 {
			p, ok := byID[s.Parent]
			if !ok {
				return s.ID
			}
			s = p
		}
		return s.ID
	}
	out := map[uint64]map[string]int64{}
	for _, s := range spans {
		r := rootOf(s)
		if out[r] == nil {
			out[r] = map[string]int64{}
		}
		out[r][s.Layer] += self[s.ID]
	}
	return out
}

// selfSumGap compares the traced layer self times of the root calls named
// in ops, summed, with the untraced client-observed latency of the same
// calls (ms): the relative gap is the tracing cost plus any span the
// arithmetic missed.
func selfSumGap(m *metricSet, spans []span, ops map[string]bool, untracedMs []float64) {
	byLayer := layerSelf(spans)
	var sum float64
	var n int
	for _, s := range spans {
		if s.Parent != 0 || !ops[s.Op] {
			continue
		}
		for _, v := range byLayer[s.ID] {
			sum += float64(v)
		}
		n++
	}
	if n == 0 || len(untracedMs) == 0 {
		return
	}
	m.set("trace.self_sum_gap_pct", (sum/float64(n)/1e6/mean(untracedMs)-1)*100)
	m.note("trace.self_sum_gap_pct", "mean layer self-time sum over %d traced calls vs mean untraced latency", n)
}
