package main

import (
	"io"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
)

// The wrappers in this file sit around the public HTTP entry points —
// serve.Server.Handler, router.Handler and the gptune/client transport — and
// are the only instrumentation serve-fleet adds: status counting always,
// spans when a tracer is set.

// spanHeader carries the caller's span ID across the HTTP hops.
const spanHeader = "X-Perfbench-Span"

// statusCounts tallies response classes at one layer.
type statusCounts struct{ c4xx, c5xx atomic.Int64 }

func (s *statusCounts) add(code int) {
	switch {
	case code >= 500:
		s.c5xx.Add(1)
	case code >= 400:
		s.c4xx.Add(1)
	}
}

// statusWriter remembers the status code a handler wrote.
type statusWriter struct {
	http.ResponseWriter
	code int
}

func (w *statusWriter) WriteHeader(code int) {
	if w.code == 0 {
		w.code = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	if w.code == 0 {
		w.code = http.StatusOK
	}
	return w.ResponseWriter.Write(b)
}

func (w *statusWriter) Unwrap() http.ResponseWriter { return w.ResponseWriter }

// spanHandler wraps a layer's public Handler: it counts response classes
// and, when tracing, records a span whose parent is the caller's span from
// the header, then stamps its own ID for the next hop.
type spanHandler struct {
	h      http.Handler
	tr     *tracer
	layer  string
	counts *statusCounts
}

func (s *spanHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	id, start := s.tr.begin()
	var parent uint64
	if id != 0 {
		parent, _ = strconv.ParseUint(r.Header.Get(spanHeader), 10, 64)
		r.Header.Set(spanHeader, strconv.FormatUint(id, 10))
	}
	sw := &statusWriter{ResponseWriter: w}
	s.h.ServeHTTP(sw, r)
	if sw.code == 0 {
		sw.code = http.StatusOK
	}
	s.counts.add(sw.code)
	s.tr.end(id, parent, s.layer, opOf(r), start)
}

// opOf names the API operation of a request path.
func opOf(r *http.Request) string {
	switch {
	case r.URL.Path == "/studies" && r.Method == http.MethodPost:
		return "create"
	case r.URL.Path == "/healthz":
		return "health"
	}
	for _, op := range []string{"suggest", "report", "best", "history"} {
		if len(r.URL.Path) > len(op) && r.URL.Path[len(r.URL.Path)-len(op)-1:] == "/"+op {
			return op
		}
	}
	return "other"
}

type spanKey struct{}

// spanTransport is the client-side RoundTripper: it counts attempts and,
// when tracing, records one span per attempt — from sending the request to
// closing the response body — and stamps its ID into the request header.
type spanTransport struct {
	base     http.RoundTripper
	tr       *tracer
	attempts *atomic.Int64
}

func (t *spanTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	t.attempts.Add(1)
	id, start := t.tr.begin()
	if id == 0 {
		return t.base.RoundTrip(req)
	}
	parent, _ := req.Context().Value(spanKey{}).(uint64)
	req = req.Clone(req.Context())
	req.Header.Set(spanHeader, strconv.FormatUint(id, 10))
	resp, err := t.base.RoundTrip(req)
	if err != nil {
		t.tr.end(id, parent, "client", "attempt", start)
		return nil, err
	}
	resp.Body = &spanBody{ReadCloser: resp.Body, end: func() { t.tr.end(id, parent, "client", "attempt", start) }}
	return resp, nil
}

type spanBody struct {
	io.ReadCloser
	once sync.Once
	end  func()
}

func (b *spanBody) Close() error {
	err := b.ReadCloser.Close()
	b.once.Do(b.end)
	return err
}
