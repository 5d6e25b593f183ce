package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// spanRec is one recorded span. Times are nanoseconds since the tracer
// started. A span with Count > 0 is an aggregate of Count back-to-back
// calls under one parent (the per-flow callbacks of a streamed run):
// Start and End bracket the calls and Sum is their summed duration.
type spanRec struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Req    int64  `json:"req,omitempty"`
	Pass   int    `json:"pass"`
	Status int    `json:"status,omitempty"`
	Count  int64  `json:"count,omitempty"`
	Sum    int64  `json:"sum_ns,omitempty"`
}

func (s *spanRec) dur() int64 {
	if s.Count > 0 {
		return s.Sum
	}
	return s.End - s.Start
}

// tracer records the benchmark's spans around its calls into each layer.
// Spans stay in memory and are written out when the process ends. While
// the tracer is off every method is a cheap no-op, so untraced passes
// run the same code.
type tracer struct {
	t0   time.Time
	on   atomic.Bool
	pass atomic.Int64

	mu    sync.Mutex
	spans []spanRec
	aggs  []*aggSpan
}

func newTracer() *tracer {
	t := &tracer{t0: time.Now()}
	t.pass.Store(-1)
	return t
}

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

// begin opens a span and returns its handle, or -1 while tracing is off.
func (t *tracer) begin(name string, parent int) int {
	if !t.on.Load() {
		return -1
	}
	start := t.now()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, spanRec{Name: name, Start: start, End: -1, Parent: parent, Pass: int(t.pass.Load())})
	return len(t.spans) - 1
}

// end closes a span opened by begin; -1 is ignored.
func (t *tracer) end(id int) {
	if id < 0 {
		return
	}
	end := t.now()
	t.mu.Lock()
	t.spans[id].End = end
	t.mu.Unlock()
}

// add records a finished span whose bounds the caller measured.
func (t *tracer) add(s spanRec) {
	if !t.on.Load() {
		return
	}
	s.Pass = int(t.pass.Load())
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// aggSpan accumulates repeated calls under one parent. It is owned by the
// goroutine making the calls; the tracer reads it only at the end.
type aggSpan struct {
	rec spanRec
	t   *tracer
	// under, when set, is the aggregate this one nests in.
	under *aggSpan
}

// agg opens an aggregate span, or returns nil while tracing is off.
func (t *tracer) agg(name string, parent int) *aggSpan {
	if !t.on.Load() {
		return nil
	}
	a := &aggSpan{rec: spanRec{Name: name, Start: -1, Parent: parent, Pass: int(t.pass.Load())}, t: t}
	t.mu.Lock()
	t.aggs = append(t.aggs, a)
	t.mu.Unlock()
	return a
}

// aggUnder opens an aggregate nested in another, or returns nil while
// the parent is nil.
func (t *tracer) aggUnder(name string, parent *aggSpan) *aggSpan {
	if parent == nil {
		return nil
	}
	a := t.agg(name, -1)
	if a != nil {
		a.under = parent
	}
	return a
}

// start returns the time a call began; a nil aggregate costs one branch.
func (a *aggSpan) start() int64 {
	if a == nil {
		return 0
	}
	return a.t.now()
}

// stop adds the call that began at start and returns when it ended.
func (a *aggSpan) stop(start int64) int64 {
	if a == nil {
		return 0
	}
	end := a.t.now()
	a.addRange(start, end)
	return end
}

// addRange adds a call whose bounds the caller read, so back-to-back
// spans can share one clock read.
func (a *aggSpan) addRange(start, end int64) {
	if a == nil {
		return
	}
	if a.rec.Start < 0 {
		a.rec.Start = start
	}
	a.rec.End = end
	a.rec.Count++
	a.rec.Sum += end - start
}

// all returns every span, aggregates last. Server spans that share a
// request id with a client span become that client span's children.
func (t *tracer) all() []spanRec {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := append([]spanRec(nil), t.spans...)
	idx := map[*aggSpan]int{}
	for _, a := range t.aggs {
		if a.rec.Count == 0 {
			continue
		}
		r := a.rec
		if a.under != nil {
			r.Parent = -1
			if pi, ok := idx[a.under]; ok {
				r.Parent = pi
			}
		}
		idx[a] = len(out)
		out = append(out, r)
	}
	client := map[int64]int{}
	for i, s := range out {
		if s.Req != 0 && s.Parent >= 0 {
			client[s.Req] = i
		}
	}
	for i := range out {
		if s := &out[i]; s.Req != 0 && s.Parent < 0 {
			if ci, ok := client[s.Req]; ok {
				s.Parent = ci
			}
		}
	}
	return out
}

// selfTimes returns each span's duration minus the part of it that its
// children cover: the union of plain children's intervals plus the summed
// duration of aggregate children, whose calls never overlap each other.
func selfTimes(spans []spanRec) []int64 {
	kids := make([][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 && s.Parent < len(spans) {
			kids[s.Parent] = append(kids[s.Parent], i)
		}
	}
	self := make([]int64, len(spans))
	for i := range spans {
		p := spans[i]
		covered := int64(0)
		var iv [][2]int64
		for _, k := range kids[i] {
			c := spans[k]
			if c.Count > 0 {
				covered += c.Sum
				continue
			}
			lo, hi := max(c.Start, p.Start), min(c.End, p.End)
			if hi > lo {
				iv = append(iv, [2]int64{lo, hi})
			}
		}
		sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
		var curLo, curHi int64 = 0, -1
		for _, v := range iv {
			if v[0] > curHi {
				if curHi > curLo {
					covered += curHi - curLo
				}
				curLo, curHi = v[0], v[1]
			} else if v[1] > curHi {
				curHi = v[1]
			}
		}
		if curHi > curLo {
			covered += curHi - curLo
		}
		self[i] = p.dur() - covered
		if self[i] < 0 {
			self[i] = 0
		}
	}
	return self
}

// writeSpans writes one JSON object per span.
func writeSpans(path string, spans []spanRec) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			f.Close()
			return fmt.Errorf("write spans: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write spans: %w", err)
	}
	return f.Close()
}
