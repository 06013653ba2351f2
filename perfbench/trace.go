package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call the benchmark made into a layer. Spans live in
// memory until the run ends and are written out in one file.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer was created
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"` // index in the same recorder; -1 for a root
	Req    int64  `json:"req"`    // request id shared by a root and its children
	Rec    int    `json:"rec"`    // recorder (client goroutine) id
}

// tracer owns the recorders of one traced window. A disabled tracer makes
// begin and end cost one branch each.
type tracer struct {
	on      bool
	base    time.Time
	nextReq atomic.Int64

	mu   sync.Mutex
	recs []*recorder
}

func newTracer(on bool) *tracer { return &tracer{on: on, base: time.Now()} }

// recorder is the span log of one goroutine; it needs no locking.
type recorder struct {
	t     *tracer
	id    int
	spans []span
}

func (t *tracer) recorder() *recorder {
	t.mu.Lock()
	defer t.mu.Unlock()
	r := &recorder{t: t, id: len(t.recs)}
	t.recs = append(t.recs, r)
	return r
}

// root opens a span for a new request and returns its index.
func (r *recorder) root(name string) int {
	if !r.t.on {
		return -1
	}
	return r.open(name, -1, r.t.nextReq.Add(1))
}

// child opens a span caused by the span at index parent.
func (r *recorder) child(name string, parent int) int {
	if !r.t.on || parent < 0 {
		return -1
	}
	return r.open(name, parent, r.spans[parent].Req)
}

func (r *recorder) open(name string, parent int, req int64) int {
	r.spans = append(r.spans, span{
		Name: name, Start: int64(time.Since(r.t.base)), Parent: parent, Req: req, Rec: r.id,
	})
	return len(r.spans) - 1
}

// end closes the span at index i (a no-op for -1).
func (r *recorder) end(i int) {
	if i < 0 {
		return
	}
	r.spans[i].End = int64(time.Since(r.t.base))
}

// spanStats aggregates the spans of one name.
type spanStats struct {
	count int
	total float64 // ns
	self  float64 // ns not covered by child spans
}

// summarize folds every recorder's spans by name. A span's self time is its
// duration minus the part of it that its children cover.
func (t *tracer) summarize() map[string]*spanStats {
	out := map[string]*spanStats{}
	for _, r := range t.recs {
		kids := make([][]int, len(r.spans))
		for i, s := range r.spans {
			if s.Parent >= 0 {
				kids[s.Parent] = append(kids[s.Parent], i)
			}
		}
		for i, s := range r.spans {
			st := out[s.Name]
			if st == nil {
				st = &spanStats{}
				out[s.Name] = st
			}
			d := float64(s.End - s.Start)
			st.count++
			st.total += d
			st.self += d - covered(s, r.spans, kids[i])
		}
	}
	return out
}

// covered returns how many ns of parent's interval the union of the child
// intervals occupies.
func covered(parent span, all []span, kids []int) float64 {
	type iv struct{ a, b int64 }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		a, b := all[k].Start, all[k].End
		if a < parent.Start {
			a = parent.Start
		}
		if b > parent.End {
			b = parent.End
		}
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var sum, curA, curB int64
	open := false
	for _, v := range ivs {
		if open && v.a <= curB {
			if v.b > curB {
				curB = v.b
			}
			continue
		}
		if open {
			sum += curB - curA
		}
		curA, curB, open = v.a, v.b, true
	}
	if open {
		sum += curB - curA
	}
	return float64(sum)
}

// write stores every span as one JSON document at path.
func (t *tracer) write(path string) error {
	var all []span
	for _, r := range t.recs {
		all = append(all, r.spans...)
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(all); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
