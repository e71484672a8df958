package main

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"dra4wfms/internal/document"
)

// Client-boundary span names: one per call the participant makes.
const (
	spanWorklist = "httpapi.client.worklist"
	spanRetrieve = "httpapi.client.retrieve"
	spanExecute  = "aea.execute"
	spanTFC      = "httpapi.client.tfc_process"
	spanStore    = "httpapi.client.store"
)

// span is one timed interval of the traced run. Spans of one instance
// share Trace; Parent is the ID of the hop span that caused it (0: none).
type span struct {
	Trace  string `json:"trace"`
	ID     int    `json:"id"`
	Parent int    `json:"parent,omitempty"`
	Name   string `json:"name"`
	// Start and End are nanoseconds since the window opened.
	Start int64 `json:"start_ns"`
	End   int64 `json:"end_ns"`
}

func (s span) ms() float64 { return float64(s.End-s.Start) / 1e6 }

// selfTimes returns, per span ID, the span's duration minus the part of
// it its direct children cover (children may overlap each other; covered
// time counts once).
func selfTimes(spans []span) map[int]int64 {
	children := map[int][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[int]int64, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		// Sweep the children in start order, clipped to the parent.
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		covered, edge := int64(0), s.Start
		for _, k := range kids {
			lo, hi := max(k.Start, edge), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[s.ID] = (s.End - s.Start) - covered
	}
	return self
}

// hopSample is one completed hop.
type hopSample struct {
	Done  time.Time
	Ms    float64
	Depth int // hops the instance had completed before this one
}

// capturedHop holds the documents of one hop of the traced run, for the
// in-process layer replay.
type capturedHop struct {
	In, Interm, Out []byte // Interm is nil in the basic model
}

// maxCaptured bounds the documents kept for replay (deep-cascade documents
// reach 200 KB).
const maxCaptured = 600

// recorder collects what one round observed. Samples are kept only while
// the measured window is open; attempts and failures always count.
type recorder struct {
	tracing bool

	mu         sync.Mutex
	measuring  bool
	start      time.Time
	stop       time.Time
	attempted  int
	failed     int
	failures   []string // the first few, for the report
	hops       []hopSample
	reads      map[opKind][]float64
	stats      []float64
	lateness   []float64
	instanceMs []float64
	finalBytes []float64
	spans      []span
	inFlight   map[int]*span
	nextSpan   int
	captured   []capturedHop
}

func newRecorder(tracing bool) *recorder {
	return &recorder{tracing: tracing, inFlight: map[int]*span{}, reads: map[opKind][]float64{}}
}

func msBetween(a, b time.Time) float64 { return float64(b.Sub(a)) / 1e6 }

func (r *recorder) open(start, stop time.Time) {
	r.mu.Lock()
	r.measuring, r.start, r.stop = true, start, stop
	r.mu.Unlock()
}

func (r *recorder) close() {
	r.mu.Lock()
	r.measuring = false
	r.mu.Unlock()
}

func (r *recorder) attempt() {
	r.mu.Lock()
	r.attempted++
	r.mu.Unlock()
}

// fail counts one failed operation and returns the error it describes.
func (r *recorder) fail(pid, what string, err error) error {
	err = fmt.Errorf("%s %s: %w", pid, what, err)
	r.mu.Lock()
	r.failed++
	if len(r.failures) < 5 {
		r.failures = append(r.failures, err.Error())
	}
	r.mu.Unlock()
	return err
}

func (r *recorder) read(kind opKind, due, done time.Time) {
	r.mu.Lock()
	if r.measuring {
		r.reads[kind] = append(r.reads[kind], msBetween(due, done))
	}
	r.mu.Unlock()
}

func (r *recorder) stat(due, done time.Time) {
	r.mu.Lock()
	if r.measuring {
		r.stats = append(r.stats, msBetween(due, done))
	}
	r.mu.Unlock()
}

// late records how long after its due time the generator started an
// open-loop operation.
func (r *recorder) late(woke, due time.Time) {
	r.mu.Lock()
	if r.measuring {
		r.lateness = append(r.lateness, msBetween(due, woke))
	}
	r.mu.Unlock()
}

func (r *recorder) hopDone(due, done time.Time, depth int) {
	r.mu.Lock()
	if r.measuring {
		r.hops = append(r.hops, hopSample{Done: done, Ms: msBetween(due, done), Depth: depth})
	}
	r.mu.Unlock()
}

func (r *recorder) instanceDone(started, done time.Time, size int) {
	r.mu.Lock()
	if r.measuring {
		r.instanceMs = append(r.instanceMs, msBetween(started, done))
		r.finalBytes = append(r.finalBytes, float64(size))
	}
	r.mu.Unlock()
}

// begin opens a span and returns its ID, or 0 when not tracing.
func (r *recorder) begin(trace, name string, parent int, at time.Time) int {
	if !r.tracing {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.measuring {
		return 0
	}
	r.nextSpan++
	r.inFlight[r.nextSpan] = &span{Trace: trace, ID: r.nextSpan, Parent: parent, Name: name, Start: int64(at.Sub(r.start))}
	return r.nextSpan
}

func (r *recorder) end(id int, at time.Time) {
	if id == 0 {
		return
	}
	r.mu.Lock()
	if s := r.inFlight[id]; s != nil {
		delete(r.inFlight, id)
		s.End = int64(at.Sub(r.start))
		r.spans = append(r.spans, *s)
	}
	r.mu.Unlock()
}

// capture keeps a hop's documents for the replay when tracing.
func (r *recorder) capture(in, interm, out *document.Document) {
	if !r.tracing {
		return
	}
	c := capturedHop{In: in.Bytes(), Out: out.Bytes()}
	if interm != nil {
		c.Interm = interm.Bytes()
	}
	r.mu.Lock()
	if r.measuring && len(r.captured) < maxCaptured {
		r.captured = append(r.captured, c)
	}
	r.mu.Unlock()
}
