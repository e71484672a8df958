package httpapi

import (
	"encoding/json"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"
)

// Admission control sheds load *before* it reaches the expensive part of
// the stack. A DRA4WfMS request is cheap to refuse and costly to accept:
// accepting a document store means RSA-verifying its whole signature
// cascade and fanning replication through the relay, so by the time a
// server notices it is drowning, every queued request has already bought
// its share of the RSA wall. The admission layer keeps a hard cap on
// in-flight requests and answers the overflow with 429 + Retry-After —
// an honest signal the client (httpapi.Client) obeys — instead of
// letting queues grow until deadlines expire inside the RSA wall.
//
// Not all requests are equal under overload, so admission is classed:
//
//   - probes (readyz/metrics) are never shed — operators and load
//     balancers must see a drowning server, not a timeout;
//   - reads are shed only when the server is fully saturated;
//   - writes are shed first: they are bounded to WriteShare of the
//     in-flight cap, and additionally when the pressure signal (relay
//     backlog) reports the tier behind this one is already behind. Shedding a write early costs the client one
//     Retry-After wait; accepting it costs signature verification,
//     WAL appends, and replication the cluster cannot afford.

// Request classes, in descending admission priority.
const (
	ClassProbe = "probe"
	ClassRead  = "read"
	ClassWrite = "write"
)

var (
	mInflight   = tel.Gauge("http_inflight_requests")
	mShedReads  = tel.Counter("http_requests_shed_reads_total")
	mShedWrites = tel.Counter("http_requests_shed_writes_total")
)

// AdmissionConfig tunes an Admission gate. The zero value is usable:
// 256 in-flight requests, writes capped at 75% of them, 1s Retry-After,
// no pressure signal.
type AdmissionConfig struct {
	// MaxInFlight bounds concurrently served requests (default 256).
	MaxInFlight int
	// WriteShare caps writes at this fraction of MaxInFlight so a write
	// flood cannot starve reads (default 0.75; >=1 disables the cap).
	WriteShare float64
	// RetryAfter is the backoff advertised on a shed response (default 1s).
	RetryAfter time.Duration
	// RelayPending, when set, reports the outbound relay backlog; writes
	// are shed while it exceeds MaxRelayPending. Accepting a write the
	// relay cannot drain just moves the queue somewhere less visible.
	RelayPending    func() int
	MaxRelayPending int
}

func (c AdmissionConfig) withDefaults() AdmissionConfig {
	if c.MaxInFlight <= 0 {
		c.MaxInFlight = 256
	}
	if c.WriteShare <= 0 {
		c.WriteShare = 0.75
	}
	if c.RetryAfter <= 0 {
		c.RetryAfter = time.Second
	}
	if c.MaxRelayPending <= 0 {
		c.MaxRelayPending = 1024
	}
	return c
}

// Admission is a classed in-flight gate shared by all routes of one
// server. Construct with NewAdmission; nil *Admission admits everything.
type Admission struct {
	cfg      AdmissionConfig
	inflight atomic.Int64
	writes   atomic.Int64
	shed     atomic.Int64
}

// NewAdmission builds an admission gate from cfg.
func NewAdmission(cfg AdmissionConfig) *Admission {
	return &Admission{cfg: cfg.withDefaults()}
}

// Shed reports how many requests this gate has refused.
func (a *Admission) Shed() int64 {
	if a == nil {
		return 0
	}
	return a.shed.Load()
}

// InFlight reports currently admitted requests.
func (a *Admission) InFlight() int64 {
	if a == nil {
		return 0
	}
	return a.inflight.Load()
}

// admit reserves a slot for class, or reports why it cannot. release
// must be called exactly once when the request finishes.
func (a *Admission) admit(class string) (release func(), reason string) {
	if a == nil || class == ClassProbe {
		// Probes bypass the gate entirely: a saturated server must still
		// answer its load balancer.
		return func() {}, ""
	}
	in := a.inflight.Add(1)
	if int(in) > a.cfg.MaxInFlight {
		a.inflight.Add(-1)
		return nil, "server saturated"
	}
	if class == ClassWrite {
		wr := a.writes.Add(1)
		undo := func() {
			a.writes.Add(-1)
			a.inflight.Add(-1)
		}
		if limit := float64(a.cfg.MaxInFlight) * a.cfg.WriteShare; a.cfg.WriteShare < 1 && float64(wr) > limit {
			undo()
			return nil, "write share exhausted"
		}
		if a.cfg.RelayPending != nil && a.cfg.RelayPending() > a.cfg.MaxRelayPending {
			undo()
			return nil, "relay backlog"
		}
		mInflight.Set(float64(in))
		return func() {
			a.writes.Add(-1)
			mInflight.Set(float64(a.inflight.Add(-1)))
		}, ""
	}
	mInflight.Set(float64(in))
	return func() { mInflight.Set(float64(a.inflight.Add(-1))) }, ""
}

// Middleware gates h as class. Shed requests are answered 429 with a
// Retry-After header and a machine-readable JSON body — the overload
// contract httpapi.Client understands.
func (a *Admission) Middleware(class string, h http.HandlerFunc) http.HandlerFunc {
	if a == nil {
		return h
	}
	return func(w http.ResponseWriter, r *http.Request) {
		release, reason := a.admit(class)
		if release == nil {
			a.shed.Add(1)
			if class == ClassWrite {
				mShedWrites.Inc()
			} else {
				mShedReads.Inc()
			}
			secs := int(a.cfg.RetryAfter.Round(time.Second) / time.Second)
			if secs < 1 {
				secs = 1
			}
			w.Header().Set("Retry-After", strconv.Itoa(secs))
			w.Header().Set("Content-Type", ContentJSON)
			w.WriteHeader(http.StatusTooManyRequests)
			_ = json.NewEncoder(w).Encode(map[string]string{"error": "overloaded: " + reason})
			return
		}
		defer release()
		h(w, r)
	}
}

// ClassOf classifies a routed pattern: GETs are reads, everything else
// mutates and is a write. Probe routes never pass through here — the
// observability mux is registered unwrapped.
func ClassOf(pattern string) string {
	if len(pattern) >= 4 && pattern[:4] == "GET " {
		return ClassRead
	}
	return ClassWrite
}
