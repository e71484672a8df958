package httpapi

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"

	"dra4wfms/internal/relay"
)

// Liveness and readiness probes, the lifecycle contract the daemons expose
// to orchestrators:
//
//	GET /v1/healthz — liveness: 200 as long as the process serves HTTP at
//	all. Restart the process when this fails.
//	GET /v1/readyz  — readiness: 200 only once startup recovery has
//	finished AND no registered check (e.g. relay saturation) fails AND the
//	server is not draining for shutdown. Route traffic elsewhere when this
//	fails; do not restart.
//
// readyz distinguishes a third state between ready and unready:
// *degraded* (200 with {"status":"degraded"} and a reason). Degraded
// checks report conditions the server can serve through — a backup
// replica lagging behind a healthy primary, say — where flapping to 503
// would make load balancers evict a perfectly serviceable instance.
// Orchestrators keep routing on 200; operators see the reason in the
// body and the "degraded" status.
//
// Both endpoints are unauthenticated by design: probes cannot sign
// requests, and the responses carry only liveness state.

// Probes tracks a daemon's readiness state. The zero value is NOT ready;
// daemons call SetReady(true) once startup recovery completes and
// StartDraining when shutdown begins.
type Probes struct {
	ready    atomic.Bool
	draining atomic.Bool

	mu       sync.RWMutex
	checks   map[string]func() error
	degraded map[string]func() error
}

// NewProbes returns a Probes in the not-ready state.
func NewProbes() *Probes {
	return &Probes{}
}

// SetReady flips readiness. Daemons call SetReady(true) exactly once,
// after recovery has replayed the WAL and the relay outbox is loaded.
func (p *Probes) SetReady(ready bool) {
	p.ready.Store(ready)
}

// StartDraining marks the server as shutting down: readyz fails
// immediately so load balancers stop sending new work, while healthz keeps
// succeeding for the in-flight drain window.
func (p *Probes) StartDraining() {
	p.draining.Store(true)
}

// AddCheck registers a named readiness check, consulted on every readyz
// request. A check returning a non-nil error makes the server unready and
// the error text is surfaced in the response body.
func (p *Probes) AddCheck(name string, check func() error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.checks == nil {
		p.checks = make(map[string]func() error)
	}
	p.checks[name] = check
}

// AddDegradedCheck registers a named soft check: a non-nil error marks
// the server *degraded* — readyz stays 200 (the server can serve) but
// the body reports {"status":"degraded"} with the check's error, so the
// condition is visible without evicting the instance from rotation.
func (p *Probes) AddDegradedCheck(name string, check func() error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.degraded == nil {
		p.degraded = make(map[string]func() error)
	}
	p.degraded[name] = check
}

// Ready reports the current readiness verdict and, when unready, why.
// Degraded conditions still count as ready here; use Status for the
// three-state verdict.
func (p *Probes) Ready() (bool, string) {
	state, reason := p.Status()
	if state == StateUnready {
		return false, reason
	}
	return true, ""
}

// Readiness states, in the order readyz reports them.
const (
	StateReady    = "ready"
	StateDegraded = "degraded"
	StateUnready  = "unready"
)

// Status reports the three-state readiness verdict: unready (hard check
// failed, not recovered, or draining), degraded (all hard checks pass
// but a soft check fails), or ready. The reason names the first failing
// check in sorted-name order.
func (p *Probes) Status() (state, reason string) {
	if p.draining.Load() {
		return StateUnready, "draining: shutdown in progress"
	}
	if !p.ready.Load() {
		return StateUnready, "starting: recovery not complete"
	}
	p.mu.RLock()
	defer p.mu.RUnlock()
	if name, err := firstFailing(p.checks); err != nil {
		return StateUnready, fmt.Sprintf("check %s: %v", name, err)
	}
	if name, err := firstFailing(p.degraded); err != nil {
		return StateDegraded, fmt.Sprintf("check %s: %v", name, err)
	}
	return StateReady, ""
}

// firstFailing consults checks in sorted-name order (deterministic
// reasons) and returns the first failure.
func firstFailing(checks map[string]func() error) (string, error) {
	names := make([]string, 0, len(checks))
	for name := range checks {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		if err := checks[name](); err != nil {
			return name, err
		}
	}
	return "", nil
}

// handleHealthz is the liveness endpoint: reachable means alive.
func handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", ContentJSON)
	_ = json.NewEncoder(w).Encode(map[string]string{"status": "ok"})
}

// readyzHandler builds the readiness endpoint for p. A nil Probes means
// the daemon opted out of lifecycle gating; the endpoint then always
// succeeds, which keeps httptest-based servers and the bench harness
// working unchanged.
func readyzHandler(p *Probes) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", ContentJSON)
		if p != nil {
			state, reason := p.Status()
			switch state {
			case StateUnready:
				w.WriteHeader(http.StatusServiceUnavailable)
				_ = json.NewEncoder(w).Encode(map[string]string{"status": StateUnready, "reason": reason})
				return
			case StateDegraded:
				// Deliberately 200: the server serves; the condition is
				// surfaced, not used to evict the instance.
				_ = json.NewEncoder(w).Encode(map[string]string{"status": StateDegraded, "reason": reason})
				return
			}
		}
		_ = json.NewEncoder(w).Encode(map[string]string{"status": StateReady})
	}
}

// RelaySaturationCheck returns a readiness check that fails when the
// webhook relay's pending backlog exceeds maxPending — the portal keeps
// accepting reads but signals that notification delivery is falling
// behind.
func RelaySaturationCheck(r *relay.Relay, maxPending int) func() error {
	return func() error {
		if pending := r.Stats().Pending; pending > maxPending {
			return fmt.Errorf("relay backlog %d exceeds %d", pending, maxPending)
		}
		return nil
	}
}
