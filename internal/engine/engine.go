// Package engine implements the BASELINE the paper argues against: a
// conventional, centralized engine-based workflow management system
// (Figure 1A).
//
// The engine holds process instances in its own trusted store, in
// plaintext. That is precisely the paper's security criticism: a
// superuser of the engine's administration domain (e.g. the database
// administrator) can rewrite stored execution results and logs without
// leaving any verifiable trace, so participants can repudiate their work —
// and nothing in the system can prove them wrong. The Superuser type makes
// that attack executable, and VerifyInstance demonstrates that the engine
// has no cryptographic basis to detect it (contrast with
// document.VerifyAll on DRA4WfMS documents).
//
// The distributed variant of Figure 1B, with instances migrating between
// engines, is modelled on the discrete-event simulator instead
// (bench.RunScalabilityDistributed).
package engine

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"dra4wfms/internal/secpol"
	"dra4wfms/internal/wfdef"
)

// Errors.
var (
	// ErrUnknownInstance: no such process instance on this engine.
	ErrUnknownInstance = errors.New("engine: unknown process instance")
	// ErrUnknownDefinition: the definition is not deployed.
	ErrUnknownDefinition = errors.New("engine: unknown definition")
	// ErrNotParticipant: the caller is not the activity's participant.
	ErrNotParticipant = errors.New("engine: wrong participant")
	// ErrNotEnabled: the activity is not enabled.
	ErrNotEnabled = errors.New("engine: activity not enabled")
	// ErrCompleted: the instance has finished.
	ErrCompleted = errors.New("engine: instance completed")
)

// Step records one executed activity in the engine's history log.
type Step struct {
	Activity    string
	Iteration   int
	Participant string
	// Values are the participant's inputs — stored in PLAINTEXT, the point
	// of the paper's critique.
	Values map[string]string
	At     time.Time
	Next   []string
}

// Instance is one process instance held by an engine.
type Instance struct {
	ID         string
	Definition string
	Values     map[string]string
	History    []Step
	Tokens     map[string]int
	Completed  bool
}

func (in *Instance) clone() *Instance {
	cp := &Instance{
		ID: in.ID, Definition: in.Definition, Completed: in.Completed,
		Values: map[string]string{}, Tokens: map[string]int{},
	}
	for k, v := range in.Values {
		cp.Values[k] = v
	}
	for k, v := range in.Tokens {
		cp.Tokens[k] = v
	}
	cp.History = make([]Step, len(in.History))
	for i, s := range in.History {
		vs := map[string]string{}
		for k, v := range s.Values {
			vs[k] = v
		}
		cp.History[i] = Step{Activity: s.Activity, Iteration: s.Iteration,
			Participant: s.Participant, Values: vs, At: s.At,
			Next: append([]string(nil), s.Next...)}
	}
	return cp
}

// WorkItem is one entry of a participant's engine-side TO-DO list.
type WorkItem struct {
	InstanceID string
	Activity   string
}

// Engine is one workflow engine (one site of Figure 1).
type Engine struct {
	// ID names the engine.
	ID string
	// Clock supplies history timestamps.
	Clock func() time.Time

	mu        sync.Mutex
	defs      map[string]*wfdef.Definition
	instances map[string]*Instance
	seq       int
}

// New creates an engine. clock may be nil (defaults to time.Now).
func New(id string, clock func() time.Time) *Engine {
	if clock == nil {
		clock = time.Now
	}
	return &Engine{
		ID:        id,
		Clock:     clock,
		defs:      map[string]*wfdef.Definition{},
		instances: map[string]*Instance{},
	}
}

// Deploy registers a workflow definition with the engine.
func (e *Engine) Deploy(def *wfdef.Definition) error {
	if err := def.Validate(); err != nil {
		return err
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	e.defs[def.Name] = def
	return nil
}

// CreateInstance starts a new process instance of the deployed definition
// and returns its ID.
func (e *Engine) CreateInstance(defName string) (string, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	def, ok := e.defs[defName]
	if !ok {
		return "", fmt.Errorf("%w: %s", ErrUnknownDefinition, defName)
	}
	e.seq++
	id := fmt.Sprintf("%s-inst-%d", e.ID, e.seq)
	in := &Instance{
		ID: id, Definition: defName,
		Values: map[string]string{},
		Tokens: map[string]int{},
	}
	for _, a := range def.InitialActivities() {
		in.Tokens[a]++
	}
	e.instances[id] = in
	return id, nil
}

func requiredTokens(def *wfdef.Definition, activity string) int {
	a := def.Activity(activity)
	if a != nil && a.Join == wfdef.JoinAND {
		return len(def.Incoming(activity))
	}
	return 1
}

// Execute runs one activity on behalf of participant. The engine sees the
// whole plaintext instance, so routing never needs a TFC; confidentiality
// rests entirely on trusting the engine and its administrators.
func (e *Engine) Execute(instanceID, activity, participant string, inputs map[string]string) ([]string, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	in, ok := e.instances[instanceID]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrUnknownInstance, instanceID)
	}
	if in.Completed {
		return nil, ErrCompleted
	}
	def := e.defs[in.Definition]
	act := def.Activity(activity)
	if act == nil {
		return nil, fmt.Errorf("engine: unknown activity %q", activity)
	}
	if act.Participant != participant {
		return nil, fmt.Errorf("%w: %s is assigned to %s", ErrNotParticipant, activity, act.Participant)
	}
	need := requiredTokens(def, activity)
	if in.Tokens[activity] < need {
		return nil, fmt.Errorf("%w: %s", ErrNotEnabled, activity)
	}

	// Route with the full plaintext state.
	env := map[string]string{}
	for k, v := range in.Values {
		env[k] = v
	}
	for k, v := range inputs {
		env[k] = v
	}
	next, err := secpol.Route(def, act, secpol.Env(env))
	if err != nil {
		return nil, err
	}

	in.Tokens[activity] -= need
	iter := 0
	for _, s := range in.History {
		if s.Activity == activity {
			iter = s.Iteration + 1
		}
	}
	values := map[string]string{}
	for k, v := range inputs {
		values[k] = v
		in.Values[k] = v
	}
	in.History = append(in.History, Step{
		Activity: activity, Iteration: iter, Participant: participant,
		Values: values, At: e.Clock(), Next: next,
	})
	for _, to := range next {
		if to == wfdef.EndID {
			in.Completed = true
			continue
		}
		in.Tokens[to]++
	}
	return next, nil
}

// Worklist returns the participant's enabled activities across instances.
func (e *Engine) Worklist(participant string) []WorkItem {
	e.mu.Lock()
	defer e.mu.Unlock()
	var items []WorkItem
	for id, in := range e.instances {
		if in.Completed {
			continue
		}
		def := e.defs[in.Definition]
		for act, tokens := range in.Tokens {
			if tokens >= requiredTokens(def, act) {
				if a := def.Activity(act); a != nil && a.Participant == participant {
					items = append(items, WorkItem{InstanceID: id, Activity: act})
				}
			}
		}
	}
	sort.Slice(items, func(i, j int) bool {
		if items[i].InstanceID != items[j].InstanceID {
			return items[i].InstanceID < items[j].InstanceID
		}
		return items[i].Activity < items[j].Activity
	})
	return items
}

// Instance returns a deep copy of the instance state (what an auditor
// querying the engine's database would see).
func (e *Engine) Instance(id string) (*Instance, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	in, ok := e.instances[id]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrUnknownInstance, id)
	}
	return in.clone(), nil
}

// VerifyInstance is the engine's "integrity check". It always succeeds:
// the store carries no participant-verifiable evidence, so an altered
// history is indistinguishable from a genuine one. This is the
// nonrepudiation gap the DRA4WfMS cascade closes.
func (e *Engine) VerifyInstance(id string) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if _, ok := e.instances[id]; !ok {
		return fmt.Errorf("%w: %s", ErrUnknownInstance, id)
	}
	return nil
}

// --- the superuser attack ------------------------------------------------------

// Superuser models an administrator of the engine's domain: somebody with
// raw write access to the instance store and its logs.
type Superuser struct{ e *Engine }

// Superuser returns the engine's superuser facade.
func (e *Engine) Superuser() Superuser { return Superuser{e: e} }

// TamperResult silently rewrites a stored execution result. No error, no
// trace, no way for any participant to prove the alteration happened.
func (s Superuser) TamperResult(instanceID, activity string, iter int, variable, value string) error {
	s.e.mu.Lock()
	defer s.e.mu.Unlock()
	in, ok := s.e.instances[instanceID]
	if !ok {
		return fmt.Errorf("%w: %s", ErrUnknownInstance, instanceID)
	}
	for i := range in.History {
		st := &in.History[i]
		if st.Activity == activity && st.Iteration == iter {
			st.Values[variable] = value
			if cur, exists := in.Values[variable]; exists || cur == "" {
				in.Values[variable] = value
			}
			return nil
		}
	}
	return fmt.Errorf("engine: no step %s#%d in %s", activity, iter, instanceID)
}

// EraseStep removes a history entry entirely — rewriting the audit log.
func (s Superuser) EraseStep(instanceID, activity string, iter int) error {
	s.e.mu.Lock()
	defer s.e.mu.Unlock()
	in, ok := s.e.instances[instanceID]
	if !ok {
		return fmt.Errorf("%w: %s", ErrUnknownInstance, instanceID)
	}
	for i := range in.History {
		st := in.History[i]
		if st.Activity == activity && st.Iteration == iter {
			in.History = append(in.History[:i], in.History[i+1:]...)
			return nil
		}
	}
	return fmt.Errorf("engine: no step %s#%d in %s", activity, iter, instanceID)
}
