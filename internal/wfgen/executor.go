package wfgen

import (
	"fmt"
	"math/rand"
	"time"

	"dra4wfms/internal/aea"
	"dra4wfms/internal/document"
	"dra4wfms/internal/pki"
	"dra4wfms/internal/tfc"
	"dra4wfms/internal/wfdef"
)

// maxSteps aborts runaway executions.
const maxSteps = 500

// Executor drives a generated workflow to completion, choosing random
// decision values (with loop exits forced after LoopBudget iterations so
// every run terminates).
type Executor struct {
	// Gen is the generated workflow.
	Gen *Generated
	// Registry resolves participant keys.
	Registry *pki.Registry
	// Keys maps participant ID to key pair.
	Keys map[string]*pki.KeyPair
	// LoopBudget bounds how often each loop variable may come up true
	// (default 2).
	LoopBudget int

	loopUses map[string]int
}

// step executes one activity and returns the document that follows it.
type step func(agent *aea.AEA, current *document.Document, act string, inputs aea.Inputs) (*document.Document, error)

// Run executes the instance under the basic operational model, starting
// from the given initial document, and returns the final document. Every
// routed branch document is merged into a single logical inbox, mirroring
// what a portal does.
func (e *Executor) Run(r *rand.Rand, initial *document.Document, now time.Time) (*document.Document, error) {
	return e.run(r, initial, func(agent *aea.AEA, current *document.Document, act string, inputs aea.Inputs) (*document.Document, error) {
		out, err := agent.Execute(current, act, inputs, now)
		if err != nil {
			return nil, fmt.Errorf("wfgen: executing %s: %w", act, err)
		}
		// out.Doc already holds every routed branch: the portal's view.
		return out.Doc, nil
	})
}

// RunAdvanced executes the instance under the advanced operational model:
// every step goes AEA → TFC server → next. The generated definition must
// declare the server's principal as its TFC.
func (e *Executor) RunAdvanced(r *rand.Rand, initial *document.Document, server *tfc.Server) (*document.Document, error) {
	return e.run(r, initial, func(agent *aea.AEA, current *document.Document, act string, inputs aea.Inputs) (*document.Document, error) {
		interm, err := agent.ExecuteToTFC(current, act, inputs)
		if err != nil {
			return nil, fmt.Errorf("wfgen: executing %s to TFC: %w", act, err)
		}
		out, err := server.Process(interm)
		if err != nil {
			return nil, fmt.Errorf("wfgen: TFC after %s: %w", act, err)
		}
		return out.Doc, nil
	})
}

// run picks a random enabled activity and applies next to it until the
// instance completes.
func (e *Executor) run(r *rand.Rand, initial *document.Document, next step) (*document.Document, error) {
	if e.LoopBudget <= 0 {
		e.LoopBudget = 2
	}
	e.loopUses = map[string]int{}

	agents := map[string]*aea.AEA{}
	def := e.Gen.Def
	current := initial
	for steps := 0; ; steps++ {
		if steps > maxSteps {
			return nil, fmt.Errorf("wfgen: execution exceeded %d steps", maxSteps)
		}
		enabled, completed, err := document.Enabled(def, current)
		if err != nil {
			return nil, err
		}
		if completed {
			return current, nil
		}
		if len(enabled) == 0 {
			return nil, fmt.Errorf("wfgen: stuck (no enabled activity, not completed):\n%s", current.Summary())
		}
		act := enabled[r.Intn(len(enabled))]
		participant := def.Activity(act).Participant
		agent, ok := agents[participant]
		if !ok {
			agent = aea.New(e.Keys[participant], e.Registry)
			agents[participant] = agent
		}
		if current, err = next(agent, current, act, e.inputsFor(r, def.Activity(act))); err != nil {
			return nil, err
		}
	}
}

func (e *Executor) inputsFor(r *rand.Rand, act *wfdef.Activity) aea.Inputs {
	in := aea.Inputs{}
	for _, resp := range act.Responses {
		if _, isDecision := e.Gen.DecisionVars[resp.Variable]; isDecision {
			v := "false"
			if e.Gen.LoopVars[resp.Variable] {
				if e.loopUses[resp.Variable] < e.LoopBudget && r.Intn(2) == 0 {
					v = "true"
					e.loopUses[resp.Variable]++
				}
			} else if r.Intn(2) == 0 {
				v = "true"
			}
			in[resp.Variable] = v
			continue
		}
		in[resp.Variable] = fmt.Sprintf("value-%d", r.Int31())
	}
	return in
}
