// Package driver is the DRA4WfMS API (Section 4.1) in process: it stands
// up a deployment over a testenv trust environment — one document pool
// table, portal servers in front of it, a monitor reading it, and TFC
// servers made on demand — and walks process instances through it. A walk
// knows only who acts next, what they are given and where the result
// goes: it retrieves the stored document through a portal, picks an
// enabled activity, opens it on the actor's AEA, completes it (through
// the activity's TFC server under the advanced model) and stores the
// result through a portal.
//
// Typical use:
//
//	env := testenv.Fig9(2048)
//	d := driver.New(env)
//	doc, _, _ := d.Start(wfdef.Fig9A())
//	final, _ := d.Run(doc.ProcessID(), driver.Walk{Respond: respond})
//
// A Driver is not safe for concurrent use.
package driver

import (
	"fmt"
	"math/rand"
	"time"

	"dra4wfms/internal/aea"
	"dra4wfms/internal/document"
	"dra4wfms/internal/monitor"
	"dra4wfms/internal/pool"
	"dra4wfms/internal/portal"
	"dra4wfms/internal/testenv"
	"dra4wfms/internal/tfc"
	"dra4wfms/internal/wfdef"
	"dra4wfms/internal/xmlenc"
)

// MaxSteps bounds the activity executions of one Run, a guard against
// responders that never leave a loop.
const MaxSteps = 1000

// portals is how many portal servers front the pool table.
const portals = 2

// Responder supplies a participant's inputs for one activity execution
// (s.Activity() names it), playing the human in front of the AEA's user
// interface.
type Responder func(s *aea.Session) (aea.Inputs, error)

// Walk says how Step and Run fill in and pick activities.
type Walk struct {
	// Respond supplies the inputs of every activity the walk executes.
	Respond Responder
	// Actors names, by role, the principal that claims role-based
	// activities.
	Actors map[string]string
	// Rand, when set, picks among the enabled activities at random; nil
	// picks the first.
	Rand *rand.Rand
}

// Driver is an in-process deployment over one trust environment.
type Driver struct {
	// Env is the trust environment: CA, registry and principals' keys.
	Env *testenv.Env
	// Table is the document pool table every portal shares.
	Table *pool.Table
	// Portals front Table; Step takes them in turn.
	Portals []*portal.Portal
	// Monitor reads statistics and instance status from Table.
	Monitor *monitor.Monitor

	tfcs      map[string]*tfc.Server
	agents    map[string]*aea.AEA
	designers map[string]string // process ID → designer
	hops      int
}

// New assembles a deployment over env.
func New(env *testenv.Env) *Driver {
	table, err := pool.NewTable(portal.TableName, portal.Families...)
	if err != nil {
		panic(err) // the portal's own families cannot be refused
	}
	d := &Driver{
		Env:       env,
		Table:     table,
		Monitor:   monitor.New(table),
		tfcs:      map[string]*tfc.Server{},
		agents:    map[string]*aea.AEA{},
		designers: map[string]string{},
	}
	for i := 0; i < portals; i++ {
		d.Portals = append(d.Portals, portal.New(fmt.Sprintf("portal-%d", i+1), env.Registry, table, nil))
	}
	return d
}

// TFC returns the TFC server running under the principal's identity,
// starting it on first use. The principal must be registered in Env for
// its signatures to verify.
func (d *Driver) TFC(id string) *tfc.Server {
	srv, ok := d.tfcs[id]
	if !ok {
		srv = tfc.New(d.Env.KeyOf(id), d.Env.Registry, nil)
		d.tfcs[id] = srv
	}
	return srv
}

// agent returns the principal's AEA, built once per driver.
func (d *Driver) agent(id string) *aea.AEA {
	a, ok := d.agents[id]
	if !ok {
		a = aea.New(d.Env.KeyOf(id), d.Env.Registry)
		d.agents[id] = a
	}
	return a
}

// Start creates the instance's initial document, signed by the
// definition's designer, stores it through the first portal, and returns
// it with the portal's notifications. A definition that conceals flow
// information gets its branch conditions vaulted for its TFC server.
func (d *Driver) Start(def *wfdef.Definition) (*document.Document, []portal.Notification, error) {
	designer := d.Env.KeyOf(def.Designer)
	var doc *document.Document
	var err error
	if def.Policy.ConcealFlow {
		tfcKey, kerr := d.Env.Registry.PublicKey(def.Policy.TFC)
		if kerr != nil {
			return nil, nil, fmt.Errorf("driver: resolving TFC for concealed flow: %w", kerr)
		}
		doc, err = document.NewConcealed(def, designer, testenv.ProcessID(), time.Now(),
			xmlenc.Recipient{ID: def.Policy.TFC, Key: tfcKey},
			xmlenc.Recipient{ID: designer.Owner, Key: designer.Public()})
	} else {
		doc, err = document.New(def, designer, testenv.ProcessID(), time.Now())
	}
	if err != nil {
		return nil, nil, err
	}
	notes, err := d.Portals[0].StoreInitial(doc)
	if err != nil {
		return nil, nil, err
	}
	d.designers[doc.ProcessID()] = def.Designer
	return doc, notes, nil
}

// Step executes one enabled activity of an instance this driver started
// and returns the document it stored. When the instance has completed,
// nothing runs and Step returns the final stored document with done set.
//
// Who acts next is known only once the stored document is parsed, so the
// portal authenticates the retrieval as the instance's designer.
func (d *Driver) Step(processID string, w Walk) (doc *document.Document, done bool, err error) {
	designer, ok := d.designers[processID]
	if !ok {
		return nil, false, fmt.Errorf("driver: %w: %s", portal.ErrUnknownProcess, processID)
	}
	p := d.Portals[d.hops%len(d.Portals)]
	d.hops++
	if doc, err = p.Retrieve(designer, processID); err != nil {
		return nil, false, err
	}
	def, err := doc.Definition()
	if err != nil {
		return nil, false, err
	}
	enabled, completed, err := document.Enabled(def, doc)
	if err != nil {
		return nil, false, err
	}
	if completed {
		return doc, true, nil
	}
	if len(enabled) == 0 {
		return nil, false, fmt.Errorf("driver: process %s is stuck (nothing enabled, not completed)", processID)
	}
	act := enabled[0]
	if w.Rand != nil {
		act = enabled[w.Rand.Intn(len(enabled))]
	}
	actor := def.Activity(act).Participant
	if actor == "" {
		role := def.Activity(act).Role
		if actor = w.Actors[role]; actor == "" {
			return nil, false, fmt.Errorf("driver: activity %s needs role %q but the walk names no actor for it (Walk.Actors)", act, role)
		}
	}
	session, err := d.agent(actor).Open(doc, act)
	if err != nil {
		return nil, false, fmt.Errorf("driver: opening %s for %s: %w", act, actor, err)
	}
	if w.Respond == nil {
		return nil, false, fmt.Errorf("driver: the walk has no responder for %s", act)
	}
	inputs, err := w.Respond(session)
	if err != nil {
		return nil, false, err
	}
	if def.Policy.ConcealFlow || def.Policy.TFC != "" {
		// Advanced model: AEA → the activity's TFC server → portal.
		interm, err := session.CompleteToTFC(inputs)
		if err != nil {
			return nil, false, err
		}
		out, err := d.TFC(def.TFCFor(act)).Process(interm)
		if err != nil {
			return nil, false, err
		}
		doc = out.Doc
	} else {
		out, err := session.Complete(inputs, time.Now())
		if err != nil {
			return nil, false, err
		}
		doc = out.Doc
	}
	if _, err := p.Store(doc); err != nil {
		return nil, false, err
	}
	return doc, false, nil
}

// Run steps the instance until it completes and returns the final stored
// document. It gives up once the instance has run more than MaxSteps
// activities.
func (d *Driver) Run(processID string, w Walk) (*document.Document, error) {
	return d.run(processID, w, MaxSteps)
}

func (d *Driver) run(processID string, w Walk, limit int) (*document.Document, error) {
	for steps := 0; steps <= limit; steps++ {
		doc, done, err := d.Step(processID, w)
		if err != nil {
			return nil, err
		}
		if done {
			return doc, nil
		}
	}
	return nil, fmt.Errorf("driver: process %s exceeded %d steps", processID, limit)
}
