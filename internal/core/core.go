// Package core is the high-level DRA4WfMS API — the paper's "DRA4WfMS
// API" (Section 4.1) — assembling the trust fabric (pki), the cloud tier
// (pool, portal, monitor), the TFC servers, and the participant agents
// into one System that examples, tools, and benchmarks drive.
//
// Typical use:
//
//	sys, _ := core.NewSystem(core.Config{})
//	designer, _ := sys.Enroll("designer@acme")
//	alice, _ := sys.Enroll("alice@acme")
//	def, _ := wfdef.NewBuilder("demo", "designer@acme"). ... .Build()
//	doc, notes, _ := sys.StartProcess(def, designer)
//	runner := sys.NewRunner()
//	runner.Respond("A1", func(s *aea.Session) (aea.Inputs, error) { ... })
//	_ = runner.Run(doc.ProcessID())
package core

import (
	"crypto/rand"
	"encoding/hex"
	"errors"
	"fmt"
	"time"

	"dra4wfms/internal/aea"
	"dra4wfms/internal/document"
	"dra4wfms/internal/monitor"
	"dra4wfms/internal/pki"
	"dra4wfms/internal/pool"
	"dra4wfms/internal/portal"
	"dra4wfms/internal/tfc"
	"dra4wfms/internal/wfdef"
	"dra4wfms/internal/xmlenc"
)

// Config parameterizes a System.
type Config struct {
	// KeyBits is the RSA modulus size for enrolled principals (default
	// pki.DefaultKeyBits).
	KeyBits int
	// Portals is how many portal servers front the pool (default 2).
	Portals int
	// Clock drives timestamps (default time.Now).
	Clock func() time.Time
}

// System is a fully assembled DRA4WfMS cloud deployment.
type System struct {
	// CA anchors trust for all enterprises in this deployment.
	CA *pki.CA
	// Registry resolves principals to verified public keys.
	Registry *pki.Registry
	// Table is the shared documents table.
	Table *pool.Table
	// Portals are the portal servers (all equivalent, all over Table).
	Portals []*portal.Portal
	// Monitor reads statistics and instance status from the pool.
	Monitor *monitor.Monitor

	clock   func() time.Time
	keyBits int
	keys    map[string]*pki.KeyPair
	tfcs    map[string]*tfc.Server
}

// NewSystem assembles a System from the configuration.
func NewSystem(cfg Config) (*System, error) {
	if cfg.KeyBits == 0 {
		cfg.KeyBits = pki.DefaultKeyBits
	}
	if cfg.Portals <= 0 {
		cfg.Portals = 2
	}
	if cfg.Clock == nil {
		cfg.Clock = time.Now
	}

	ca, err := pki.NewCA("ca@dra4wfms", cfg.KeyBits)
	if err != nil {
		return nil, err
	}
	table, err := pool.NewTable(portal.TableName, portal.Families...)
	if err != nil {
		return nil, err
	}
	sys := &System{
		CA:       ca,
		Registry: pki.NewRegistry(ca),
		Table:    table,
		Monitor:  monitor.New(table),
		clock:    cfg.Clock,
		keyBits:  cfg.KeyBits,
		keys:     map[string]*pki.KeyPair{},
		tfcs:     map[string]*tfc.Server{},
	}
	for i := 0; i < cfg.Portals; i++ {
		sys.Portals = append(sys.Portals, portal.New(fmt.Sprintf("portal-%d", i+1), sys.Registry, table, cfg.Clock))
	}
	return sys, nil
}

// Now returns the system clock's current time.
func (s *System) Now() time.Time { return s.clock() }

// Portal returns the i-th portal (mod the portal count), giving callers a
// trivial load-balancing accessor.
func (s *System) Portal(i int) *portal.Portal {
	return s.Portals[i%len(s.Portals)]
}

// Enroll generates a key pair for the principal, has the CA issue a
// certificate (valid one year from the system clock), registers it, and
// returns the key pair. Enrolling an existing principal returns the
// existing keys.
func (s *System) Enroll(id string, roles ...string) (*pki.KeyPair, error) {
	if kp, ok := s.keys[id]; ok {
		return kp, nil
	}
	kp, err := pki.GenerateKeyPair(id, s.keyBits)
	if err != nil {
		return nil, err
	}
	org := ""
	for i := 0; i < len(id); i++ {
		if id[i] == '@' {
			org = id[i+1:]
			break
		}
	}
	cert, err := s.CA.Issue(pki.Identity{ID: id, DisplayName: id, Org: org, Roles: roles},
		kp.Public(), s.clock(), 365*24*time.Hour)
	if err != nil {
		return nil, err
	}
	if err := s.Registry.Register(cert, s.clock()); err != nil {
		return nil, err
	}
	s.keys[id] = kp
	return kp, nil
}

// EnrollWithKeys registers a pre-generated key pair (used by tests that
// share cached keys).
func (s *System) EnrollWithKeys(kp *pki.KeyPair, roles ...string) error {
	if _, ok := s.keys[kp.Owner]; ok {
		return nil
	}
	cert, err := s.CA.Issue(pki.Identity{ID: kp.Owner, DisplayName: kp.Owner, Roles: roles},
		kp.Public(), s.clock(), 365*24*time.Hour)
	if err != nil {
		return err
	}
	if err := s.Registry.Register(cert, s.clock()); err != nil {
		return err
	}
	s.keys[kp.Owner] = kp
	return nil
}

// Keys returns the enrolled principal's key pair.
func (s *System) Keys(id string) (*pki.KeyPair, error) {
	kp, ok := s.keys[id]
	if !ok {
		return nil, fmt.Errorf("core: principal %q not enrolled", id)
	}
	return kp, nil
}

// EnrollTFC enrolls a principal and starts a TFC server under its identity.
func (s *System) EnrollTFC(id string) (*tfc.Server, error) {
	if srv, ok := s.tfcs[id]; ok {
		return srv, nil
	}
	kp, err := s.Enroll(id)
	if err != nil {
		return nil, err
	}
	srv := tfc.New(kp, s.Registry, s.clock)
	s.tfcs[id] = srv
	return srv, nil
}

// TFC returns the running TFC server for the principal.
func (s *System) TFC(id string) (*tfc.Server, error) {
	srv, ok := s.tfcs[id]
	if !ok {
		return nil, fmt.Errorf("core: no TFC server %q", id)
	}
	return srv, nil
}

// NewAEA builds an activity execution agent for an enrolled principal.
func (s *System) NewAEA(id string) (*aea.AEA, error) {
	kp, err := s.Keys(id)
	if err != nil {
		return nil, err
	}
	return aea.New(kp, s.Registry), nil
}

// NewProcessID returns a fresh globally unique process instance id.
func NewProcessID() string {
	var b [12]byte
	if _, err := rand.Read(b[:]); err != nil {
		panic(err) // crypto/rand failure is unrecoverable
	}
	return "proc-" + hex.EncodeToString(b[:])
}

// StartProcess creates the secured initial document for the definition,
// signed by the designer's enrolled keys, stores it through portal 0 and
// returns the document plus the initial notifications. Definitions that
// conceal flow information get their branch conditions vaulted for the TFC
// server via document.NewConcealed.
func (s *System) StartProcess(def *wfdef.Definition, designer *pki.KeyPair) (*document.Document, []portal.Notification, error) {
	var doc *document.Document
	var err error
	if def.Policy.ConcealFlow {
		tfcKey, kerr := s.Registry.PublicKey(def.Policy.TFC)
		if kerr != nil {
			return nil, nil, fmt.Errorf("core: resolving TFC for concealed flow: %w", kerr)
		}
		doc, err = document.NewConcealed(def, designer, NewProcessID(), s.clock(),
			xmlenc.Recipient{ID: def.Policy.TFC, Key: tfcKey},
			xmlenc.Recipient{ID: designer.Owner, Key: designer.Public()})
	} else {
		doc, err = document.New(def, designer, NewProcessID(), s.clock())
	}
	if err != nil {
		return nil, nil, err
	}
	notes, err := s.Portal(0).StoreInitial(doc)
	if err != nil {
		return nil, nil, err
	}
	return doc, notes, nil
}

// --- runner --------------------------------------------------------------------

// Responder supplies a participant's inputs for one activity execution,
// playing the role of the human in front of the AEA's user interface.
type Responder func(s *aea.Session) (aea.Inputs, error)

// Runner drives process instances to completion by repeatedly asking the
// portal for enabled activities, executing them through the participants'
// AEAs with scripted Responders, and storing the results. It transparently
// uses the basic or advanced operational model depending on the
// definition's security policy.
type Runner struct {
	sys        *System
	agents     map[string]*aea.AEA
	responders map[string]Responder
	actors     map[string]string // role → principal playing it
	// MaxSteps bounds the total activity executions (default 1000) as a
	// guard against non-terminating loops in buggy responders.
	MaxSteps int
}

// NewRunner creates a Runner over the system.
func (s *System) NewRunner() *Runner {
	return &Runner{
		sys:        s,
		agents:     map[string]*aea.AEA{},
		responders: map[string]Responder{},
		actors:     map[string]string{},
		MaxSteps:   1000,
	}
}

// ActAs names the principal that claims role-based activities of the
// given role during this run.
func (r *Runner) ActAs(role, principal string) *Runner {
	r.actors[role] = principal
	return r
}

// Respond registers the responder for an activity ID.
func (r *Runner) Respond(activityID string, fn Responder) *Runner {
	r.responders[activityID] = fn
	return r
}

// RespondValues registers a fixed-input responder.
func (r *Runner) RespondValues(activityID string, inputs aea.Inputs) *Runner {
	return r.Respond(activityID, func(*aea.Session) (aea.Inputs, error) { return inputs, nil })
}

func (r *Runner) agentFor(participant string) (*aea.AEA, error) {
	if a, ok := r.agents[participant]; ok {
		return a, nil
	}
	a, err := r.sys.NewAEA(participant)
	if err != nil {
		return nil, err
	}
	r.agents[participant] = a
	return a, nil
}

// ErrNoResponder is returned when an enabled activity has no registered
// responder.
var ErrNoResponder = errors.New("core: no responder for activity")

// Run drives the instance until completion. It returns the final stored
// document.
func (r *Runner) Run(processID string) (*document.Document, error) {
	p := r.sys.Portal(0)
	steps := 0
	for {
		enabled, completed, err := p.Enabled(processID)
		if err != nil {
			return nil, err
		}
		if completed {
			// Retrieve with any executing principal; use the first agent's
			// identity or fall back to scanning the table directly.
			return r.retrieve(processID)
		}
		if len(enabled) == 0 {
			return nil, fmt.Errorf("core: process %s is stuck (nothing enabled, not completed)", processID)
		}
		progressed := false
		for _, act := range enabled {
			if steps >= r.MaxSteps {
				return nil, fmt.Errorf("core: process %s exceeded %d steps", processID, r.MaxSteps)
			}
			if err := r.step(processID, act); err != nil {
				return nil, err
			}
			steps++
			progressed = true
			// Re-evaluate enabled set after every step: executing one
			// activity can enable or disable others (AND-joins, loops).
			break
		}
		if !progressed {
			return nil, fmt.Errorf("core: process %s made no progress", processID)
		}
	}
}

func (r *Runner) retrieve(processID string) (*document.Document, error) {
	raw, ok := r.sys.Table.Get(processID, "doc", "content")
	if !ok {
		return nil, fmt.Errorf("core: process %s has no stored document", processID)
	}
	return document.Parse(raw)
}

// step executes one enabled activity end to end.
func (r *Runner) step(processID, activityID string) error {
	p := r.sys.Portal(0)
	doc, err := r.retrieve(processID)
	if err != nil {
		return err
	}
	def, err := doc.Definition()
	if err != nil {
		return err
	}
	participant, err := def.ParticipantOf(activityID)
	if err != nil {
		return err
	}
	if participant == "" {
		role := def.Activity(activityID).Role
		participant = r.actors[role]
		if participant == "" {
			return fmt.Errorf("core: activity %s needs role %q but no actor was registered (Runner.ActAs)", activityID, role)
		}
	}
	agent, err := r.agentFor(participant)
	if err != nil {
		return err
	}
	session, err := agent.Open(doc, activityID)
	if err != nil {
		return fmt.Errorf("core: opening %s for %s: %w", activityID, participant, err)
	}
	responder, ok := r.responders[activityID]
	if !ok {
		return fmt.Errorf("%w: %s", ErrNoResponder, activityID)
	}
	inputs, err := responder(session)
	if err != nil {
		return err
	}

	var produced *document.Document
	if def.Policy.ConcealFlow || def.Policy.TFC != "" {
		// Advanced model: AEA → the activity's TFC → portal.
		interm, err := session.CompleteToTFC(inputs)
		if err != nil {
			return err
		}
		srv, err := r.sys.TFC(def.TFCFor(activityID))
		if err != nil {
			return err
		}
		out, err := srv.Process(interm)
		if err != nil {
			return err
		}
		produced = out.Doc
	} else {
		out, err := session.Complete(inputs, r.sys.clock())
		if err != nil {
			return err
		}
		produced = out.Doc
	}
	if _, err := p.Store(produced); err != nil {
		return err
	}
	return nil
}
