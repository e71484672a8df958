// Package aea implements the Activity Execution Agent: the software agent
// running on a participant's own machine that executes workflow activities
// in the engine-less DRA4WfMS architecture (Section 2.1 of the paper).
//
// Receiving a DRA4WfMS document, the AEA:
//
//  1. parses the document and verifies every embedded digital signature —
//     the workflow definition is legal and no stored execution result was
//     altered (the paper's α phase);
//  2. checks that its principal is the assigned executor of the activity
//     and that the activity is actually enabled by the control-flow state;
//  3. decrypts the latest value of each variable the activity requests,
//     and only those elements, and presents them to the participant (a
//     routing condition later opens the latest value of each variable it
//     names, the same way; see document.Lookup);
//  4. appends the participant's element-wise encrypted execution result;
//  5. embeds a digital signature covering the result and the signatures of
//     all predecessor activities (the β phase, the nonrepudiation cascade);
//  6. forwards the document to the next participant(s) per the control
//     flow — or, under the advanced operational model, encrypts the raw
//     result to the TFC server and sends the intermediate document there.
//
// The two phases are exposed separately (Open, then Complete /
// CompleteToTFC) so callers — interactive UIs and the Table 1/2 benchmark
// harness alike — can observe them independently.
package aea

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"dra4wfms/internal/document"
	"dra4wfms/internal/dsig"
	"dra4wfms/internal/pki"
	"dra4wfms/internal/secpol"
	"dra4wfms/internal/telemetry"
	"dra4wfms/internal/wfdef"
	"dra4wfms/internal/xmlenc"
	"dra4wfms/internal/xmltree"
)

// Runtime telemetry: per-phase latency histograms mirroring the paper's
// cost decomposition (α = verify + decrypt, β = encrypt + sign) plus
// counters for signature-cascade size and replay rejections.
var (
	tel                 = telemetry.Default()
	mVerifiedSignatures = tel.Counter("aea_verify_signatures_total")
	mSignedCERs         = tel.Counter("aea_sign_ops_total")
	mDecryptedElements  = tel.Counter("aea_decrypt_elements_total")
	mReplayRejections   = tel.Counter("aea_replay_rejections_total")
)

// Typed failures an AEA can report.
var (
	// ErrNotParticipant: this principal is not the activity's executor.
	ErrNotParticipant = errors.New("aea: principal is not the participant of this activity")
	// ErrNotEnabled: the control-flow state does not enable the activity.
	ErrNotEnabled = errors.New("aea: activity is not enabled")
	// ErrReplay: this agent already executed this (process, activity,
	// iteration) — a duplicate or replayed document.
	ErrReplay = errors.New("aea: duplicate execution (replay)")
	// ErrAdvancedRequired: the definition conceals flow information, so a
	// basic-model completion is impossible; route via the TFC instead.
	ErrAdvancedRequired = errors.New("aea: definition conceals flow information; advanced model (TFC) required")
	// ErrConcealed: a branch condition references a variable this
	// principal cannot read (the Figure 4 situation).
	ErrConcealed = errors.New("aea: branch condition references a concealed variable")
	// ErrNoBranch: an XOR-split evaluated with no branch taken.
	ErrNoBranch = errors.New("aea: no XOR branch condition holds and there is no default branch")
	// ErrMissingInput: a required response was not provided.
	ErrMissingInput = errors.New("aea: missing required input")
	// ErrUnknownInput: an input names a variable the activity does not
	// declare as a response.
	ErrUnknownInput = errors.New("aea: input for undeclared response variable")
)

// Inputs carries the participant's responses, variable → value.
type Inputs map[string]string

// AEA is one participant's activity execution agent. It is safe for
// concurrent use; the replay guard and the content-key memo are shared
// across goroutines.
type AEA struct {
	// Keys is the participant's key pair; Keys.Owner is the principal ID.
	// Elements are decrypted with the key pair passed to New.
	Keys *pki.KeyPair
	// Registry resolves and trusts other principals' public keys.
	Registry *pki.Registry
	// Suite selects the signature suite for CERs this AEA signs; nil uses
	// the process-wide default (dsig.DefaultSuite).
	Suite dsig.Suite

	opener *xmlenc.Opener

	mu   sync.Mutex
	seen map[string]bool
}

// New creates an AEA for the given principal.
func New(keys *pki.KeyPair, reg *pki.Registry) *AEA {
	return &AEA{Keys: keys, Registry: reg, opener: xmlenc.NewOpener(keys), seen: make(map[string]bool)}
}

// Session is an opened activity: the document has been verified and the
// activity's requests decrypted (phase α); Complete or CompleteToTFC
// performs phase β.
type Session struct {
	aea      *AEA
	work     *document.Document // verified fork of the input, still encrypted
	def      *wfdef.Definition
	act      *wfdef.Activity
	iter     int
	lookup   *document.Lookup // this principal's reads of work
	requests map[string]string

	// VerifiedSignatures is the number of signatures checked during Open —
	// the count behind the paper's "number of signatures to verify".
	VerifiedSignatures int
	// DecryptedElements is the number of elements the session decrypted:
	// the latest readable element of each requested variable in Open,
	// plus any a routing condition needed in Complete.
	DecryptedElements int
}

// Open verifies the received document and decrypts the activity's
// requests (the paper's α phase: verify digital signatures, decrypt
// cipher data). The session works on a Fork of doc, which it leaves
// unchanged: several sessions may open one document, as the targets of an
// AND-split do.
func (a *AEA) Open(doc *document.Document, activityID string) (*Session, error) {
	return a.OpenCtx(context.Background(), doc, activityID)
}

// OpenCtx is Open carrying the caller's trace context: inside a sampled
// distributed trace the verify and decrypt phases land as aea-tier
// spans.
func (a *AEA) OpenCtx(ctx context.Context, doc *document.Document, activityID string) (*Session, error) {
	ctx, span := tel.StartSpan(ctx, "aea_open_seconds")
	defer span.End()
	span.SetAttr("process", doc.ProcessID())
	span.SetAttr("activity", activityID)
	work := doc.Fork()
	vctx, verifySpan := tel.StartSpan(ctx, "aea_verify_cascade_seconds")
	nsigs, err := work.VerifyAllCtx(vctx, a.Registry)
	verifySpan.End()
	if err != nil {
		return nil, fmt.Errorf("aea: document verification failed after %d valid signatures: %w", nsigs, err)
	}
	mVerifiedSignatures.Add(int64(nsigs))
	def, err := work.Definition()
	if err != nil {
		return nil, err
	}
	if err := def.Validate(); err != nil {
		return nil, fmt.Errorf("aea: embedded definition invalid: %w", err)
	}
	if err := document.CheckDeclared(def, work); err != nil {
		return nil, fmt.Errorf("aea: %w", err)
	}
	act := def.Activity(activityID)
	if act == nil {
		return nil, fmt.Errorf("aea: unknown activity %q", activityID)
	}
	if act.Participant != "" && act.Participant != a.Keys.Owner {
		return nil, fmt.Errorf("%w: %s is assigned to %s", ErrNotParticipant, activityID, act.Participant)
	}
	if act.Role != "" {
		id, err := a.Registry.Identity(a.Keys.Owner)
		if err != nil {
			return nil, err
		}
		if !id.HasRole(act.Role) {
			return nil, fmt.Errorf("%w: role %q required", ErrNotParticipant, act.Role)
		}
	}
	enabled, completed, err := document.Enabled(def, work)
	if err != nil {
		return nil, err
	}
	if completed {
		return nil, fmt.Errorf("%w: process already completed", ErrNotEnabled)
	}
	if !contains(enabled, activityID) {
		return nil, fmt.Errorf("%w: %s (enabled: %v)", ErrNotEnabled, activityID, enabled)
	}
	iter := work.LatestIteration(activityID) + 1
	if a.alreadySeen(replayKey(work.ProcessID(), activityID, iter)) {
		mReplayRejections.Inc()
		return nil, fmt.Errorf("%w: %s#%d of process %s", ErrReplay, activityID, iter, work.ProcessID())
	}

	s := &Session{
		aea: a, work: work, def: def, act: act, iter: iter,
		lookup:             document.NewLookup(work, def, a.opener),
		requests:           map[string]string{},
		VerifiedSignatures: nsigs,
	}
	_, decryptSpan := tel.StartSpan(ctx, "aea_decrypt_requests_seconds")
	for _, r := range act.Requests {
		var v string
		var ok bool
		if v, ok, err = s.lookup.Value(r.Variable); err != nil {
			break
		}
		if ok {
			s.requests[r.Variable] = v
		}
	}
	decryptSpan.End()
	s.countDecrypted()
	if err != nil {
		return nil, fmt.Errorf("aea: decrypting requests: %w", err)
	}
	return s, nil
}

// countDecrypted brings DecryptedElements and the decrypt counter up to
// the lookup's count.
func (s *Session) countDecrypted() {
	mDecryptedElements.Add(int64(s.lookup.Decrypted - s.DecryptedElements))
	s.DecryptedElements = s.lookup.Decrypted
}

// Activity returns the activity being executed.
func (s *Session) Activity() *wfdef.Activity { return s.act }

// Iteration returns the loop iteration of this execution.
func (s *Session) Iteration() int { return s.iter }

// Definition returns the embedded workflow definition.
func (s *Session) Definition() *wfdef.Definition { return s.def }

// Requests returns the values of the activity's requested variables as
// visible to this participant; variables the participant cannot read are
// absent.
func (s *Session) Requests() map[string]string {
	out := make(map[string]string, len(s.requests))
	for k, v := range s.requests {
		out[k] = v
	}
	return out
}

// Outcome is the result of completing an activity under the basic model.
type Outcome struct {
	// Doc is the document including this activity's new CER. Every
	// target in Next receives it; since Open forks what it opens, the
	// targets of an AND-split may share it.
	Doc *document.Document
	// CER is the appended characteristic execution result.
	CER document.CER
	// Next lists the routed targets (activity IDs, or wfdef.EndID).
	Next []string
	// Completed reports whether the process instance reached the end.
	Completed bool
}

// Complete executes phase β of the basic operational model: validate the
// inputs, element-wise encrypt them per the security policy, decide the
// routing, and append the cascade-signed CER.
func (s *Session) Complete(inputs Inputs, now time.Time) (*Outcome, error) {
	return s.CompleteCtx(context.Background(), inputs, now)
}

// CompleteCtx is Complete carrying the caller's trace context (see
// AEA.OpenCtx).
func (s *Session) CompleteCtx(ctx context.Context, inputs Inputs, now time.Time) (*Outcome, error) {
	ctx, span := tel.StartSpan(ctx, "aea_complete_seconds")
	defer span.End()
	span.SetAttr("process", s.work.ProcessID())
	span.SetAttr("activity", s.act.ID)
	if s.def.Policy.ConcealFlow {
		return nil, ErrAdvancedRequired
	}
	if err := s.validateInputs(inputs); err != nil {
		return nil, err
	}
	next, err := s.route(inputs)
	if err != nil {
		return nil, err
	}
	_, encryptSpan := tel.StartSpan(ctx, "aea_encrypt_result_seconds")
	fields, err := secpol.EncryptFields(s.def, s.aea.Registry, s.act.ID, s.iter, inputs)
	encryptSpan.End()
	if err != nil {
		return nil, err
	}
	preds, err := document.PredecessorSignatures(s.def, s.work, s.act.ID)
	if err != nil {
		return nil, err
	}
	key, err := s.claim()
	if err != nil {
		return nil, err
	}
	_, signSpan := tel.StartSpan(ctx, "aea_sign_seconds")
	cer, err := s.work.AppendCER(document.AppendSpec{
		ActivityID:     s.act.ID,
		Iteration:      s.iter,
		Kind:           document.KindFinal,
		Participant:    s.aea.Keys.Owner,
		ResultChildren: fields,
		Next:           next,
		PredSigIDs:     preds,
		Signer:         s.aea.Keys,
		Suite:          s.aea.Suite,
	})
	signSpan.End()
	if err != nil {
		s.aea.release(key)
		return nil, err
	}
	mSignedCERs.Inc()

	return &Outcome{Doc: s.work, CER: cer, Next: next, Completed: contains(next, wfdef.EndID)}, nil
}

// CompleteToTFC executes phase β of the advanced operational model: the
// raw result is encrypted as a whole to the TFC server, an intermediate
// CER (the paper's CERit) is appended and participant-signed, and the
// returned document must be sent to the TFC for policy encryption,
// timestamping and forwarding.
func (s *Session) CompleteToTFC(inputs Inputs) (*document.Document, error) {
	return s.CompleteToTFCCtx(context.Background(), inputs)
}

// CompleteToTFCCtx is CompleteToTFC carrying the caller's trace context
// (see AEA.OpenCtx).
func (s *Session) CompleteToTFCCtx(ctx context.Context, inputs Inputs) (*document.Document, error) {
	ctx, span := tel.StartSpan(ctx, "aea_complete_tfc_seconds")
	defer span.End()
	span.SetAttr("process", s.work.ProcessID())
	span.SetAttr("activity", s.act.ID)
	tfcID := s.def.TFCFor(s.act.ID)
	if tfcID == "" {
		return nil, errors.New("aea: definition names no TFC server")
	}
	if err := s.validateInputs(inputs); err != nil {
		return nil, err
	}
	tfcKey, err := s.aea.Registry.PublicKey(tfcID)
	if err != nil {
		return nil, fmt.Errorf("aea: resolving TFC key: %w", err)
	}
	plain := xmltree.NewElement("PlainResult")
	vars := make([]string, 0, len(inputs))
	for v := range inputs {
		vars = append(vars, v)
	}
	sort.Strings(vars)
	for _, v := range vars {
		plain.AppendChild(document.Field(v, inputs[v]))
	}
	encID := fmt.Sprintf("encit-%s-%d", s.act.ID, s.iter)
	enc, err := xmlenc.Encrypt(plain, encID, xmlenc.Recipient{ID: tfcID, Key: tfcKey})
	if err != nil {
		return nil, err
	}
	preds, err := document.PredecessorSignatures(s.def, s.work, s.act.ID)
	if err != nil {
		return nil, err
	}
	key, err := s.claim()
	if err != nil {
		return nil, err
	}
	_, signSpan := tel.StartSpan(ctx, "aea_sign_seconds")
	_, err = s.work.AppendCER(document.AppendSpec{
		ActivityID:     s.act.ID,
		Iteration:      s.iter,
		Kind:           document.KindIntermediate,
		Participant:    s.aea.Keys.Owner,
		ResultChildren: []*xmltree.Node{enc},
		PredSigIDs:     preds,
		Signer:         s.aea.Keys,
		Suite:          s.aea.Suite,
	})
	signSpan.End()
	if err != nil {
		s.aea.release(key)
		return nil, err
	}
	mSignedCERs.Inc()
	return s.work, nil
}

// Execute is the one-shot convenience: Open followed by Complete.
func (a *AEA) Execute(doc *document.Document, activityID string, inputs Inputs, now time.Time) (*Outcome, error) {
	return a.ExecuteCtx(context.Background(), doc, activityID, inputs, now)
}

// ExecuteCtx is Execute carrying the caller's trace context.
func (a *AEA) ExecuteCtx(ctx context.Context, doc *document.Document, activityID string, inputs Inputs, now time.Time) (*Outcome, error) {
	s, err := a.OpenCtx(ctx, doc, activityID)
	if err != nil {
		return nil, err
	}
	return s.CompleteCtx(ctx, inputs, now)
}

// ExecuteToTFC is the one-shot convenience for the advanced model.
func (a *AEA) ExecuteToTFC(doc *document.Document, activityID string, inputs Inputs) (*document.Document, error) {
	return a.ExecuteToTFCCtx(context.Background(), doc, activityID, inputs)
}

// ExecuteToTFCCtx is ExecuteToTFC carrying the caller's trace context.
func (a *AEA) ExecuteToTFCCtx(ctx context.Context, doc *document.Document, activityID string, inputs Inputs) (*document.Document, error) {
	s, err := a.OpenCtx(ctx, doc, activityID)
	if err != nil {
		return nil, err
	}
	return s.CompleteToTFCCtx(ctx, inputs)
}

func (s *Session) validateInputs(inputs Inputs) error {
	for v := range inputs {
		if !s.act.Produces(v) {
			return fmt.Errorf("%w: %q (activity %s)", ErrUnknownInput, v, s.act.ID)
		}
	}
	for _, r := range s.act.Responses {
		if r.Required {
			if v, ok := inputs[r.Variable]; !ok || v == "" {
				return fmt.Errorf("%w: %q (activity %s)", ErrMissingInput, r.Variable, s.act.ID)
			}
		}
	}
	return nil
}

// route evaluates the activity's outgoing transitions under the basic
// model: a condition reads the fresh inputs first, and any other variable
// it names is looked up, and decrypted, as this participant sees it.
func (s *Session) route(inputs Inputs) ([]string, error) {
	next, err := secpol.Route(s.def, s.act, s.lookup.Env(inputs))
	s.countDecrypted()
	if lerr := s.lookup.Err(); lerr != nil {
		return nil, fmt.Errorf("aea: routing: %w", lerr)
	}
	if err != nil {
		switch {
		case errors.Is(err, secpol.ErrUnreadableCondition):
			return nil, fmt.Errorf("%w: %v", ErrConcealed, err)
		case errors.Is(err, secpol.ErrNoBranch):
			return nil, fmt.Errorf("%w: %v", ErrNoBranch, err)
		}
		return nil, err
	}
	return next, nil
}

func (a *AEA) alreadySeen(key string) bool {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.seen[key]
}

// claim arms the replay guard for the session's (process, activity,
// iteration) just before it signs. Check and mark are one step under a.mu,
// so of two sessions opened from the same document only one signs; the
// other gets ErrReplay.
func (s *Session) claim() (string, error) {
	key := replayKey(s.work.ProcessID(), s.act.ID, s.iter)
	a := s.aea
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.seen[key] {
		mReplayRejections.Inc()
		return "", fmt.Errorf("%w: %s#%d of process %s", ErrReplay, s.act.ID, s.iter, s.work.ProcessID())
	}
	a.seen[key] = true
	return key, nil
}

// release disarms a claim whose signature was never produced.
func (a *AEA) release(key string) {
	a.mu.Lock()
	defer a.mu.Unlock()
	delete(a.seen, key)
}

func replayKey(processID, activity string, iter int) string {
	return fmt.Sprintf("%s|%s|%d", processID, activity, iter)
}

func contains(s []string, v string) bool {
	for _, x := range s {
		if x == v {
			return true
		}
	}
	return false
}
