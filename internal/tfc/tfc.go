// Package tfc implements the Timestamp and Flow Control server of the
// advanced operational model (Section 2.2 of the paper).
//
// A TFC server is deliberately NOT a workflow engine: it holds no process
// state of its own, it merely
//
//  1. verifies a received intermediate document;
//  2. decrypts the participant's raw execution result, which the AEA
//     encrypted to the TFC's public key (the paper's ⟨R⟩Pub(TFC));
//  3. re-encrypts each result variable element-wise according to the
//     security policy — something the participant could not do when the
//     next reader depends on a concealed branch condition (Figure 4);
//  4. evaluates the flow conditions it is entitled to read and decides the
//     routing;
//  5. embeds a timestamp witnessing the activity finish time (the notary
//     role) and a TFC signature chaining to the participant's intermediate
//     signature, preserving the nonrepudiation cascade;
//  6. forwards the document to the next participant(s) and records the
//     forwarding for workflow monitoring.
//
// Because the TFC never opens an interactive session with participants its
// per-document work is bounded, which is why the paper finds it is not the
// system bottleneck; BenchmarkTFCThroughput reproduces that claim.
package tfc

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync"
	"time"

	"dra4wfms/internal/document"
	"dra4wfms/internal/dsig"
	"dra4wfms/internal/pki"
	"dra4wfms/internal/secpol"
	"dra4wfms/internal/telemetry"
	"dra4wfms/internal/wfdef"
	"dra4wfms/internal/xmlenc"
)

// Runtime telemetry: end-to-end and per-phase latencies (the paper's α
// and γ columns for the TFC share of Table 2) plus witness/replay
// counters. The TFC's per-document cost bounds the advanced model's
// shared-tier capacity, so these histograms are the "is the TFC the
// bottleneck?" signal at runtime.
var (
	tel               = telemetry.Default()
	mTimestamps       = tel.Counter("tfc_timestamps_total")
	mReplayRejections = tel.Counter("tfc_replay_rejections_total")
)

// Typed failures.
var (
	// ErrNotResponsible: the definition names a different TFC server.
	ErrNotResponsible = errors.New("tfc: this server is not the definition's TFC")
	// ErrNoPending: the document holds no intermediate CER awaiting
	// processing.
	ErrNoPending = errors.New("tfc: no pending intermediate CER")
	// ErrReplay: this server already processed this (process, activity,
	// iteration).
	ErrReplay = errors.New("tfc: duplicate intermediate document (replay)")
)

// ForwardRecord is one monitoring log entry: the paper's TFC "keeps a copy
// of each forwarded document and makes a record of the document
// processing".
type ForwardRecord struct {
	ProcessID   string
	Activity    string
	Iteration   int
	Participant string
	Timestamp   time.Time
	Next        []string
	Size        int // canonical bytes of the forwarded document
}

// Server is one TFC server instance. It is safe for concurrent use.
type Server struct {
	// Keys is the server's key pair; Keys.Owner must match the
	// definition's Policy.TFC. Documents are decrypted with the key pair
	// passed to New.
	Keys *pki.KeyPair
	// Registry resolves participant keys.
	Registry *pki.Registry
	// Suite selects the signature suite for final CERs the server signs;
	// nil uses the process-wide default (dsig.DefaultSuite).
	Suite dsig.Suite
	// Clock supplies timestamps; it defaults to time.Now and is injectable
	// for deterministic tests.
	Clock func() time.Time
	// OnRecord, when non-nil, is called once for every ForwardRecord,
	// outside the server's lock and before the record is appended or the
	// outcome returned — the hook Journal installs to persist the
	// forwarding log (and the replay guard it implies) across restarts. A
	// non-nil error fails the whole Process call: the caller
	// never sees an acknowledged outcome whose record is not durable, and
	// the replay guard for the intermediate is disarmed so the client can
	// retry once persistence recovers.
	OnRecord func(ForwardRecord) error

	// opener unwraps each content key the server can read once: the
	// intermediate result, the variables it routes on and the condition
	// vault all go through it.
	opener *xmlenc.Opener

	mu      sync.Mutex
	seen    map[string]bool
	records []ForwardRecord
}

// New creates a TFC server. clock may be nil (defaults to time.Now).
func New(keys *pki.KeyPair, reg *pki.Registry, clock func() time.Time) *Server {
	if clock == nil {
		clock = time.Now
	}
	return &Server{Keys: keys, Registry: reg, Clock: clock, opener: xmlenc.NewOpener(keys), seen: make(map[string]bool)}
}

// Outcome is the result of processing one intermediate document.
type Outcome struct {
	// Doc is the document after the TFC appended the final CER; every
	// target in Next receives it.
	Doc *document.Document
	// CER is the appended final characteristic execution result.
	CER document.CER
	// Next lists the routed targets.
	Next []string
	// Completed reports whether the process instance reached the end.
	Completed bool
	// VerifiedSignatures counts signatures checked (the TFC share of α).
	VerifiedSignatures int
	// Timestamp is the witnessed finish time embedded in the CER.
	Timestamp time.Time
	// VerifyDuration is the wall time spent verifying the received
	// document's signatures and decrypting — the TFC's share of the
	// paper's α column (Table 2).
	VerifyDuration time.Duration
	// EncryptSignDuration is the wall time spent policy-encrypting the
	// result and embedding the timestamped signature — the paper's γ
	// column (Table 2).
	EncryptSignDuration time.Duration
}

// Process handles one intermediate document end to end.
func (s *Server) Process(doc *document.Document) (*Outcome, error) {
	return s.ProcessCtx(context.Background(), doc)
}

// ProcessCtx is Process carrying the caller's trace context: inside a
// sampled distributed trace the TFC's verify/route/encrypt/sign work
// lands as a tfc-tier span with the process and activity as attributes.
func (s *Server) ProcessCtx(ctx context.Context, doc *document.Document) (*Outcome, error) {
	ctx, span := tel.StartSpan(ctx, "tfc_process_seconds")
	defer span.End()
	span.SetAttr("process", doc.ProcessID())
	verifyStart := time.Now()
	// A fork suffices: the server only appends the final CER, and
	// RevealConditions fills the parsed definition, not the tree.
	work := doc.Fork()
	nsigs, err := work.VerifyAllCtx(ctx, s.Registry)
	if err != nil {
		return nil, fmt.Errorf("tfc: document verification failed after %d valid signatures: %w", nsigs, err)
	}
	def, err := work.Definition()
	if err != nil {
		return nil, err
	}
	if err := def.Validate(); err != nil {
		return nil, fmt.Errorf("tfc: embedded definition invalid: %w", err)
	}
	if err := document.CheckDeclared(def, work); err != nil {
		return nil, fmt.Errorf("tfc: %w", err)
	}
	pending, err := pendingIntermediate(work)
	if err != nil {
		return nil, err
	}
	act := def.Activity(pending.ActivityID())
	if act == nil {
		return nil, fmt.Errorf("tfc: intermediate CER names unknown activity %q", pending.ActivityID())
	}
	span.SetAttr("activity", act.ID)
	if responsible := def.TFCFor(act.ID); responsible != s.Keys.Owner {
		return nil, fmt.Errorf("%w: activity %s is assigned to %q, this server is %q",
			ErrNotResponsible, act.ID, responsible, s.Keys.Owner)
	}
	// Statically concealed conditions (document.NewConcealed) are vaulted
	// inside the signed definition; only vault recipients can open it.
	for _, t := range def.Transitions {
		if t.Concealed {
			if err := work.RevealConditions(def, s.opener); err != nil {
				return nil, fmt.Errorf("tfc: revealing concealed conditions: %w", err)
			}
			break
		}
	}
	if pending.Signer() != pending.Participant() {
		return nil, fmt.Errorf("tfc: intermediate CER of %s signed by %q but records participant %q",
			act.ID, pending.Signer(), pending.Participant())
	}
	if act.Participant != "" && act.Participant != pending.Participant() {
		return nil, fmt.Errorf("tfc: intermediate CER of %s executed by %q, expected participant %q",
			act.ID, pending.Participant(), act.Participant)
	}
	if act.Role != "" {
		id, err := s.Registry.Identity(pending.Participant())
		if err != nil {
			return nil, fmt.Errorf("tfc: resolving executor %q: %w", pending.Participant(), err)
		}
		if !id.HasRole(act.Role) {
			return nil, fmt.Errorf("tfc: executor %q of %s lacks role %q", pending.Participant(), act.ID, act.Role)
		}
	}
	iter := pending.Iteration()
	key := fmt.Sprintf("%s|%s|%d", work.ProcessID(), act.ID, iter)
	s.mu.Lock()
	if s.seen[key] {
		s.mu.Unlock()
		mReplayRejections.Inc()
		return nil, fmt.Errorf("%w: %s", ErrReplay, key)
	}
	s.seen[key] = true
	s.mu.Unlock()
	// Any refusal from here on disarms the guard again: the intermediate
	// was not notarized, so the participant's corrected or retried
	// submission for the same iteration must go through.
	notarized := false
	defer func() {
		if !notarized {
			s.mu.Lock()
			delete(s.seen, key)
			s.mu.Unlock()
		}
	}()

	// Unwrap the raw result the AEA encrypted to this server.
	res := pending.Result()
	if res == nil || len(res.ChildElements()) != 1 || !xmlenc.IsEncrypted(res.ChildElements()[0]) {
		return nil, errors.New("tfc: intermediate result is not a single encrypted payload")
	}
	plain, err := s.opener.Decrypt(res.ChildElements()[0])
	if err != nil {
		return nil, fmt.Errorf("tfc: unwrapping intermediate result: %w", err)
	}
	values := map[string]string{}
	for _, f := range document.Fields(plain) {
		v := f.AttrDefault("Variable", "")
		if !act.Produces(v) {
			return nil, fmt.Errorf("tfc: intermediate result of %s: %w: %q", act.ID, document.ErrUndeclaredVariable, v)
		}
		values[v] = f.TextContent()
	}

	// Routing: a condition reads the fresh raw values first; any other
	// variable it names is looked up, and decrypted, as this server sees
	// it in the document.
	lookup := document.NewLookup(work, def, s.opener)
	next, err := secpol.Route(def, act, lookup.Env(values))
	verifyDur := time.Since(verifyStart)
	if lerr := lookup.Err(); lerr != nil {
		err = lerr
	}
	if err != nil {
		return nil, fmt.Errorf("tfc: routing after %s: %w", act.ID, err)
	}

	// Policy encryption of the result fields.
	encStart := time.Now()
	fields, err := secpol.EncryptFields(def, s.Registry, act.ID, iter, values)
	if err != nil {
		return nil, err
	}

	now := s.Clock()
	cer, err := work.AppendCER(document.AppendSpec{
		ActivityID:     act.ID,
		Iteration:      iter,
		Kind:           document.KindFinal,
		Participant:    pending.Participant(),
		ResultChildren: fields,
		Timestamp:      now,
		Next:           next,
		PredSigIDs:     []string{pending.SignatureID()},
		Signer:         s.Keys,
		Suite:          s.Suite,
	})
	if err != nil {
		return nil, err
	}

	encryptSignDur := time.Since(encStart)
	tel.Histogram("tfc_verify_seconds", telemetry.LatencyBuckets).ObserveDuration(verifyDur)
	tel.Histogram("tfc_encrypt_sign_seconds", telemetry.LatencyBuckets).ObserveDuration(encryptSignDur)
	mTimestamps.Inc()

	out := &Outcome{
		Doc: work, CER: cer, Next: next,
		Completed:           slices.Contains(next, wfdef.EndID),
		VerifiedSignatures:  nsigs,
		Timestamp:           now,
		VerifyDuration:      verifyDur,
		EncryptSignDuration: encryptSignDur,
	}

	// The record outlives the request: Participant is cloned so it does
	// not keep the parsed document alive (the other strings are copies
	// already; see wfdef.FromXML).
	rec := ForwardRecord{
		ProcessID:   work.ProcessID(),
		Activity:    act.ID,
		Iteration:   iter,
		Participant: strings.Clone(pending.Participant()),
		Timestamp:   now,
		Next:        next,
		Size:        work.Size(),
	}
	// Journal before the in-memory append: the record must be durable (per
	// the hook's policy) before the process response is acknowledged. On
	// failure the replay guard is disarmed like on any other refusal —
	// after a restart the unpersisted record would not re-arm it anyway,
	// so keeping it armed in memory would only block a legitimate retry
	// until then.
	if s.OnRecord != nil {
		if err := s.OnRecord(rec); err != nil {
			return nil, fmt.Errorf("tfc: persisting forwarding record for %s: %w", key, err)
		}
	}
	s.mu.Lock()
	s.records = append(s.records, rec)
	s.mu.Unlock()
	notarized = true
	return out, nil
}

// Records returns a copy of the forwarding log, the data source for
// workflow monitoring in the advanced model.
func (s *Server) Records() []ForwardRecord {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]ForwardRecord, len(s.records))
	copy(out, s.records)
	return out
}

// RecordsFor returns the forwarding log entries of one process instance.
func (s *Server) RecordsFor(processID string) []ForwardRecord {
	var out []ForwardRecord
	for _, r := range s.Records() {
		if r.ProcessID == processID {
			out = append(out, r)
		}
	}
	return out
}

// pendingIntermediate finds the unique intermediate CER without a matching
// final CER.
func pendingIntermediate(d *document.Document) (document.CER, error) {
	var pending []document.CER
	for _, c := range d.CERs() {
		if c.Kind() != document.KindIntermediate {
			continue
		}
		if _, done := d.FindCER(document.KindFinal, c.ActivityID(), c.Iteration()); !done {
			pending = append(pending, c)
		}
	}
	switch len(pending) {
	case 0:
		return document.CER{}, ErrNoPending
	case 1:
		return pending[0], nil
	default:
		return document.CER{}, fmt.Errorf("tfc: %d pending intermediate CERs in one document", len(pending))
	}
}
