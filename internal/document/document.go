// Package document implements the DRA4WfMS document: the self-protecting,
// routed XML document that *is* the workflow process instance (Figure 8 of
// the paper).
//
// A document has three sections:
//
//   - Header: the unique process id (replay protection), definition name
//     and creation time;
//   - ApplicationDefinition: the workflow definition and security policy,
//     signed by the workflow designer — the paper's secured initial
//     document ⟨⟨Def⟩ee, [⟨Def⟩ee]Pri(A0)⟩, also written CER(A0);
//   - ActivityResults: one CER (characteristic execution result) appended
//     per executed activity. A final CER holds the element-wise encrypted
//     execution result, an optional timestamp, the routing decision, and a
//     digital signature that covers the result AND the signatures of all
//     predecessor activities — the cascade that yields nonrepudiation.
//     Under the advanced operational model an activity first contributes an
//     intermediate CER (result encrypted to the TFC server, signed by the
//     participant, the paper's CERit), and the TFC appends the final CER.
//
// Algorithm 1 of the paper — deriving the nonrepudiation scope of a CER —
// is implemented by NonrepudiationScope.
package document

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"
	"time"

	"dra4wfms/internal/dsig"
	"dra4wfms/internal/pki"
	"dra4wfms/internal/wfdef"
	"dra4wfms/internal/xmltree"
)

// Well-known element names and Ids within a DRA4WfMS document.
const (
	RootElem    = "DRA4WfMS"
	HeaderID    = "header"
	WfdefID     = "wfdef"
	DesignerSig = "sig-A0" // the designer's signature, the paper's CER(A0)
)

// CER kinds.
const (
	// KindFinal marks a complete characteristic execution result.
	KindFinal = "final"
	// KindIntermediate marks the paper's CERit: the participant's result
	// encrypted to the TFC, awaiting policy encryption and timestamping.
	KindIntermediate = "intermediate"
)

// Document wraps the XML tree of a DRA4WfMS document.
type Document struct {
	// Root is the DRA4WfMS root element.
	Root *xmltree.Node
}

// New creates the secured initial document for one process instance:
// header + workflow definition, signed by the designer. processID must be
// unique per instance (it is the replay-protection anchor; see the paper's
// Section 2.1).
func New(def *wfdef.Definition, designer *pki.KeyPair, processID string, now time.Time) (*Document, error) {
	if err := def.Validate(); err != nil {
		return nil, err
	}
	if designer.Owner != def.Designer {
		return nil, fmt.Errorf("document: definition names designer %q but signing key belongs to %q", def.Designer, designer.Owner)
	}
	if processID == "" {
		return nil, errors.New("document: empty process id")
	}
	root := xmltree.NewElement(RootElem)

	header := xmltree.NewElement("Header")
	header.SetAttr("Id", HeaderID)
	header.Elem("ProcessID", processID)
	header.Elem("DefinitionName", def.Name)
	header.Elem("CreatedAt", now.UTC().Format(time.RFC3339Nano))
	root.AppendChild(header)

	appDef := xmltree.NewElement("ApplicationDefinition")
	wf := def.ToXML()
	wf.SetAttr("Id", WfdefID)
	appDef.AppendChild(wf)
	root.AppendChild(appDef)

	root.AppendChild(xmltree.NewElement("ActivityResults"))

	sig, err := dsig.Sign(root, []string{HeaderID, WfdefID}, designer, DesignerSig)
	if err != nil {
		return nil, err
	}
	appDef.AppendChild(sig)
	return &Document{Root: root}, nil
}

// Parse reads a DRA4WfMS document from its canonical bytes.
func Parse(b []byte) (*Document, error) {
	root, err := xmltree.ParseBytes(b)
	if err != nil {
		return nil, err
	}
	if root.Name != RootElem {
		return nil, fmt.Errorf("document: root element is %q, want %s", root.Name, RootElem)
	}
	return &Document{Root: root}, nil
}

// Bytes returns the canonical serialization of the document.
func (d *Document) Bytes() []byte { return d.Root.Canonical() }

// Size returns the canonical byte size of the document — the paper's Σ
// column in Tables 1 and 2.
func (d *Document) Size() int { return len(d.Bytes()) }

// Clone returns an independent deep copy.
func (d *Document) Clone() *Document { return &Document{Root: d.Root.Clone()} }

// Fork returns a document that can take new CERs without changing d: the
// root and ActivityResults elements are copied, and every other element
// is shared with d. The shared elements are read-only in both documents;
// a caller that edits one in place (decrypting it where it stands, a
// tamper test) must Clone instead. AppendCER only appends to the copied
// ActivityResults, so an AEA session, the TFC and Merge fork instead of
// deep-copying a tree they only append to.
func (d *Document) Fork() *Document {
	root := shallowCopy(d.Root)
	for i, c := range root.Children {
		if c.IsElement() && c.Name == "ActivityResults" {
			root.Children[i] = shallowCopy(c)
			break
		}
	}
	return &Document{Root: root}
}

// shallowCopy copies element n and its attribute and child lists; the
// children themselves are shared.
func shallowCopy(n *xmltree.Node) *xmltree.Node {
	return &xmltree.Node{Kind: n.Kind, Name: n.Name, Attrs: slices.Clone(n.Attrs), Children: slices.Clone(n.Children)}
}

// Header returns the header element.
func (d *Document) Header() *xmltree.Node { return d.Root.Child("Header") }

// ProcessID returns the unique process instance id.
func (d *Document) ProcessID() string {
	if h := d.Header(); h != nil {
		return h.ChildText("ProcessID")
	}
	return ""
}

// DefinitionName returns the workflow definition name from the header.
func (d *Document) DefinitionName() string {
	if h := d.Header(); h != nil {
		return h.ChildText("DefinitionName")
	}
	return ""
}

// CreatedAt returns the instant the initial document was created.
func (d *Document) CreatedAt() (time.Time, error) {
	h := d.Header()
	if h == nil {
		return time.Time{}, errors.New("document: no header")
	}
	return time.Parse(time.RFC3339Nano, h.ChildText("CreatedAt"))
}

// WorkflowElement returns the embedded WorkflowDefinition element.
func (d *Document) WorkflowElement() *xmltree.Node {
	if ad := d.Root.Child("ApplicationDefinition"); ad != nil {
		return ad.Child("WorkflowDefinition")
	}
	return nil
}

// Definition parses the embedded workflow definition.
func (d *Document) Definition() (*wfdef.Definition, error) {
	wf := d.WorkflowElement()
	if wf == nil {
		return nil, errors.New("document: no workflow definition section")
	}
	return wfdef.FromXML(wf)
}

// DesignerSignature returns the designer's signature element (CER(A0)).
func (d *Document) DesignerSignature() *xmltree.Node {
	if ad := d.Root.Child("ApplicationDefinition"); ad != nil {
		for _, c := range ad.ChildElements() {
			if c.Name == dsig.SignatureElem {
				return c
			}
		}
	}
	return nil
}

func (d *Document) resultsEl() *xmltree.Node {
	res := d.Root.Child("ActivityResults")
	if res == nil {
		res = xmltree.NewElement("ActivityResults")
		d.Root.AppendChild(res)
	}
	return res
}

// --- CER --------------------------------------------------------------------

// CER is a view over one characteristic-execution-result element.
type CER struct {
	// El is the underlying CER element.
	El *xmltree.Node
}

// ID returns the CER element's Id attribute.
func (c CER) ID() string { return c.El.AttrDefault("Id", "") }

// ActivityID returns the activity this CER belongs to.
func (c CER) ActivityID() string { return c.El.AttrDefault("ActivityID", "") }

// Iteration returns the loop iteration index (0 for the first execution).
func (c CER) Iteration() int {
	n, _ := strconv.Atoi(c.El.AttrDefault("Iteration", "0"))
	return n
}

// Kind returns KindFinal or KindIntermediate.
func (c CER) Kind() string { return c.El.AttrDefault("Kind", KindFinal) }

// Participant returns the principal recorded as the executor.
func (c CER) Participant() string { return c.El.AttrDefault("Participant", "") }

// Result returns the CER's Result element (fields, possibly encrypted).
func (c CER) Result() *xmltree.Node { return c.El.Child("Result") }

// Signature returns the CER's signature element.
func (c CER) Signature() *xmltree.Node { return c.El.Child(dsig.SignatureElem) }

// SignatureID returns the Id of the CER's signature element.
func (c CER) SignatureID() string {
	if s := c.Signature(); s != nil {
		return s.AttrDefault("Id", "")
	}
	return ""
}

// Signer returns the KeyName of the CER's signature.
func (c CER) Signer() string {
	if s := c.Signature(); s != nil {
		return dsig.SignerOf(s)
	}
	return ""
}

// Timestamp returns the TFC-embedded finish time, if present.
func (c CER) Timestamp() (time.Time, bool) {
	ts := c.El.Child("Timestamp")
	if ts == nil {
		return time.Time{}, false
	}
	t, err := time.Parse(time.RFC3339Nano, ts.TextContent())
	if err != nil {
		return time.Time{}, false
	}
	return t, true
}

// Next returns the routing decision recorded in the CER: the activity IDs
// (or wfdef.EndID) the document was forwarded to.
func (c CER) Next() []string {
	n := c.El.Child("Next")
	if n == nil {
		return nil
	}
	var out []string
	for _, to := range n.ChildElements() {
		if to.Name == "To" {
			out = append(out, to.TextContent())
		}
	}
	return out
}

// ID construction helpers; all Ids within a document derive from the
// activity ID, iteration and kind, so they are deterministic and unique.
func cerID(kind, activity string, iter int) string {
	p := "cer"
	if kind == KindIntermediate {
		p = "cer-it"
	}
	return fmt.Sprintf("%s-%s-%d", p, activity, iter)
}

func resultID(kind, activity string, iter int) string {
	p := "res"
	if kind == KindIntermediate {
		p = "res-it"
	}
	return fmt.Sprintf("%s-%s-%d", p, activity, iter)
}

// SigID returns the signature element Id for the given CER coordinates;
// exported because predecessors are referenced by signature Id.
func SigID(kind, activity string, iter int) string {
	p := "sig"
	if kind == KindIntermediate {
		p = "sig-it"
	}
	return fmt.Sprintf("%s-%s-%d", p, activity, iter)
}

// CERs returns every CER element in document order (both kinds).
func (d *Document) CERs() []CER {
	res := d.Root.Child("ActivityResults")
	if res == nil {
		return nil
	}
	var out []CER
	for _, c := range res.ChildElements() {
		if c.Name == "CER" {
			out = append(out, CER{El: c})
		}
	}
	return out
}

// FinalCERs returns only the final CERs, in document order.
func (d *Document) FinalCERs() []CER {
	var out []CER
	for _, c := range d.CERs() {
		if c.Kind() == KindFinal {
			out = append(out, c)
		}
	}
	return out
}

// FindCER returns the CER of the given kind for (activity, iteration).
func (d *Document) FindCER(kind, activity string, iter int) (CER, bool) {
	for _, c := range d.CERs() {
		if c.Kind() == kind && c.ActivityID() == activity && c.Iteration() == iter {
			return c, true
		}
	}
	return CER{}, false
}

// LatestIteration returns the highest iteration of a final CER for the
// activity, or -1 if the activity has not executed.
func (d *Document) LatestIteration(activity string) int {
	latest := -1
	for _, c := range d.FinalCERs() {
		if c.ActivityID() == activity && c.Iteration() > latest {
			latest = c.Iteration()
		}
	}
	return latest
}

// LatestFinalCER returns the final CER with the highest iteration for the
// activity.
func (d *Document) LatestFinalCER(activity string) (CER, bool) {
	iter := d.LatestIteration(activity)
	if iter < 0 {
		return CER{}, false
	}
	return d.FindCER(KindFinal, activity, iter)
}

// --- append -----------------------------------------------------------------

// AppendSpec describes one CER to append.
type AppendSpec struct {
	// ActivityID is the executed activity.
	ActivityID string
	// Iteration is the loop iteration index of this execution.
	Iteration int
	// Kind is KindFinal or KindIntermediate.
	Kind string
	// Participant is the executing principal recorded on the CER.
	Participant string
	// ResultChildren become the children of the Result element; they are
	// typically Field elements, already element-wise encrypted according to
	// the security policy (or a single EncryptedData wrapping the whole
	// result when targeting the TFC).
	ResultChildren []*xmltree.Node
	// Timestamp, when non-zero, embeds the TFC finish time inside the
	// signed scope.
	Timestamp time.Time
	// Next records the routing decision (activity IDs or wfdef.EndID);
	// empty for intermediate CERs.
	Next []string
	// PredSigIDs are the signature-element Ids of all predecessor CERs;
	// the new signature references each, forming the cascade.
	PredSigIDs []string
	// Signer signs the CER (the participant's AEA, or the TFC server).
	Signer *pki.KeyPair
	// Suite selects the signature suite for this CER's signature; nil
	// uses the process-wide default (dsig.DefaultSuite). Verification is
	// unaffected — it honors each signature's recorded algorithm.
	Suite dsig.Suite
}

// AppendCER builds, attaches and signs a CER according to spec. The
// signature covers the Result, the Timestamp and Next when present, and
// every predecessor signature listed in spec.PredSigIDs.
func (d *Document) AppendCER(spec AppendSpec) (CER, error) {
	if spec.ActivityID == "" {
		return CER{}, errors.New("document: AppendCER without activity id")
	}
	if spec.Kind != KindFinal && spec.Kind != KindIntermediate {
		return CER{}, fmt.Errorf("document: unknown CER kind %q", spec.Kind)
	}
	if spec.Signer == nil {
		return CER{}, errors.New("document: AppendCER without signer")
	}
	if len(spec.PredSigIDs) == 0 {
		return CER{}, errors.New("document: AppendCER without predecessor signatures (the cascade must not be broken)")
	}
	if _, exists := d.FindCER(spec.Kind, spec.ActivityID, spec.Iteration); exists {
		return CER{}, fmt.Errorf("document: %s CER for %s iteration %d already present (replay?)",
			spec.Kind, spec.ActivityID, spec.Iteration)
	}

	id := cerID(spec.Kind, spec.ActivityID, spec.Iteration)
	resID := resultID(spec.Kind, spec.ActivityID, spec.Iteration)
	sigID := SigID(spec.Kind, spec.ActivityID, spec.Iteration)

	cer := xmltree.NewElement("CER")
	cer.SetAttr("Id", id)
	cer.SetAttr("ActivityID", spec.ActivityID)
	cer.SetAttr("Iteration", strconv.Itoa(spec.Iteration))
	cer.SetAttr("Kind", spec.Kind)
	cer.SetAttr("Participant", spec.Participant)

	// The CER element's own attributes cannot be covered by its enveloped
	// signature (the signature is a child of the CER), so they are
	// duplicated into a signed Meta element; VerifyAll cross-checks both.
	meta := xmltree.NewElement("Meta")
	metaID := fmt.Sprintf("meta-%s-%d-%s", spec.ActivityID, spec.Iteration, spec.Kind)
	meta.SetAttr("Id", metaID)
	meta.SetAttr("ActivityID", spec.ActivityID)
	meta.SetAttr("Iteration", strconv.Itoa(spec.Iteration))
	meta.SetAttr("Kind", spec.Kind)
	meta.SetAttr("Participant", spec.Participant)
	cer.AppendChild(meta)

	result := xmltree.NewElement("Result")
	result.SetAttr("Id", resID)
	for _, c := range spec.ResultChildren {
		result.AppendChild(c)
	}
	cer.AppendChild(result)

	refs := []string{metaID, resID}
	if !spec.Timestamp.IsZero() {
		ts := cer.Elem("Timestamp", spec.Timestamp.UTC().Format(time.RFC3339Nano))
		tsID := "ts-" + spec.ActivityID + "-" + strconv.Itoa(spec.Iteration)
		ts.SetAttr("Id", tsID)
		refs = append(refs, tsID)
	}
	if len(spec.Next) > 0 {
		next := xmltree.NewElement("Next")
		nextID := fmt.Sprintf("next-%s-%d", spec.ActivityID, spec.Iteration)
		next.SetAttr("Id", nextID)
		for _, to := range spec.Next {
			next.Elem("To", to)
		}
		cer.AppendChild(next)
		refs = append(refs, nextID)
	}
	refs = append(refs, spec.PredSigIDs...)

	// Attach before signing so the references resolve within the document.
	d.resultsEl().AppendChild(cer)
	sig, err := dsig.SignWith(spec.Suite, d.Root, refs, spec.Signer, sigID)
	if err != nil {
		d.resultsEl().RemoveChild(cer)
		return CER{}, err
	}
	cer.AppendChild(sig)
	return CER{El: cer}, nil
}

// --- verification ------------------------------------------------------------

// VerifyAll checks the document end to end: the designer signature is
// present and valid, every CER's signature verifies (so no referenced
// subtree was altered), every CER signature covers the CER's own Result,
// and recorded participants match signature key names for final basic CERs
// (intermediate CERs are participant-signed, final advanced CERs are
// TFC-signed; callers with a definition can check executor assignment).
// It returns the total number of signatures verified — the quantity behind
// the paper's α column — and uses dsig.DefaultVerifier (fanned out over
// the verify slots, with the verified-prefix cache).
func (d *Document) VerifyAll(resolver dsig.KeyResolver) (int, error) {
	return d.VerifyAllWith(dsig.DefaultVerifier(), resolver)
}

// VerifyAllCtx is VerifyAll carrying the caller's trace context, so the
// signature-cascade verification shows up as a dsig-tier span inside a
// sampled distributed trace.
func (d *Document) VerifyAllCtx(ctx context.Context, resolver dsig.KeyResolver) (int, error) {
	return d.verifyAllWithCtx(ctx, dsig.DefaultVerifier(), resolver)
}

// VerifyAllWith is VerifyAll with an explicit verifier, letting callers
// (benchmarks, ablations) pick serial verification or their own prefix
// cache instead of the process-wide default.
//
// The cheap structural checks run serially first; the signatures then
// verify as one batch sharing a single id→digest index, so on failure the
// returned count is the number of signatures that did verify (it excludes
// the failing one).
func (d *Document) VerifyAllWith(v *dsig.Verifier, resolver dsig.KeyResolver) (int, error) {
	return d.verifyAllWithCtx(context.Background(), v, resolver)
}

func (d *Document) verifyAllWithCtx(ctx context.Context, v *dsig.Verifier, resolver dsig.KeyResolver) (int, error) {
	ds := d.DesignerSignature()
	if ds == nil {
		return 0, errors.New("document: missing designer signature")
	}
	cers := d.CERs()
	sigs := make([]*xmltree.Node, 0, len(cers)+1)
	sigs = append(sigs, ds)
	for _, c := range cers {
		sig := c.Signature()
		if sig == nil {
			return 0, fmt.Errorf("document: CER %s has no signature", c.ID())
		}
		// The signature must bind this CER's own result and meta.
		res := c.Result()
		if res == nil {
			return 0, fmt.Errorf("document: CER %s has no result", c.ID())
		}
		meta := c.El.Child("Meta")
		if meta == nil {
			return 0, fmt.Errorf("document: CER %s has no meta", c.ID())
		}
		resID := res.AttrDefault("Id", "")
		metaID := meta.AttrDefault("Id", "")
		boundRes, boundMeta := false, false
		for _, ref := range dsig.References(sig) {
			switch ref {
			case resID:
				boundRes = true
			case metaID:
				boundMeta = true
			}
		}
		if !boundRes || !boundMeta {
			return 0, fmt.Errorf("document: CER %s signature does not cover its result and meta", c.ID())
		}
		// The unsigned CER attributes must agree with the signed Meta copy.
		for _, attr := range []string{"ActivityID", "Iteration", "Kind", "Participant"} {
			if c.El.AttrDefault(attr, "") != meta.AttrDefault(attr, "") {
				return 0, fmt.Errorf("document: CER %s attribute %s disagrees with its signed meta", c.ID(), attr)
			}
		}
		sigs = append(sigs, sig)
	}
	n, idx, err := v.VerifyBatchCtx(ctx, d.Root, sigs, resolver)
	if err != nil {
		if idx < 0 {
			// No single signature failed: the batch was refused whole.
			return n, fmt.Errorf("document: %w", err)
		}
		if idx == 0 {
			return n, fmt.Errorf("document: designer signature: %w", err)
		}
		return n, fmt.Errorf("document: CER %s: %w", cers[idx-1].ID(), err)
	}
	return n, nil
}

// --- merge (AND-join) ---------------------------------------------------------

// Merge combines documents of the same process instance — the AND-join of
// the paper's Section 2.1, where the resulting document carries the union
// of the branch documents' CER sets. All inputs must share identical
// header and application-definition sections. The result is a Fork of the
// first document with, in encounter order, the CERs present only in later
// documents appended; it shares its elements with the inputs, which it
// leaves unchanged.
func Merge(docs ...*Document) (*Document, error) {
	if len(docs) == 0 {
		return nil, errors.New("document: nothing to merge")
	}
	base := docs[0].Fork()
	baseHeader := docs[0].Header().Canonical()
	baseAppDef := docs[0].Root.Child("ApplicationDefinition").Canonical()
	present := map[string]bool{}
	for _, c := range base.CERs() {
		present[c.ID()] = true
	}
	for _, doc := range docs[1:] {
		if doc.ProcessID() != docs[0].ProcessID() {
			return nil, fmt.Errorf("document: cannot merge distinct process instances %q and %q",
				docs[0].ProcessID(), doc.ProcessID())
		}
		if string(doc.Header().Canonical()) != string(baseHeader) {
			return nil, errors.New("document: merge with divergent header")
		}
		if string(doc.Root.Child("ApplicationDefinition").Canonical()) != string(baseAppDef) {
			return nil, errors.New("document: merge with divergent application definition")
		}
		for _, c := range doc.CERs() {
			if present[c.ID()] {
				continue
			}
			present[c.ID()] = true
			base.resultsEl().AppendChild(c.El)
		}
	}
	return base, nil
}

// --- Algorithm 1: nonrepudiation scope ----------------------------------------

// NonrepudiationScope implements the paper's Algorithm 1: given a CER id α
// in the document, it returns the set Γ of CER ids such that the
// participant who generated α cannot deny having received a document
// containing every CER in Γ. The scope is the transitive closure of the
// "signs the signature of" relation, and always contains α itself. The
// designer's CER(A0) is represented by the pseudo-id "cer-A0" when reached.
// The result is sorted for determinism.
func (d *Document) NonrepudiationScope(alpha string) ([]string, error) {
	// Map signature id -> owning CER id.
	sigToCER := map[string]string{DesignerSig: "cer-A0"}
	cerSigns := map[string][]string{} // CER id -> signature ids it references
	found := false
	for _, c := range d.CERs() {
		if c.ID() == alpha {
			found = true
		}
		sigToCER[c.SignatureID()] = c.ID()
		if sig := c.Signature(); sig != nil {
			cerSigns[c.ID()] = dsig.References(sig)
		}
	}
	if alpha == "cer-A0" {
		found = true
	}
	if !found {
		return nil, fmt.Errorf("document: no CER %q", alpha)
	}

	scope := map[string]bool{alpha: true}
	changed := true
	for changed {
		changed = false
		for beta := range scope {
			for _, ref := range cerSigns[beta] {
				if target, ok := sigToCER[ref]; ok && !scope[target] {
					scope[target] = true
					changed = true
				}
			}
		}
	}
	out := make([]string, 0, len(scope))
	for id := range scope {
		out = append(out, id)
	}
	sort.Strings(out)
	return out, nil
}

// --- field helpers -------------------------------------------------------------

// Field builds a `<Field Variable="name">value</Field>` element, the unit
// of process-instance data inside a Result.
func Field(variable, value string) *xmltree.Node {
	f := xmltree.NewElement("Field")
	f.SetAttr("Variable", variable)
	if value != "" {
		f.AppendChild(xmltree.NewText(value))
	}
	return f
}

// FieldValue extracts the plaintext value of the named variable from a
// Result element (or any container of Field elements). Encrypted fields
// are invisible to it; decrypt first (xmlenc.DecryptVisible).
func FieldValue(container *xmltree.Node, variable string) (string, bool) {
	for _, f := range container.FindAll("Field") {
		if f.AttrDefault("Variable", "") == variable {
			return f.TextContent(), true
		}
	}
	return "", false
}

// Fields returns all plaintext Field elements under container.
func Fields(container *xmltree.Node) []*xmltree.Node {
	return container.FindAll("Field")
}

// Values collects every visible (plaintext) field in document order across
// all final CERs, later values overriding earlier ones — the current state
// of the process variables as seen by a principal who has already run
// xmlenc.DecryptVisible on the document.
func (d *Document) Values() map[string]string {
	vals := map[string]string{}
	for _, c := range d.FinalCERs() {
		res := c.Result()
		if res == nil {
			continue
		}
		for _, f := range Fields(res) {
			vals[f.AttrDefault("Variable", "")] = f.TextContent()
		}
	}
	return vals
}

// Summary renders a short human-readable description of the document state.
func (d *Document) Summary() string {
	var b strings.Builder
	fmt.Fprintf(&b, "process %s (%s): %d CER(s), %d bytes",
		d.ProcessID(), d.DefinitionName(), len(d.CERs()), d.Size())
	for _, c := range d.CERs() {
		fmt.Fprintf(&b, "\n  %s %s#%d by %s", c.Kind(), c.ActivityID(), c.Iteration(), c.Participant())
		if ts, ok := c.Timestamp(); ok {
			fmt.Fprintf(&b, " at %s", ts.Format(time.RFC3339))
		}
		if next := c.Next(); len(next) > 0 {
			fmt.Fprintf(&b, " -> %s", strings.Join(next, ","))
		}
	}
	return b.String()
}
