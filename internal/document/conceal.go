package document

import (
	"errors"
	"fmt"
	"time"

	"dra4wfms/internal/dsig"
	"dra4wfms/internal/pki"
	"dra4wfms/internal/wfdef"
	"dra4wfms/internal/xmlenc"
	"dra4wfms/internal/xmltree"
)

// This file implements static flow-information concealment: the paper's
// Figure 4 requirement that "the control flow information should not be
// revealed to the participant who is responsible to forward the workflow
// document", realized with the same element-wise encryption the data uses.
//
// NewConcealed strips every transition's condition text from the
// participant-visible workflow definition (marking the edges Concealed)
// and vaults the conditions inside the definition as an element-wise
// encrypted ConcealedConditions element that only the TFC server (and
// whoever else the designer lists) can open. The designer's signature
// covers the stripped definition INCLUDING the encrypted vault, so neither
// the visible topology nor the hidden predicates can be altered.
//
// The TFC reveals the vault before routing (RevealConditions); every
// other principal sees only the topology — enough to compute enabled
// activities from the signed Next routing decisions, but not to learn the
// branch predicates.

// vaultMarker tags the EncryptedData element holding the condition vault.
const vaultMarker = "concealed-conditions"

// NewConcealed builds the secured initial document like New, but with all
// transition conditions vaulted for the given recipients (normally the TFC
// server, resolved by the caller, plus optionally the designer). The
// passed definition is not modified. It fails unless the definition
// declares ConcealFlow and a TFC.
func NewConcealed(def *wfdef.Definition, designer *pki.KeyPair, processID string, now time.Time, vaultRecipients ...xmlenc.Recipient) (*Document, error) {
	if !def.Policy.ConcealFlow || def.Policy.TFC == "" {
		return nil, errors.New("document: NewConcealed requires a concealed-flow definition with a TFC")
	}
	if len(vaultRecipients) == 0 {
		return nil, errors.New("document: NewConcealed requires at least one vault recipient (the TFC)")
	}
	tfcIncluded := false
	for _, r := range vaultRecipients {
		if r.ID == def.Policy.TFC {
			tfcIncluded = true
		}
	}
	if !tfcIncluded {
		return nil, fmt.Errorf("document: vault recipients must include the TFC %q", def.Policy.TFC)
	}

	// Build the stripped definition: conditions removed, edges marked.
	stripped := *def
	stripped.Transitions = make([]wfdef.Transition, len(def.Transitions))
	vault := xmltree.NewElement("ConcealedConditions")
	concealedAny := false
	for i, t := range def.Transitions {
		s := t
		if t.Condition != "" {
			c := vault.Elem("Condition", t.Condition)
			c.SetAttr("Transition", t.ID)
			s.Condition = ""
			s.Concealed = true
			concealedAny = true
		}
		stripped.Transitions[i] = s
	}
	if err := stripped.Validate(); err != nil {
		return nil, fmt.Errorf("document: stripped definition invalid: %w", err)
	}

	doc, err := New(&stripped, designer, processID, now)
	if err != nil {
		return nil, err
	}
	if !concealedAny {
		// Nothing to vault; the document is simply a normal initial doc.
		return doc, nil
	}

	// Replace the placeholder: encrypt the vault and insert it into the
	// WorkflowDefinition subtree, then RE-SIGN (the designer signature must
	// cover the vault).
	wf := doc.WorkflowElement()
	enc, err := xmlenc.Encrypt(vault, "vault", vaultRecipients...)
	if err != nil {
		return nil, err
	}
	enc.SetAttr("Purpose", vaultMarker)
	wf.AppendChild(enc)

	appDef := doc.Root.Child("ApplicationDefinition")
	old := doc.DesignerSignature()
	appDef.RemoveChild(old)
	sig, err := resign(doc, designer)
	if err != nil {
		return nil, err
	}
	appDef.AppendChild(sig)
	return doc, nil
}

// resign rebuilds the designer signature over header + workflow definition.
func resign(d *Document, designer *pki.KeyPair) (*xmltree.Node, error) {
	return dsig.Sign(d.Root, []string{HeaderID, WfdefID}, designer, DesignerSig)
}

// ConditionVault returns the encrypted condition vault element, or nil for
// documents without concealed conditions.
func (d *Document) ConditionVault() *xmltree.Node {
	wf := d.WorkflowElement()
	if wf == nil {
		return nil
	}
	for _, c := range wf.ChildElements() {
		if xmlenc.IsEncrypted(c) && c.AttrDefault("Purpose", "") == vaultMarker {
			return c
		}
	}
	return nil
}

// RevealConditions decrypts the condition vault through opener (the TFC's)
// and fills the concealed transitions of def in place, clearing their
// Concealed flags. It fails if the document has no vault, the opener's
// principal is not a recipient, or a vault entry names an unknown
// transition.
func (d *Document) RevealConditions(def *wfdef.Definition, opener *xmlenc.Opener) error {
	vaultEl := d.ConditionVault()
	if vaultEl == nil {
		return errors.New("document: no concealed-conditions vault")
	}
	plain, err := opener.Decrypt(vaultEl)
	if err != nil {
		return fmt.Errorf("document: opening condition vault: %w", err)
	}
	byID := map[string]*wfdef.Transition{}
	for i := range def.Transitions {
		byID[def.Transitions[i].ID] = &def.Transitions[i]
	}
	for _, c := range plain.ChildElements() {
		if c.Name != "Condition" {
			continue
		}
		tid := c.AttrDefault("Transition", "")
		t, ok := byID[tid]
		if !ok {
			return fmt.Errorf("document: vault names unknown transition %q", tid)
		}
		t.Condition = c.TextContent()
		t.Concealed = false
	}
	// Every concealed edge must have been revealed.
	for _, t := range def.Transitions {
		if t.Concealed {
			return fmt.Errorf("document: transition %s remains concealed after revealing the vault", t.ID)
		}
	}
	return nil
}
