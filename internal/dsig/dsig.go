// Package dsig implements XML digital signatures over xmltree documents,
// mirroring the W3C XML-Signature structure the paper's prototype used via
// the Java XML Digital Signature API and Apache Santuario.
//
// A signature is itself an XML element:
//
//	<Signature Id="sig-A1">
//	  <SignedInfo>
//	    <CanonicalizationMethod Algorithm="dra-c14n"></CanonicalizationMethod>
//	    <SignatureMethod Algorithm="rsa-sha256"></SignatureMethod>
//	    <Reference URI="#res-A1">
//	      <DigestMethod Algorithm="sha256"></DigestMethod>
//	      <DigestValue>…base64…</DigestValue>
//	    </Reference>
//	    <Reference URI="#sig-A0">…</Reference>
//	  </SignedInfo>
//	  <SignatureValue>…base64…</SignatureValue>
//	  <KeyInfo><KeyName>peter@acme</KeyName></KeyInfo>
//	</Signature>
//
// Each Reference digests the canonical bytes of the element carrying the
// matching Id attribute anywhere in the enclosing document. The private key
// signs the canonical bytes of SignedInfo, so the signature covers every
// referenced subtree. DRA4WfMS's nonrepudiation cascade falls out naturally:
// the signature embedded after activity Ai references both Ai's encrypted
// execution result and the Signature elements of all predecessor
// activities, each of which is an Id-carrying element.
package dsig

import (
	"crypto"
	"crypto/rsa"
	"crypto/subtle"
	"encoding/base64"
	"errors"
	"fmt"
	"strings"

	"dra4wfms/internal/pki"
	"dra4wfms/internal/telemetry"
	"dra4wfms/internal/xmltree"
)

// Runtime telemetry: operation and byte counters for the crypto hot path
// (the paper's α/β cost drivers).
var (
	mSignOps     = telemetry.Default().Counter("dsig_sign_ops_total")
	mSignBytes   = telemetry.Default().Counter("dsig_sign_bytes_total")
	mVerifyOps   = telemetry.Default().Counter("dsig_verify_ops_total")
	mVerifyBytes = telemetry.Default().Counter("dsig_verify_bytes_total")
)

// Algorithm identifiers recorded inside signatures. Verification rejects
// anything else, preventing silent algorithm downgrades.
const (
	CanonicalizationAlg = "dra-c14n"
	SignatureAlg        = "rsa-sha256"
	DigestAlg           = "sha256"
)

// Element names of the signature structure.
const (
	SignatureElem       = "Signature"
	signedInfoElem      = "SignedInfo"
	referenceElem       = "Reference"
	digestValueElem     = "DigestValue"
	digestMethodElem    = "DigestMethod"
	signatureValueElem  = "SignatureValue"
	keyInfoElem         = "KeyInfo"
	keyNameElem         = "KeyName"
	c14nMethodElem      = "CanonicalizationMethod"
	signatureMethodElem = "SignatureMethod"
)

// KeyResolver resolves a signer ID (the KeyName) to a trusted public key.
// *pki.Registry satisfies it.
type KeyResolver interface {
	PublicKey(id string) (*rsa.PublicKey, error)
}

// ErrMissingReference is returned when a Reference URI does not resolve to
// an element in the document.
var ErrMissingReference = errors.New("dsig: reference target not found")

// ErrDigestMismatch is returned when a referenced subtree's digest no longer
// matches the signed DigestValue — the subtree was altered after signing.
var ErrDigestMismatch = errors.New("dsig: digest mismatch (referenced element was altered)")

// ErrBadSignature is returned when the RSA signature over SignedInfo fails.
var ErrBadSignature = errors.New("dsig: signature value invalid")

// ErrDuplicateID is returned when two elements of the document carry the
// same Id, so a Reference to it cannot name one subtree.
var ErrDuplicateID = errors.New("dsig: duplicate Id")

// CheckIDs reports ErrDuplicateID when two elements under root carry one
// Id, the check every verification batch makes before it resolves a
// Reference.
func CheckIDs(root *xmltree.Node) error {
	_, err := newDigestIndex(root)
	return err
}

// Sign creates a Signature element covering the elements of root whose Id
// attributes appear in refIDs (order preserved), signing under the
// process-wide default suite (see ConfigureSuite). The signature is labeled
// sigID via its own Id attribute so later signatures can reference it, and
// names key.Owner in KeyInfo/KeyName. The returned element is NOT attached
// to root; callers append it where their format requires.
func Sign(root *xmltree.Node, refIDs []string, key *pki.KeyPair, sigID string) (*xmltree.Node, error) {
	return SignWith(nil, root, refIDs, key, sigID)
}

// SignWith is Sign under an explicit signature suite; nil selects the
// process-wide default. The suite's algorithm identifier is recorded in
// SignedInfo/SignatureMethod, inside the signed bytes.
func SignWith(suite Suite, root *xmltree.Node, refIDs []string, key *pki.KeyPair, sigID string) (*xmltree.Node, error) {
	if len(refIDs) == 0 {
		return nil, errors.New("dsig: no references to sign")
	}
	if suite == nil {
		suite = DefaultSuite()
	}
	ix, err := newDigestIndex(root)
	if err != nil {
		return nil, err
	}
	signedInfo := xmltree.NewElement(signedInfoElem)
	signedInfo.Elem(c14nMethodElem, "").SetAttr("Algorithm", CanonicalizationAlg)
	signedInfo.Elem(signatureMethodElem, "").SetAttr("Algorithm", suite.Alg())
	for _, id := range refIDs {
		digest, err := ix.digest(id)
		if err != nil {
			return nil, err
		}
		ref := xmltree.NewElement(referenceElem)
		ref.SetAttr("URI", "#"+id)
		ref.Elem(digestMethodElem, "").SetAttr("Algorithm", DigestAlg)
		ref.Elem(digestValueElem, base64.StdEncoding.EncodeToString(digest))
		signedInfo.AppendChild(ref)
	}

	canon := signedInfo.Canonical()
	sigValue, err := suite.Sign(key, canon)
	if err != nil {
		return nil, err
	}
	mSignOps.Inc()
	mSignBytes.Add(int64(len(canon)))

	sig := xmltree.NewElement(SignatureElem)
	if sigID != "" {
		sig.SetAttr("Id", sigID)
	}
	sig.AppendChild(signedInfo)
	sig.Elem(signatureValueElem, base64.StdEncoding.EncodeToString(sigValue))
	keyInfo := xmltree.NewElement(keyInfoElem)
	keyInfo.Elem(keyNameElem, key.Owner)
	sig.AppendChild(keyInfo)
	return sig, nil
}

// SignerOf returns the KeyName recorded in a Signature element, or "".
func SignerOf(sig *xmltree.Node) string {
	if ki := sig.Child(keyInfoElem); ki != nil {
		return ki.ChildText(keyNameElem)
	}
	return ""
}

// References returns the Ids (without the leading '#') referenced by a
// Signature element, in signature order.
func References(sig *xmltree.Node) []string {
	si := sig.Child(signedInfoElem)
	if si == nil {
		return nil
	}
	var ids []string
	for _, ref := range si.ChildElements() {
		if ref.Name != referenceElem {
			continue
		}
		uri, _ := ref.Attr("URI")
		ids = append(ids, strings.TrimPrefix(uri, "#"))
	}
	return ids
}

var errMissingKeyName = errors.New("dsig: signature has no KeyName")

// checkStructure validates a Signature element's shape and algorithm
// identifiers and returns its SignedInfo plus the signature suite the
// recorded SignatureMethod selects. Only registered suites pass — an
// unknown or empty algorithm fails closed, so there is no downgrade path.
func checkStructure(sig *xmltree.Node) (*xmltree.Node, Suite, error) {
	si := sig.Child(signedInfoElem)
	if si == nil {
		return nil, nil, errors.New("dsig: Signature has no SignedInfo")
	}
	if alg := algorithmOf(si, c14nMethodElem); alg != CanonicalizationAlg {
		return nil, nil, fmt.Errorf("dsig: unsupported canonicalization %q", alg)
	}
	alg := algorithmOf(si, signatureMethodElem)
	suite, ok := SuiteFor(alg)
	if !ok {
		return nil, nil, fmt.Errorf("dsig: unsupported signature method %q", alg)
	}
	return si, suite, nil
}

// checkReferences recomputes every Reference digest against the current
// document (through the shared index) and compares it to the signed
// DigestValue. This always runs — even on a verified-prefix cache hit —
// because the referenced subtrees live outside the signature and may have
// been altered since it was cached.
func checkReferences(ix *digestIndex, si *xmltree.Node) error {
	nRefs := 0
	for _, ref := range si.ChildElements() {
		if ref.Name != referenceElem {
			continue
		}
		nRefs++
		if alg := algorithmOf(ref, digestMethodElem); alg != DigestAlg {
			return fmt.Errorf("dsig: unsupported digest method %q", alg)
		}
		uri, _ := ref.Attr("URI")
		if !strings.HasPrefix(uri, "#") {
			return fmt.Errorf("dsig: unsupported reference URI %q", uri)
		}
		want, err := base64.StdEncoding.DecodeString(ref.ChildText(digestValueElem))
		if err != nil {
			return fmt.Errorf("dsig: corrupt DigestValue in %s: %w", uri, err)
		}
		got, err := ix.digest(strings.TrimPrefix(uri, "#"))
		if err != nil {
			return err
		}
		if !equalBytes(want, got) {
			return fmt.Errorf("%w: %s", ErrDigestMismatch, uri)
		}
	}
	if nRefs == 0 {
		return errors.New("dsig: signature covers no references")
	}
	return nil
}

// checkSignatureValue verifies the suite signature over SignedInfo's
// canonical bytes under the resolved public key.
func checkSignatureValue(si, sig *xmltree.Node, signer string, pub crypto.PublicKey, suite Suite) error {
	sigValue, err := base64.StdEncoding.DecodeString(sig.ChildText(signatureValueElem))
	if err != nil {
		return fmt.Errorf("dsig: corrupt SignatureValue: %w", err)
	}
	canon := si.Canonical()
	if err := suite.Verify(pub, canon, sigValue); err != nil {
		return fmt.Errorf("%w (signer %s, suite %s)", ErrBadSignature, signer, suite.Alg())
	}
	mVerifyOps.Inc()
	mVerifyBytes.Add(int64(len(canon)))
	return nil
}

// Verify checks a Signature element against the current state of root:
// every Reference digest must match the present canonical bytes of its
// target, and the RSA signature over SignedInfo must verify under the
// public key the resolver returns for the recorded KeyName. A root that
// carries an Id twice fails with ErrDuplicateID. It uses no cache; batch
// verification goes through Verifier.VerifyAll.
func Verify(root, sig *xmltree.Node, resolver KeyResolver) error {
	ix, err := newDigestIndex(root)
	if err != nil {
		return err
	}
	return verifyWith(ix, sig, resolver, nil)
}

// VerifyAll verifies every Signature element found in the subtree rooted at
// container against the document root using DefaultVerifier (fanned
// out over the verify slots, with the verified-prefix cache). It reports
// the number of signatures that verified; on failure that count excludes
// the failing signature and the error names the failing signature's Id.
func VerifyAll(root, container *xmltree.Node, resolver KeyResolver) (int, error) {
	return DefaultVerifier().VerifyAll(root, container, resolver)
}

func algorithmOf(parent *xmltree.Node, elem string) string {
	if c := parent.Child(elem); c != nil {
		return c.AttrDefault("Algorithm", "")
	}
	return ""
}

// equalBytes compares digests without leaking a timing oracle on the
// first differing byte (the dralint consttime invariant).
func equalBytes(a, b []byte) bool {
	return subtle.ConstantTimeCompare(a, b) == 1
}
