// Package cryptoerr seeds discarded-crypto-error violations for the
// cryptoerr analyzer's golden test.
package cryptoerr

import (
	"dra4wfms/internal/dsig"
	"dra4wfms/internal/pki"
	"dra4wfms/internal/xmlenc"
)

func bad(doc *dsig.Document, kp *pki.KeyPair, msg, sig []byte) {
	dsig.Verify(msg, sig)      // want "error returned by dsig.Verify is unchecked"
	n, _ := doc.VerifyAll(nil) // want "error returned by (dsig.Document).VerifyAll is assigned to _"
	_ = n
	_, _ = xmlenc.Decrypt(msg) // want "error returned by xmlenc.Decrypt is assigned to _"
	out, _ := kp.Sign(msg)     // want "error returned by (pki.KeyPair).Sign is assigned to _"
	_ = out
	go dsig.Verify(msg, sig) // want "error returned by dsig.Verify is unchecked"
}

func suppressedTrailing(msg, sig []byte) {
	_ = dsig.Verify(msg, sig) //lint:ignore cryptoerr fixture demo of trailing suppression
}

func suppressedAbove(msg []byte) {
	//lint:ignore cryptoerr fixture demo of standalone suppression
	_, _ = xmlenc.Encrypt(msg)
}

func ignoreWithoutReasonIsInert(msg, sig []byte) {
	//lint:ignore cryptoerr
	_ = dsig.Verify(msg, sig) // want "error returned by dsig.Verify is assigned to _"
}

func checked(msg, sig []byte) error {
	if err := dsig.Verify(msg, sig); err != nil {
		return err
	}
	out, err := xmlenc.Encrypt(msg)
	_ = out
	return err
}

// openerBad: decrypting through an Opener is the same trust boundary as
// the package-level functions.
func openerBad(o *xmlenc.Opener, msg []byte) {
	_, _ = o.Decrypt(msg)         // want "error returned by (xmlenc.Opener).Decrypt is assigned to _"
	n, _ := o.DecryptVisible(msg) // want "error returned by (xmlenc.Opener).DecryptVisible is assigned to _"
	_ = n
	o.DecryptVisible(msg) // want "error returned by (xmlenc.Opener).DecryptVisible is unchecked"
}

// signerName discards no error: SignerOf has a crypto-ish prefix but a
// single result, so the typed check skips it.
func signerName(sig []byte) string {
	return dsig.SignerOf(sig)
}

// suiteBad exercises the pluggable-suite surface: Sign/Verify reached
// through the dsig.Suite interface are the same trust boundary as the
// package-level functions, so their errors are equally unignorable.
func suiteBad(s dsig.Suite, pub any, msg, sig []byte) {
	s.Verify(pub, msg, sig)    // want "error returned by (dsig.Suite).Verify is unchecked"
	out, _ := s.Sign(pub, msg) // want "error returned by (dsig.Suite).Sign is assigned to _"
	_ = out
	_, _ = dsig.SignWith(s, msg) // want "error returned by dsig.SignWith is assigned to _"
	go s.Verify(pub, msg, sig)   // want "error returned by (dsig.Suite).Verify is unchecked"
}

// suiteChecked is the clean path: errors observed, algorithm string free.
func suiteChecked(s dsig.Suite, pub any, msg, sig []byte) (string, error) {
	if err := s.Verify(pub, msg, sig); err != nil {
		return "", err
	}
	return s.Alg(), nil
}
