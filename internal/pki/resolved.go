package pki

import (
	"crypto"
	"crypto/ed25519"
	"crypto/rsa"
	"crypto/sha256"
	"fmt"
)

// Per-principal crypto-state cache. Resolving a signer on the verify hot
// path used to mean: registry lookup, base64 decode, PKIX parse — per
// signature, per request. A cascade of n CERs re-parses the same handful
// of participant keys n times. ResolvedKey memoizes everything derivable
// from a registered certificate: the parsed public keys, their
// fingerprints (which key the verified-prefix cache entries are bound to),
// and the precomputed RSA-OAEP label used when encrypting to the
// principal. Entries are invalidated on Register/Revoke, so a key rotation
// can never serve stale parsed material.

// ResolvedKey is the memoized, parse-once key material of one principal.
// The struct is immutable after construction and safe to share across
// goroutines.
type ResolvedKey struct {
	// ID is the principal the material belongs to.
	ID string
	// Serial is the certificate serial the material was derived from.
	Serial uint64
	// RSA is the parsed RSA public key.
	RSA *rsa.PublicKey
	// RSAFingerprint identifies (principal, RSA key) for verify caches.
	RSAFingerprint [sha256.Size]byte
	// Ed is the parsed Ed25519 public key; nil for RSA-only certificates.
	Ed ed25519.PublicKey
	// EdFingerprint identifies (principal, Ed25519 key); zero when Ed is nil.
	EdFingerprint [sha256.Size]byte
	// OAEPLabel is the precomputed RSA-OAEP label bytes used when wrapping
	// content keys to this principal (the recipient ID).
	OAEPLabel []byte
}

// Key returns the public key and fingerprint for the given key type
// (KeyRSA or KeyEd25519).
func (rk *ResolvedKey) Key(keyType string) (crypto.PublicKey, [sha256.Size]byte, error) {
	var zero [sha256.Size]byte
	switch keyType {
	case KeyRSA:
		return rk.RSA, rk.RSAFingerprint, nil
	case KeyEd25519:
		if rk.Ed == nil {
			return nil, zero, fmt.Errorf("%w: principal %s has no registered ed25519 key", ErrMalformedKey, rk.ID)
		}
		return rk.Ed, rk.EdFingerprint, nil
	default:
		return nil, zero, fmt.Errorf("%w: unknown key type %q", ErrMalformedKey, keyType)
	}
}

// fingerprint binds a principal ID to one encoded key of one type; the
// separators prevent ambiguity between the three fields.
func fingerprint(keyType, id, encodedKey string) [sha256.Size]byte {
	h := sha256.New()
	h.Write([]byte(keyType))
	h.Write([]byte{0})
	h.Write([]byte(id))
	h.Write([]byte{0})
	h.Write([]byte(encodedKey))
	var out [sha256.Size]byte
	h.Sum(out[:0])
	return out
}

// resolveCertificate parses all key material out of cert.
func resolveCertificate(cert *Certificate) (*ResolvedKey, error) {
	id := cert.Subject.ID
	rsaPub, err := cert.RSAPublicKey()
	if err != nil {
		return nil, fmt.Errorf("pki: principal %s: %w", id, err)
	}
	rk := &ResolvedKey{
		ID:             id,
		Serial:         cert.Serial,
		RSA:            rsaPub,
		RSAFingerprint: fingerprint(KeyRSA, id, cert.PublicKey),
		OAEPLabel:      []byte(id),
	}
	if cert.EdPublicKey != "" {
		edPub, err := cert.Ed25519PublicKey()
		if err != nil {
			return nil, fmt.Errorf("pki: principal %s: %w", id, err)
		}
		rk.Ed = edPub
		rk.EdFingerprint = fingerprint(KeyEd25519, id, cert.EdPublicKey)
	}
	return rk, nil
}

// ResolvedKey returns the cached parsed key material for id, building and
// memoizing it on first use. Lookup misses return ErrUnknownPrincipal;
// undecodable key material returns ErrMalformedKey.
func (r *Registry) ResolvedKey(id string) (*ResolvedKey, error) {
	r.mu.RLock()
	rk := r.resolved[id]
	r.mu.RUnlock()
	if rk != nil {
		return rk, nil
	}
	cert, err := r.Certificate(id)
	if err != nil {
		return nil, err
	}
	rk, err = resolveCertificate(cert)
	if err != nil {
		return nil, err
	}
	r.mu.Lock()
	// Publish only if the certificate on file is still the one we parsed;
	// a concurrent Register/Revoke wins over this stale resolution.
	// The key is the certificate's own ID string: id may be a substring
	// of a parsed document, which the cache must not keep alive.
	if cur, ok := r.entries[id]; ok && !r.revoked[id] && cur == cert {
		r.resolved[cert.Subject.ID] = rk
	}
	r.mu.Unlock()
	return rk, nil
}

// SuiteKey resolves a principal to the public key and fingerprint for the
// requested key type. It is the resolver entry point signature suites use
// (dsig.SuiteKeyResolver).
func (r *Registry) SuiteKey(id, keyType string) (crypto.PublicKey, [sha256.Size]byte, error) {
	rk, err := r.ResolvedKey(id)
	if err != nil {
		return nil, [sha256.Size]byte{}, err
	}
	return rk.Key(keyType)
}
