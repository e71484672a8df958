// Package xmlenc implements element-wise XML encryption over xmltree
// documents, mirroring the W3C XML-Encryption structure the paper's
// prototype used via Apache Santuario.
//
// Element-wise ("element-level") encryption is the paper's confidentiality
// mechanism: instead of encrypting a whole workflow document, each sensitive
// element is replaced, in place, by an EncryptedData element that only the
// intended readers can open. One element may be readable by several
// principals — the content is encrypted once under an AES-256-GCM
// content-encryption key (CEK) with a fresh random nonce, and the CEK is
// wrapped separately to every recipient with RSA-OAEP:
//
//	<EncryptedData Id="enc-X">
//	  <EncryptionMethod Algorithm="aes-256-gcm"></EncryptionMethod>
//	  <KeyInfo>
//	    <EncryptedKey Recipient="amy@corp">
//	      <EncryptionMethod Algorithm="rsa-oaep-sha256"></EncryptionMethod>
//	      <CipherValue>…</CipherValue>
//	    </EncryptedKey>
//	  </KeyInfo>
//	  <CipherData><CipherValue>nonce‖ciphertext</CipherValue></CipherData>
//	</EncryptedData>
//
// Encrypt draws a fresh CEK for every element. A Sealer, held by one
// writer, reuses one CEK and its wrapped copies for every element it seals
// for the same scope (a process instance) and reader set, so the readers'
// Openers unwrap it once; the element format is the same either way.
//
// The plaintext is the canonical serialization of the replaced element, so
// decryption reconstructs the exact subtree.
package xmlenc

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/rand"
	"crypto/rsa"
	"crypto/sha256"
	"encoding/base64"
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"dra4wfms/internal/pki"
	"dra4wfms/internal/telemetry"
	"dra4wfms/internal/xmltree"
)

// Runtime telemetry: operation and plaintext-byte counters for the
// element-wise encryption hot path.
var (
	mEncryptOps   = telemetry.Default().Counter("xmlenc_encrypt_ops_total")
	mEncryptBytes = telemetry.Default().Counter("xmlenc_encrypt_bytes_total")
	mDecryptOps   = telemetry.Default().Counter("xmlenc_decrypt_ops_total")
	mDecryptBytes = telemetry.Default().Counter("xmlenc_decrypt_bytes_total")
	// mWraps counts RSA-OAEP public operations (CEK wraps) performed;
	// mUnwraps counts RSA-OAEP private operations actually performed;
	// mUnwrapHits counts CEKs an Opener reused instead.
	mWraps      = telemetry.Default().Counter("xmlenc_wraps_total")
	mUnwraps    = telemetry.Default().Counter("xmlenc_unwraps_total")
	mUnwrapHits = telemetry.Default().Counter("xmlenc_unwrap_memo_hits_total")
)

// Algorithm identifiers recorded in encrypted elements.
const (
	DataAlg = "aes-256-gcm"
	KeyAlg  = "rsa-oaep-sha256"
)

// Element names of the encryption structure.
const (
	EncryptedDataElem = "EncryptedData"
	encryptedKeyElem  = "EncryptedKey"
	encMethodElem     = "EncryptionMethod"
	keyInfoElem       = "KeyInfo"
	cipherDataElem    = "CipherData"
	cipherValueElem   = "CipherValue"
)

// Recipient names one principal allowed to decrypt an element.
type Recipient struct {
	// ID is the principal identifier recorded on the EncryptedKey.
	ID string
	// Key is the principal's RSA public key used to wrap the CEK.
	Key *rsa.PublicKey
	// Label optionally carries the precomputed OAEP label bytes (the
	// recipient ID); nil derives them from ID. pki.ResolvedKey supplies
	// this so hot-path encryption avoids the per-wrap conversion.
	Label []byte
}

// label returns the OAEP label bytes for the recipient.
func (r Recipient) label() []byte {
	if r.Label != nil {
		return r.Label
	}
	return []byte(r.ID)
}

// ErrNotRecipient is returned by Decrypt when the supplied key pair's owner
// has no EncryptedKey entry.
var ErrNotRecipient = errors.New("xmlenc: principal is not a recipient of this element")

// ErrCorrupt is returned when ciphertext or key material fails to decode or
// authenticate. With AES-GCM any post-encryption modification of the cipher
// value is detected here.
var ErrCorrupt = errors.New("xmlenc: ciphertext corrupt or tampered")

// Encrypt encrypts element el for the given recipients under a fresh
// CEK and returns the EncryptedData element. el itself is not modified or
// detached; use EncryptInPlace to substitute within a document. The
// EncryptedData carries the given id in its Id attribute when non-empty
// (so signatures can reference it).
func Encrypt(el *xmltree.Node, id string, recipients ...Recipient) (*xmltree.Node, error) {
	return (*Sealer)(nil).Encrypt("", el, id, recipients...)
}

// Sealer encrypts for one writer and reuses content keys. For each scope
// (the process instance) and reader set — the sorted recipient IDs with
// their OAEP labels and public keys — it keeps one CEK and the
// EncryptedKey values that wrap it, so every element it seals for the same
// readers in the same instance carries the same wrapped bytes and each
// reader's Opener unwraps the CEK once. A different scope, a different
// reader set or a re-registered key gets a fresh CEK. Every element still
// gets its own random GCM nonce; a CEK is replaced after sealReuseCap
// elements. The memo holds at most two generations of memoGeneration
// entries. A Sealer is safe for concurrent use, and its zero value is
// ready.
type Sealer struct {
	memo twoGen[*sealedKey]
}

// sealReuseCap is the number of elements sealed under one memoized CEK
// before the Sealer draws a new one: far below the 2^32 random 96-bit
// nonces after which AES-GCM's nonce-collision bound no longer holds.
var sealReuseCap int64 = 1 << 20

// sealedKey is one CEK and its wrapped copies, base64-encoded, in sorted
// recipient order; uses counts the elements sealed under it.
type sealedKey struct {
	cek     [32]byte
	wrapped []string
	uses    atomic.Int64
}

// Encrypt is xmlenc.Encrypt reusing the CEK this sealer holds for scope
// and the recipients. A nil Sealer is the cold path: a fresh CEK per call.
func (s *Sealer) Encrypt(scope string, el *xmltree.Node, id string, recipients ...Recipient) (*xmltree.Node, error) {
	if len(recipients) == 0 {
		return nil, errors.New("xmlenc: at least one recipient required")
	}
	// Deterministic recipient order keeps document bytes reproducible.
	sorted := make([]Recipient, 0, len(recipients))
	for _, r := range recipients {
		if !slices.ContainsFunc(sorted, func(q Recipient) bool { return q.ID == r.ID }) {
			sorted = append(sorted, r)
		}
	}
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].ID < sorted[j].ID })
	for _, r := range sorted {
		if r.Key == nil {
			return nil, fmt.Errorf("xmlenc: recipient %q has no public key", r.ID)
		}
	}
	key, err := s.key(scope, sorted)
	if err != nil {
		return nil, err
	}
	plaintext := el.Canonical()
	block, err := aes.NewCipher(key.cek[:])
	if err != nil {
		return nil, fmt.Errorf("xmlenc: %w", err)
	}
	gcm, err := cipher.NewGCM(block)
	if err != nil {
		return nil, fmt.Errorf("xmlenc: %w", err)
	}
	nonce := make([]byte, gcm.NonceSize())
	if _, err := rand.Read(nonce); err != nil {
		return nil, fmt.Errorf("xmlenc: generating nonce: %w", err)
	}
	cipherValue := gcm.Seal(nonce, nonce, plaintext, nil)
	if s == nil {
		// The cold path keeps no copy of its CEK. This clears only the
		// bytes held here, not the cipher's expanded key schedule, which
		// the garbage collector frees without clearing.
		key.cek = [32]byte{}
	}

	enc := xmltree.NewElement(EncryptedDataElem)
	if id != "" {
		enc.SetAttr("Id", id)
	}
	enc.Elem(encMethodElem, "").SetAttr("Algorithm", DataAlg)
	keyInfo := xmltree.NewElement(keyInfoElem)
	for i, r := range sorted {
		ek := xmltree.NewElement(encryptedKeyElem)
		ek.SetAttr("Recipient", r.ID)
		ek.Elem(encMethodElem, "").SetAttr("Algorithm", KeyAlg)
		ek.Elem(cipherValueElem, key.wrapped[i])
		keyInfo.AppendChild(ek)
	}
	enc.AppendChild(keyInfo)
	cd := xmltree.NewElement(cipherDataElem)
	cd.Elem(cipherValueElem, base64.StdEncoding.EncodeToString(cipherValue))
	enc.AppendChild(cd)

	mEncryptOps.Inc()
	mEncryptBytes.Add(int64(len(plaintext)))
	return enc, nil
}

// key returns the CEK to seal under for scope and the sorted, distinct
// recipients: the remembered one while it is under its reuse cap,
// otherwise a fresh CEK wrapped to every recipient (and, with a non-nil
// s, remembered).
func (s *Sealer) key(scope string, sorted []Recipient) (*sealedKey, error) {
	var memoKey [sha256.Size]byte
	if s != nil {
		memoKey = sealScope(scope, sorted)
		if k, ok := s.memo.get(memoKey); ok && k.uses.Add(1) <= sealReuseCap {
			return k, nil
		}
	}
	k := &sealedKey{wrapped: make([]string, len(sorted))}
	if _, err := rand.Read(k.cek[:]); err != nil {
		return nil, fmt.Errorf("xmlenc: generating CEK: %w", err)
	}
	for i, r := range sorted {
		wrapped, err := rsa.EncryptOAEP(sha256.New(), rand.Reader, r.Key, k.cek[:], r.label())
		if err != nil {
			return nil, fmt.Errorf("xmlenc: wrapping CEK for %s: %w", r.ID, err)
		}
		mWraps.Inc()
		k.wrapped[i] = base64.StdEncoding.EncodeToString(wrapped)
	}
	if s != nil {
		k.uses.Store(1)
		s.memo.put(memoKey, k)
	}
	return k, nil
}

// sealScope is the Sealer's memo key: SHA-256 over the scope and, for each
// recipient in order, its ID, OAEP label and RSA public key, every field
// length-prefixed so no two inputs share an encoding. Hashing the key
// itself, like pki's RSA fingerprint hashes the registered key, makes a
// re-registered key a different reader set.
func sealScope(scope string, sorted []Recipient) [sha256.Size]byte {
	h := sha256.New()
	field := func(b []byte) {
		h.Write(binary.BigEndian.AppendUint32(nil, uint32(len(b))))
		h.Write(b)
	}
	field([]byte(scope))
	for _, r := range sorted {
		field([]byte(r.ID))
		field(r.label())
		field(r.Key.N.Bytes())
		field(binary.BigEndian.AppendUint64(nil, uint64(r.Key.E)))
	}
	var out [sha256.Size]byte
	h.Sum(out[:0])
	return out
}

// EncryptInPlace replaces child el of parent with its encrypted form and
// returns the EncryptedData element.
func EncryptInPlace(parent, el *xmltree.Node, id string, recipients ...Recipient) (*xmltree.Node, error) {
	enc, err := Encrypt(el, id, recipients...)
	if err != nil {
		return nil, err
	}
	if !parent.ReplaceChild(el, enc) {
		return nil, errors.New("xmlenc: element is not a child of parent")
	}
	return enc, nil
}

// IsEncrypted reports whether n is an EncryptedData element.
func IsEncrypted(n *xmltree.Node) bool {
	return n.IsElement() && n.Name == EncryptedDataElem
}

// Recipients lists the principal IDs that can decrypt enc, in document
// order (lexicographic, as written by Encrypt).
func Recipients(enc *xmltree.Node) []string {
	ki := enc.Child(keyInfoElem)
	if ki == nil {
		return nil
	}
	var ids []string
	for _, ek := range ki.ChildElements() {
		if ek.Name == encryptedKeyElem {
			ids = append(ids, ek.AttrDefault("Recipient", ""))
		}
	}
	return ids
}

// CanDecrypt reports whether the principal id is a recipient of enc.
func CanDecrypt(enc *xmltree.Node, id string) bool {
	for _, r := range Recipients(enc) {
		if r == id {
			return true
		}
	}
	return false
}

// Decrypt opens an EncryptedData element with the recipient's key pair and
// returns the reconstructed plaintext element. Every call pays the RSA
// unwrap; an Opener remembers unwrapped content keys instead.
func Decrypt(enc *xmltree.Node, key *pki.KeyPair) (*xmltree.Node, error) {
	return decrypt(enc, key, nil)
}

// decrypt is the one decryption routine: with a nil memo every call
// unwraps the CEK with RSA; with a memo a CEK this principal has already
// unwrapped from the same wrapped bytes is reused. Every structural and
// algorithm check, the AES-GCM authentication and the XML parse run on
// every call either way.
func decrypt(enc *xmltree.Node, key *pki.KeyPair, memo *cekMemo) (*xmltree.Node, error) {
	if !IsEncrypted(enc) {
		return nil, errors.New("xmlenc: not an EncryptedData element")
	}
	if alg := algorithmOf(enc); alg != DataAlg {
		return nil, fmt.Errorf("xmlenc: unsupported data algorithm %q", alg)
	}
	ki := enc.Child(keyInfoElem)
	if ki == nil {
		return nil, errors.New("xmlenc: EncryptedData has no KeyInfo")
	}
	var ek *xmltree.Node
	for _, c := range ki.ChildElements() {
		if c.Name == encryptedKeyElem && c.AttrDefault("Recipient", "") == key.Owner {
			ek = c
			break
		}
	}
	if ek == nil {
		return nil, fmt.Errorf("%w: %s", ErrNotRecipient, key.Owner)
	}
	if alg := algorithmOf(ek); alg != KeyAlg {
		return nil, fmt.Errorf("xmlenc: unsupported key algorithm %q", alg)
	}
	wrapped, err := base64.StdEncoding.DecodeString(ek.ChildText(cipherValueElem))
	if err != nil {
		return nil, fmt.Errorf("%w: bad EncryptedKey encoding", ErrCorrupt)
	}
	var memoKey [sha256.Size]byte
	var cek []byte
	if memo != nil {
		memoKey = sha256.Sum256(wrapped)
		if v, ok := memo.get(memoKey); ok {
			cek = v[:]
		}
	}
	hit := cek != nil
	if hit {
		mUnwrapHits.Inc()
	} else {
		mUnwraps.Inc()
		cek, err = rsa.DecryptOAEP(sha256.New(), rand.Reader, key.Private, wrapped, []byte(key.Owner))
		if err != nil {
			return nil, fmt.Errorf("%w: CEK unwrap failed", ErrCorrupt)
		}
	}

	cd := enc.Child(cipherDataElem)
	if cd == nil {
		return nil, errors.New("xmlenc: EncryptedData has no CipherData")
	}
	cipherValue, err := base64.StdEncoding.DecodeString(cd.ChildText(cipherValueElem))
	if err != nil {
		return nil, fmt.Errorf("%w: bad CipherValue encoding", ErrCorrupt)
	}
	block, err := aes.NewCipher(cek)
	if err != nil {
		return nil, fmt.Errorf("xmlenc: %w", err)
	}
	gcm, err := cipher.NewGCM(block)
	if err != nil {
		return nil, fmt.Errorf("xmlenc: %w", err)
	}
	if len(cipherValue) < gcm.NonceSize() {
		return nil, fmt.Errorf("%w: truncated cipher value", ErrCorrupt)
	}
	nonce, sealed := cipherValue[:gcm.NonceSize()], cipherValue[gcm.NonceSize():]
	plaintext, err := gcm.Open(nil, nonce, sealed, nil)
	if err != nil {
		return nil, fmt.Errorf("%w: authentication failed", ErrCorrupt)
	}
	el, err := xmltree.ParseBytes(plaintext)
	if err != nil {
		return nil, fmt.Errorf("xmlenc: decrypted payload is not well-formed XML: %w", err)
	}
	// Only AES-256 keys (the one data algorithm Encrypt writes) are
	// remembered; anything else is simply unwrapped again next time.
	if memo != nil && !hit && len(cek) == 32 {
		memo.put(memoKey, [32]byte(cek))
	}
	mDecryptOps.Inc()
	mDecryptBytes.Add(int64(len(plaintext)))
	return el, nil
}

// DecryptInPlace replaces EncryptedData child enc of parent with its
// decrypted plaintext element, returning the plaintext element.
func DecryptInPlace(parent, enc *xmltree.Node, key *pki.KeyPair) (*xmltree.Node, error) {
	el, err := Decrypt(enc, key)
	if err != nil {
		return nil, err
	}
	if !parent.ReplaceChild(enc, el) {
		return nil, errors.New("xmlenc: element is not a child of parent")
	}
	return el, nil
}

// DecryptVisible walks the subtree rooted at n and decrypts, in place,
// every EncryptedData element the key's owner is a recipient of. Elements
// for other readers are left intact. It returns the number of elements
// decrypted. It is the cold whole-document decrypt, paying an unwrap per
// element: offline tools and the differential tests use it, while the AEA
// and the TFC open only the elements they read (document.Lookup).
func DecryptVisible(n *xmltree.Node, key *pki.KeyPair) (int, error) {
	count := 0
	var rec func(parent *xmltree.Node) error
	rec = func(parent *xmltree.Node) error {
		for i := 0; i < len(parent.Children); i++ {
			c := parent.Children[i]
			if !c.IsElement() {
				continue
			}
			if IsEncrypted(c) && CanDecrypt(c, key.Owner) {
				el, err := Decrypt(c, key)
				if err != nil {
					return err
				}
				if !parent.ReplaceChild(c, el) {
					return errors.New("xmlenc: encrypted element detached during walk")
				}
				count++
				c = el
			}
			if err := rec(c); err != nil {
				return err
			}
		}
		return nil
	}
	if err := rec(n); err != nil {
		return 0, err
	}
	return count, nil
}

// Opener decrypts for one principal and unwraps each content key at most
// once. RSA-OAEP decryption is a deterministic function of the private
// key, the wrapped bytes and the label (the owner), so reusing a CEK
// unwrapped from the same wrapped bytes returns exactly what a fresh
// unwrap would; every other step of Decrypt — the recipient and algorithm
// checks, the AES-GCM authentication of the ciphertext and the XML parse
// — still runs on every call, and only keys whose element authenticated
// and parsed are remembered. The memo holds at most two generations of
// memoGeneration entries. An Opener is safe for concurrent use.
type Opener struct {
	key  *pki.KeyPair
	memo cekMemo
}

// NewOpener returns an Opener for key's owner with an empty memo.
func NewOpener(key *pki.KeyPair) *Opener {
	return &Opener{key: key}
}

// Decrypt is xmlenc.Decrypt with the opener's key, reusing remembered
// content keys.
func (o *Opener) Decrypt(enc *xmltree.Node) (*xmltree.Node, error) {
	return decrypt(enc, o.key, &o.memo)
}

// Owner returns the principal the opener decrypts for.
func (o *Opener) Owner() string { return o.key.Owner }

// memoGeneration is the capacity of one memo generation: when the current
// generation is full it replaces the previous one, so at most twice this
// many entries are held and the most recently used survive.
const memoGeneration = 4096

// twoGen is the bounded map behind the Opener's and the Sealer's memos,
// keyed by a SHA-256 digest.
type twoGen[V any] struct {
	mu       sync.Mutex
	cur, old map[[sha256.Size]byte]V
}

// get returns the value remembered under k. A hit in the previous
// generation is promoted to the current one.
func (m *twoGen[V]) get(k [sha256.Size]byte) (V, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	v, ok := m.cur[k]
	if !ok {
		if v, ok = m.old[k]; ok {
			m.putLocked(k, v)
		}
	}
	return v, ok
}

func (m *twoGen[V]) put(k [sha256.Size]byte, v V) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.putLocked(k, v)
}

func (m *twoGen[V]) putLocked(k [sha256.Size]byte, v V) {
	if len(m.cur) >= memoGeneration {
		m.old, m.cur = m.cur, nil
	}
	if m.cur == nil {
		m.cur = make(map[[sha256.Size]byte]V)
	}
	m.cur[k] = v
}

// cekMemo maps SHA-256 of a wrapped key to the CEK it unwrapped to.
type cekMemo struct{ twoGen[[32]byte] }

func algorithmOf(parent *xmltree.Node) string {
	if c := parent.Child(encMethodElem); c != nil {
		return c.AttrDefault("Algorithm", "")
	}
	return ""
}
