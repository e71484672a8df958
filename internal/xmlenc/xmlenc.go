// Package xmlenc implements element-wise XML encryption over xmltree
// documents, mirroring the W3C XML-Encryption structure the paper's
// prototype used via Apache Santuario.
//
// Element-wise ("element-level") encryption is the paper's confidentiality
// mechanism: instead of encrypting a whole workflow document, each sensitive
// element is replaced, in place, by an EncryptedData element that only the
// intended readers can open. One element may be readable by several
// principals — the content is encrypted once under a fresh AES-256-GCM
// content-encryption key (CEK), and the CEK is wrapped separately to every
// recipient with RSA-OAEP:
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
	"errors"
	"fmt"
	"sort"
	"sync"

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
	// mUnwraps counts RSA-OAEP private operations actually performed;
	// mUnwrapHits counts CEKs an Opener reused instead.
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

// Encrypt encrypts element el for the given recipients and returns the
// EncryptedData element. el itself is not modified or detached; use
// EncryptInPlace to substitute within a document. The EncryptedData carries
// the given id in its Id attribute when non-empty (so signatures can
// reference it).
func Encrypt(el *xmltree.Node, id string, recipients ...Recipient) (*xmltree.Node, error) {
	if len(recipients) == 0 {
		return nil, errors.New("xmlenc: at least one recipient required")
	}
	plaintext := el.Canonical()

	cek := make([]byte, 32)
	if _, err := rand.Read(cek); err != nil {
		return nil, fmt.Errorf("xmlenc: generating CEK: %w", err)
	}
	block, err := aes.NewCipher(cek)
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
	sealed := gcm.Seal(nil, nonce, plaintext, nil)
	cipherValue := append(nonce, sealed...)

	enc := xmltree.NewElement(EncryptedDataElem)
	if id != "" {
		enc.SetAttr("Id", id)
	}
	enc.Elem(encMethodElem, "").SetAttr("Algorithm", DataAlg)

	keyInfo := xmltree.NewElement(keyInfoElem)
	// Deterministic recipient order keeps document bytes reproducible.
	sorted := make([]Recipient, len(recipients))
	copy(sorted, recipients)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].ID < sorted[j].ID })
	seen := make(map[string]bool, len(sorted))
	for _, r := range sorted {
		if seen[r.ID] {
			continue
		}
		seen[r.ID] = true
		if r.Key == nil {
			return nil, fmt.Errorf("xmlenc: recipient %q has no public key", r.ID)
		}
		wrapped, err := rsa.EncryptOAEP(sha256.New(), rand.Reader, r.Key, cek, r.label())
		if err != nil {
			return nil, fmt.Errorf("xmlenc: wrapping CEK for %s: %w", r.ID, err)
		}
		ek := xmltree.NewElement(encryptedKeyElem)
		ek.SetAttr("Recipient", r.ID)
		ek.Elem(encMethodElem, "").SetAttr("Algorithm", KeyAlg)
		ek.Elem(cipherValueElem, base64.StdEncoding.EncodeToString(wrapped))
		keyInfo.AppendChild(ek)
	}
	enc.AppendChild(keyInfo)

	cd := xmltree.NewElement(cipherDataElem)
	cd.Elem(cipherValueElem, base64.StdEncoding.EncodeToString(cipherValue))
	enc.AppendChild(cd)

	// Zero the CEK copy we hold; recipients recover it via RSA only.
	for i := range cek {
		cek[i] = 0
	}
	mEncryptOps.Inc()
	mEncryptBytes.Add(int64(len(plaintext)))
	return enc, nil
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
		cek = memo.lookup(memoKey)
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
	if memo != nil && !hit {
		memo.remember(memoKey, cek)
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
// many CEKs are held and the most recently used survive.
const memoGeneration = 4096

// cekMemo maps SHA-256 of a wrapped key to the CEK it unwrapped to.
type cekMemo struct {
	mu       sync.Mutex
	cur, old map[[sha256.Size]byte][32]byte
}

// lookup returns a copy of the CEK remembered under k, or nil. A hit in
// the previous generation is promoted to the current one.
func (m *cekMemo) lookup(k [sha256.Size]byte) []byte {
	m.mu.Lock()
	defer m.mu.Unlock()
	v, ok := m.cur[k]
	if !ok {
		if v, ok = m.old[k]; !ok {
			return nil
		}
		m.putLocked(k, v)
	}
	return v[:]
}

// remember stores a copy of cek under k. Only AES-256 keys (the one data
// algorithm Encrypt writes) are kept; anything else is simply unwrapped
// again next time.
func (m *cekMemo) remember(k [sha256.Size]byte, cek []byte) {
	if len(cek) != 32 {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.putLocked(k, [32]byte(cek))
}

func (m *cekMemo) putLocked(k [sha256.Size]byte, v [32]byte) {
	if len(m.cur) >= memoGeneration {
		m.old, m.cur = m.cur, nil
	}
	if m.cur == nil {
		m.cur = make(map[[sha256.Size]byte][32]byte)
	}
	m.cur[k] = v
}

func algorithmOf(parent *xmltree.Node) string {
	if c := parent.Child(encMethodElem); c != nil {
		return c.AttrDefault("Algorithm", "")
	}
	return ""
}
