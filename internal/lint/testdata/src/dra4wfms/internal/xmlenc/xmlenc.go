// Package xmlenc is a fixture stub mirroring the real module's encryption
// API surface for analyzer tests.
package xmlenc

// Encrypt mirrors xmlenc.Encrypt.
func Encrypt(plain []byte) ([]byte, error) { return plain, nil }

// Decrypt mirrors xmlenc.Decrypt.
func Decrypt(cipher []byte) ([]byte, error) { return cipher, nil }

// DecryptVisible mirrors xmlenc.DecryptVisible: (count, error).
func DecryptVisible(doc any) (int, error) { return 0, nil }

// Opener mirrors xmlenc.Opener, whose methods decrypt with a remembered
// content key.
type Opener struct{}

// Decrypt mirrors (*xmlenc.Opener).Decrypt.
func (o *Opener) Decrypt(cipher []byte) ([]byte, error) { return cipher, nil }

// DecryptVisible mirrors (*xmlenc.Opener).DecryptVisible: (count, error).
func (o *Opener) DecryptVisible(doc any) (int, error) { return 0, nil }
