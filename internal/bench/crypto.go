package bench

import (
	"crypto/rsa"
	"fmt"
	"time"

	"dra4wfms/internal/aea"
	"dra4wfms/internal/document"
	"dra4wfms/internal/dsig"
	"dra4wfms/internal/pki"
	"dra4wfms/internal/testenv"
	"dra4wfms/internal/wfdef"
)

// Crypto-throughput experiment: how fast can one verifying tier turn
// around a Figure 9A hop document under each signature suite, before and
// after the crypto amortizations (shared verify pool, per-principal
// resolved-key cache, verified-prefix cache, pooled canonicalization)?
//
// A "hop" is what a portal or AEA pays per routed document: verify the
// full signature cascade (α) plus produce the next CER signature (β).
// Three configurations are measured per suite:
//
//   - seed: the pre-optimization path — serial verification, no
//     verified-prefix cache, and a cache-less resolver that re-fetches the
//     certificate, re-verifies the CA signature and re-parses the PKIX key
//     on every lookup. RSA only (the seed had a single hard-wired suite).
//   - cold: the optimized stack on a document this tier has never seen —
//     shared verify pool, resolved-key cache warm, prefix cache empty.
//   - warm: the steady state — the tier verified the document's earlier
//     hops, so the prefix cache covers every predecessor signature.

// CryptoRow is one suite × configuration measurement.
type CryptoRow struct {
	// Suite is the dsig algorithm identifier (e.g. "rsa-sha256").
	Suite string `json:"suite"`
	// Mode is "seed", "cold" or "warm".
	Mode string `json:"mode"`
	// Sigs is the number of signatures in the measured hop document.
	Sigs int `json:"sigs"`
	// Verify is the α half: verifying the full cascade.
	Verify time.Duration `json:"verify"`
	// Sign is the β half: producing one new CER signature.
	Sign time.Duration `json:"sign"`
	// Hop is Verify + Sign — the per-document turnaround cost.
	Hop time.Duration `json:"hop"`
}

// DocsPerSecond is the hop throughput of the row's configuration.
func (r CryptoRow) DocsPerSecond() float64 {
	if r.Hop <= 0 {
		return 0
	}
	return float64(time.Second) / float64(r.Hop)
}

// seedResolver re-does, on every lookup, everything the per-principal
// resolved-key cache amortizes: fetch the certificate, re-verify the CA
// signature over it, and re-parse the PKIX key material — the cache-less
// path a verifying tier paid before internal/pki memoized it.
type seedResolver struct {
	reg *pki.Registry
	ca  *pki.CA
	at  time.Time
}

func (r seedResolver) PublicKey(id string) (*rsa.PublicKey, error) {
	cert, err := r.reg.Certificate(id)
	if err != nil {
		return nil, err
	}
	if err := r.ca.VerifyCertificate(cert, r.at); err != nil {
		return nil, err
	}
	return cert.RSAPublicKey()
}

// runFig9 executes the two-pass Figure 9A workflow (reject, then accept)
// with every AEA signing under suite, and returns the final document —
// the deepest cascade of the run (10 CERs + the designer signature).
func runFig9(env *testenv.Env, suite dsig.Suite) (*document.Document, error) {
	def := wfdef.Fig9A()
	agents := map[string]*aea.AEA{}
	for act, p := range wfdef.Fig9Participants {
		a := aea.New(env.KeyOf(p), env.Registry)
		a.Suite = suite
		agents[act] = a
	}
	initial, err := document.New(def, env.KeyOf("designer@acme"), testenv.ProcessID(), time.Now())
	if err != nil {
		return nil, err
	}
	inbox := map[string]*document.Document{"A": initial}
	var final *document.Document
	for _, s := range fig9Steps() {
		doc := inbox[s.act]
		if doc == nil {
			return nil, fmt.Errorf("bench: no document for %s#%d", s.act, s.iter)
		}
		out, err := agents[s.act].Execute(doc, s.act, s.inputs, time.Now())
		if err != nil {
			return nil, fmt.Errorf("bench: execute %s#%d: %w", s.act, s.iter, err)
		}
		if out.Completed {
			final = out.Doc
			break
		}
		if err := deliver(inbox, s.act, out.Next, out.Doc); err != nil {
			return nil, err
		}
	}
	if final == nil {
		return nil, fmt.Errorf("bench: Figure 9A run did not complete")
	}
	return final, nil
}

// RunCrypto measures the crypto-throughput rows for every registered
// suite. All configurations verify the same parsed document, so canonical
// memos are shared and the comparison isolates signature, resolver and
// prefix-cache cost.
func RunCrypto(bits, reps int) ([]CryptoRow, error) {
	if reps < 1 {
		reps = 1
	}
	env := testenv.Fig9(bits)

	var rows []CryptoRow
	for _, alg := range []string{dsig.SignatureAlg, dsig.SignatureAlgEd25519} {
		suite, ok := dsig.SuiteFor(alg)
		if !ok {
			return nil, fmt.Errorf("bench: suite %q not registered", alg)
		}
		doc, err := runFig9(env, suite)
		if err != nil {
			return nil, err
		}
		signer := env.KeyOf(wfdef.Fig9Participants["D"])
		sigs := 0

		// β: the suite's signature over a fresh SignedInfo against the
		// document (the Sign node is built but not attached, so reps are
		// independent). Identical for every mode of the suite.
		sign, err := timeMedian(1, reps, func() error {
			_, err := dsig.SignWith(suite, doc.Root, []string{document.HeaderID}, signer, "bench-sig")
			return err
		})
		if err != nil {
			return nil, err
		}

		if alg == dsig.SignatureAlg {
			// The seed resolver is RSA-only, like the seed itself.
			resolver := seedResolver{reg: env.Registry, ca: env.CA, at: env.Now}
			seedVerify, err := timeMedian(1, reps, func() error {
				v := &dsig.Verifier{Workers: 1}
				var verr error
				sigs, verr = doc.VerifyAllWith(v, resolver)
				return verr
			})
			if err != nil {
				return nil, err
			}
			rows = append(rows, CryptoRow{
				Suite: alg, Mode: "seed", Sigs: sigs,
				Verify: seedVerify, Sign: sign, Hop: seedVerify + sign,
			})
		}

		coldVerify, err := timeMedian(1, reps, func() error {
			// A fresh cache per rep keeps every rep cold.
			v := &dsig.Verifier{Cache: dsig.NewCache(dsig.DefaultCacheSize)}
			var verr error
			sigs, verr = doc.VerifyAllWith(v, env.Registry)
			return verr
		})
		if err != nil {
			return nil, err
		}
		rows = append(rows, CryptoRow{
			Suite: alg, Mode: "cold", Sigs: sigs,
			Verify: coldVerify, Sign: sign, Hop: coldVerify + sign,
		})

		warm := &dsig.Verifier{Cache: dsig.NewCache(dsig.DefaultCacheSize)}
		warmVerify, err := timeMedian(1, reps, func() error {
			var verr error
			sigs, verr = doc.VerifyAllWith(warm, env.Registry)
			return verr
		})
		if err != nil {
			return nil, err
		}
		rows = append(rows, CryptoRow{
			Suite: alg, Mode: "warm", Sigs: sigs,
			Verify: warmVerify, Sign: sign, Hop: warmVerify + sign,
		})
	}
	return rows, nil
}
