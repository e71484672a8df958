// Package secpol applies a workflow definition's security policy to
// process-instance data: it resolves the per-variable reader lists to
// registered public keys and produces element-wise encrypted fields. Both
// the AEA (basic operational model) and the TFC server (advanced model)
// perform this step, so it lives in its own package.
package secpol

import (
	"fmt"
	"sort"

	"dra4wfms/internal/document"
	"dra4wfms/internal/expr"
	"dra4wfms/internal/pki"
	"dra4wfms/internal/wfdef"
	"dra4wfms/internal/xmlenc"
	"dra4wfms/internal/xmltree"
)

// Recipients resolves the reader list of variable to encryption recipients.
// Reader resolution — including the wfdef.TFCReader pseudo-principal
// mapping to the definition's TFC server — is delegated to
// wfdef.ResolvedReaders, the same source of truth the static IFC lint
// reasons over, so the set a value is encrypted for and the set the lint
// proves it can reach never drift apart. Unregistered readers are an
// error: encrypting to an unknown key would make the value unrecoverable
// or, worse, silently skip a reader.
func Recipients(def *wfdef.Definition, reg *pki.Registry, variable string) ([]xmlenc.Recipient, error) {
	readers, err := def.ResolvedReaders(variable)
	if err != nil {
		return nil, fmt.Errorf("secpol: %w", err)
	}
	if len(readers) == 0 {
		return nil, fmt.Errorf("secpol: variable %q has no readers (neither a rule nor default readers)", variable)
	}
	var out []xmlenc.Recipient
	for _, id := range readers {
		rk, err := reg.ResolvedKey(id)
		if err != nil {
			return nil, fmt.Errorf("secpol: reader %q of variable %q: %w", id, variable, err)
		}
		out = append(out, xmlenc.Recipient{ID: id, Key: rk.RSA, Label: rk.OAEPLabel})
	}
	return out, nil
}

// EncryptFields turns a (variable → value) result into element-wise
// encrypted Field elements per the definition's policy, in sorted variable
// order for deterministic documents. Each EncryptedData element carries a
// Variable attribute so readers can locate their fields without trial
// decryption (the value, not the variable name, is confidential). The
// fields are sealed through the writer's sealer, scoped to the process
// instance; a nil sealer draws a fresh content key per field.
func EncryptFields(sealer *xmlenc.Sealer, processID string, def *wfdef.Definition, reg *pki.Registry, activity string, iter int, values map[string]string) ([]*xmltree.Node, error) {
	vars := make([]string, 0, len(values))
	for v := range values {
		vars = append(vars, v)
	}
	sort.Strings(vars)
	var out []*xmltree.Node
	for i, v := range vars {
		recips, err := Recipients(def, reg, v)
		if err != nil {
			return nil, err
		}
		field := document.Field(v, values[v])
		encID := fmt.Sprintf("encf-%s-%d-%d", activity, iter, i)
		enc, err := sealer.Encrypt(processID, field, encID, recips...)
		if err != nil {
			return nil, err
		}
		enc.SetAttr("Variable", v)
		out = append(out, enc)
	}
	return out, nil
}

// Env builds an expression-evaluation environment from visible variable
// values, re-typing stored text via expr.FromText.
func Env(values map[string]string) expr.MapEnv {
	env := expr.MapEnv{}
	for k, v := range values {
		env[k] = expr.FromText(v)
	}
	return env
}
