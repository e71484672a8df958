package document

import (
	"errors"
	"fmt"

	"dra4wfms/internal/expr"
	"dra4wfms/internal/wfdef"
	"dra4wfms/internal/xmlenc"
	"dra4wfms/internal/xmltree"
)

// ErrUndeclaredVariable: a final CER's result carries a variable its
// activity does not declare as a response, or an encrypted element whose
// plaintext field names a different variable than its Variable label.
// Either way a participant (or the TFC) signed a value nobody asked for,
// and a later reader would take it for the process state.
var ErrUndeclaredVariable = errors.New("document: result carries an undeclared variable")

// CheckDeclared refuses a document whose final CERs carry a plaintext
// Field or an EncryptedData Variable label for a variable the CER's
// activity does not declare as a response. Labels are plaintext, so this
// needs no key; what an unlabelled element hides is checked when a
// Lookup opens it.
func CheckDeclared(def *wfdef.Definition, d *Document) error {
	for _, c := range d.FinalCERs() {
		res := c.Result()
		if res == nil {
			continue
		}
		act := def.Activity(c.ActivityID())
		var err error
		res.Walk(func(n *xmltree.Node) bool {
			v, labelled := n.Attr("Variable")
			if (n.Name == "Field" || labelled && xmlenc.IsEncrypted(n)) && !act.Produces(v) {
				err = fmt.Errorf("%w: %s carries %q", ErrUndeclaredVariable, c.ID(), v)
			}
			return err == nil
		})
		if err != nil {
			return err
		}
	}
	return nil
}

// Lookup answers "what is variable v now?" for one principal, decrypting
// only what the answer needs: it walks the final CERs from the last one
// back, skips CERs whose activity does not declare v as a response, and
// in each opens, through the principal's opener, only EncryptedData
// elements labelled Variable="v" (or unlabelled) that the principal is a
// recipient of. On a document that passes CheckDeclared the value equals
// what Values() returns for v on a copy fully decrypted with
// xmlenc.DecryptVisible. Answers are remembered, so a variable is opened
// at most once per Lookup. A Lookup is not safe for concurrent use.
type Lookup struct {
	doc    *Document
	def    *wfdef.Definition
	opener *xmlenc.Opener
	memo   map[string]lookupAnswer
	err    error

	// Decrypted counts the elements this lookup decrypted.
	Decrypted int
}

type lookupAnswer struct {
	value string
	ok    bool
}

// NewLookup returns a Lookup over d for the opener's principal; def is
// d's embedded definition.
func NewLookup(d *Document, def *wfdef.Definition, opener *xmlenc.Opener) *Lookup {
	return &Lookup{doc: d, def: def, opener: opener, memo: map[string]lookupAnswer{}}
}

// Value returns the current value of v visible to the principal, and
// whether there is one.
func (l *Lookup) Value(v string) (string, bool, error) {
	if a, ok := l.memo[v]; ok {
		return a.value, a.ok, nil
	}
	finals := l.doc.FinalCERs()
	for i := len(finals) - 1; i >= 0; i-- {
		c := finals[i]
		act := l.def.Activity(c.ActivityID())
		res := c.Result()
		if res == nil || !act.Produces(v) {
			continue
		}
		value, found, err := l.find(res, act, v, "")
		if err != nil {
			return "", false, fmt.Errorf("%s: %w", c.ID(), err)
		}
		if found {
			l.memo[v] = lookupAnswer{value, true}
			return value, true, nil
		}
	}
	l.memo[v] = lookupAnswer{}
	return "", false, nil
}

// Env is an expr.Env over the lookup that answers from fresh first: the
// routing environment of an activity whose just-produced values are not
// in the document yet. A lookup error makes the variable undefined and is
// kept for Err.
func (l *Lookup) Env(fresh map[string]string) expr.Env {
	return lookupEnv{l, fresh}
}

// Err returns the first error an Env lookup hit, or nil.
func (l *Lookup) Err() error { return l.err }

type lookupEnv struct {
	l     *Lookup
	fresh map[string]string
}

func (e lookupEnv) Lookup(name string) (expr.Value, bool) {
	v, ok := e.fresh[name]
	if !ok {
		var err error
		if v, ok, err = e.l.Value(name); err != nil && e.l.err == nil {
			e.l.err = err
		}
	}
	return expr.FromText(v), ok
}

// find returns the last Field for v under n, in document order, as the
// principal sees n once decrypted. label is the Variable label of the
// encrypted element n came from ("" outside one, or for an unlabelled
// one): a field inside must name it, and any field must be one act
// produces.
func (l *Lookup) find(n *xmltree.Node, act *wfdef.Activity, v, label string) (value string, found bool, err error) {
	for _, c := range n.Children {
		if !c.IsElement() {
			continue
		}
		cl := label
		if xmlenc.IsEncrypted(c) {
			cl = c.AttrDefault("Variable", label)
			if cl != "" && cl != v || !xmlenc.CanDecrypt(c, l.opener.Owner()) {
				continue
			}
			if c, err = l.opener.Decrypt(c); err != nil {
				return "", false, err
			}
			l.Decrypted++
		}
		if c.Name == "Field" {
			fv := c.AttrDefault("Variable", "")
			if cl != "" && fv != cl || !act.Produces(fv) {
				return "", false, fmt.Errorf("%w: field %q (label %q)", ErrUndeclaredVariable, fv, cl)
			}
			if fv == v {
				value, found = c.TextContent(), true
			}
		}
		inner, innerFound, err := l.find(c, act, v, cl)
		if err != nil {
			return "", false, err
		}
		if innerFound {
			value, found = inner, true
		}
	}
	return value, found, nil
}
