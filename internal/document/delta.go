package document

import (
	"bytes"
	"errors"
	"fmt"

	"dra4wfms/internal/xmltree"
)

// A hop adds CERs to a stored instance and changes nothing else, so a
// store ships only what it adds: a Delta names the CERs appended and the
// Ids of the CERs they were built on. The portal checks the base against
// its row, refuses an Id it holds with other bytes, and verifies only
// what its row lacks (DESIGN §14).

var (
	// ErrEquivocation: two different CERs carry one Id. CER Ids derive
	// from (activity, iteration, kind), so two valid ones are one
	// activity's result signed twice; neither is kept in place of the
	// other.
	ErrEquivocation = errors.New("document: two different CERs carry one Id")
	// ErrUnknownBase: a delta was built on a CER the stored row does not
	// hold, so the row cannot tell what the sender's document was.
	ErrUnknownBase = errors.New("document: delta built on CERs the stored instance lacks")
)

// deltaElem is the root element of a delta's wire form.
const deltaElem = "Delta"

// Delta is what one store adds to a stored process instance. Its wire
// form (Bytes, ParseDelta) is
//
//	<Delta><Base>cer-A-0</Base>…<CER …>…</CER>…</Delta>
type Delta struct {
	// Base lists the Ids of the CERs the sender's document was built on,
	// all of which the stored row must hold.
	Base []string
	// CERs are the CERs the store appends, in document order.
	CERs []CER
}

// MarkRetrieved records that d is a stored row as a portal served it:
// every CER d holds now is in that row, and Delta ships only the CERs
// appended after this call. Fork keeps the mark and Clone drops it.
func (d *Document) MarkRetrieved() { d.marked, d.retrieved = true, len(d.CERs()) }

// KeepRetrieved carries from's retrieve mark over to d, a document another
// party built from from (the TFC's notarized reply to a submitted
// document). It does so only when d's leading CERs carry from's retrieved
// CER Ids in order, and reports whether it did.
func (d *Document) KeepRetrieved(from *Document) bool {
	base, cers := from.CERs(), d.CERs()
	if !from.marked || from.retrieved > len(base) || from.retrieved > len(cers) {
		return false
	}
	for i := range from.retrieved {
		if cers[i].ID() != base[i].ID() {
			return false
		}
	}
	d.marked, d.retrieved = true, from.retrieved
	return true
}

// Delta returns what d adds to the stored row it was retrieved as: the
// CERs after the retrieved ones and the Ids of those it was built on. ok
// is false for a document that does not remember a retrieve, which has to
// be stored whole.
func (d *Document) Delta() (delta Delta, ok bool) {
	cers := d.CERs()
	if !d.marked || d.retrieved > len(cers) {
		return Delta{}, false
	}
	delta.Base = make([]string, d.retrieved)
	for i, c := range cers[:d.retrieved] {
		delta.Base[i] = c.ID()
	}
	delta.CERs = cers[d.retrieved:]
	return delta, true
}

// Bytes returns the delta's canonical wire form.
func (x Delta) Bytes() []byte {
	root := xmltree.NewElement(deltaElem)
	for _, id := range x.Base {
		root.Elem("Base", id)
	}
	for _, c := range x.CERs {
		root.AppendChild(c.El)
	}
	return root.Canonical()
}

// ParseDelta decodes a delta's wire form. It parses b in place
// (xmltree.ParseOwned), so the caller hands b over and must not write to
// it again. Only Base elements, each holding one non-empty Id, and CER
// elements may appear under the Delta root.
func ParseDelta(b []byte) (Delta, error) {
	root, err := xmltree.ParseOwned(b)
	if err != nil {
		return Delta{}, err
	}
	if root.Name != deltaElem || len(root.Attrs) != 0 {
		return Delta{}, fmt.Errorf("document: delta root is <%s> with %d attributes, want a bare <%s>", root.Name, len(root.Attrs), deltaElem)
	}
	var x Delta
	for _, c := range root.Children {
		switch {
		case !c.IsElement():
			return Delta{}, errors.New("document: text directly inside a delta")
		case c.Name == "CER":
			x.CERs = append(x.CERs, CER{El: c})
		case c.Name == "Base" && len(c.Attrs) == 0 && len(c.Children) == 1 && c.Children[0].IsText() && c.Children[0].Text != "":
			x.Base = append(x.Base, c.Children[0].Text)
		default:
			return Delta{}, fmt.Errorf("document: unexpected <%s> in a delta", c.Name)
		}
	}
	return x, nil
}

// Diff returns those of cers whose Id d lacks, in order, after checking
// them against d. Every Id in base must be one of d's CERs
// (ErrUnknownBase). Every CER must carry an Id, and a CER whose Id d
// already carries must be byte for byte the CER d holds: two different
// CERs under one Id are refused with ErrEquivocation, never resolved by
// keeping either. A CER repeated in cers counts once.
func (d *Document) Diff(base []string, cers []CER) ([]CER, error) {
	held := map[string]*xmltree.Node{}
	for _, c := range d.CERs() {
		held[c.ID()] = c.El
	}
	for _, id := range base {
		if _, ok := held[id]; !ok {
			return nil, fmt.Errorf("%w: %q", ErrUnknownBase, id)
		}
	}
	var added []CER
	for _, c := range cers {
		id := c.ID()
		if id == "" {
			return nil, errors.New("document: CER without an Id")
		}
		if h, ok := held[id]; ok {
			if h != c.El && !bytes.Equal(h.Canonical(), c.El.Canonical()) {
				return nil, fmt.Errorf("%w: %q", ErrEquivocation, id)
			}
			continue
		}
		held[id] = c.El
		added = append(added, c)
	}
	return added, nil
}

// With returns a Fork of d with the CER elements of cers appended in
// order; d is unchanged and shares its elements with the result.
func (d *Document) With(cers []CER) *Document {
	out := d.Fork()
	out.appendCERs(cers)
	return out
}

// appendCERs appends the CER elements of cers to d's ActivityResults.
func (d *Document) appendCERs(cers []CER) {
	if len(cers) == 0 {
		return
	}
	res := d.resultsEl()
	for _, c := range cers {
		res.AppendChild(c.El)
	}
}
