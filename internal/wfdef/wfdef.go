// Package wfdef models workflow process definitions: the static part of a
// DRA4WfMS document (the paper's "workflow definition section" and
// "security definition section" of Figure 8).
//
// A definition is a directed graph of activities with control-flow edges.
// Supported flow constructs match the paper's experimental workflows
// (Figure 9): sequence, AND-split / AND-join (parallel branches), XOR-split
// (conditional branch, the paper's OR-split) and loops (back edges).
//
// The security policy assigns, per process variable, the set of principals
// allowed to read it; this drives the element-wise encryption performed by
// AEAs (basic model) or the TFC server (advanced model). A definition may
// also declare that control-flow information is concealed from
// participants, which forces the advanced operational model: participants
// cannot evaluate branch conditions, so routing and policy encryption are
// delegated to the TFC (the Figure 4 scenario).
package wfdef

import (
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"

	"dra4wfms/internal/expr"
	"dra4wfms/internal/xmltree"
)

// Pseudo-activity IDs marking the process boundaries in transitions.
const (
	// StartID is the source of initial transitions.
	StartID = "__start__"
	// EndID is the target of terminating transitions.
	EndID = "__end__"
)

// TFCReader is the pseudo-principal naming the TFC server in read-policy
// rules; the TFC must be able to read variables appearing in concealed flow
// conditions.
const TFCReader = "__tfc__"

// SplitKind describes how control flow fans out of an activity with more
// than one outgoing transition.
type SplitKind string

const (
	// SplitNone: at most one outgoing transition.
	SplitNone SplitKind = ""
	// SplitAND: all outgoing transitions fire in parallel (AND-split).
	SplitAND SplitKind = "AND"
	// SplitXOR: exactly one outgoing transition fires, chosen by condition
	// (the paper's OR-split / conditional branch).
	SplitXOR SplitKind = "XOR"
)

// JoinKind describes how control flow fans into an activity with more than
// one incoming transition.
type JoinKind string

const (
	// JoinNone: at most one incoming transition.
	JoinNone JoinKind = ""
	// JoinAND: the activity waits for every incoming branch (AND-join) and
	// the routed documents are merged.
	JoinAND JoinKind = "AND"
	// JoinXOR: any single incoming branch enables the activity (used for
	// loop re-entry edges).
	JoinXOR JoinKind = "XOR"
)

// Request names a process variable shown to the activity's participant.
type Request struct {
	// Variable is the process variable to display.
	Variable string
}

// Response declares a process variable the activity's participant produces.
type Response struct {
	// Variable is the name under which the value is stored.
	Variable string
	// Type is a display hint: "string", "number", "bool" or "file".
	Type string
	// Required marks responses the participant must fill in.
	Required bool
}

// Activity is one logic step of the workflow (a node of the graph).
type Activity struct {
	// ID uniquely identifies the activity within the definition (e.g. "A1").
	ID string
	// Name is a human-readable title.
	Name string
	// Participant is the principal expected to execute the activity.
	Participant string
	// Role optionally constrains execution to principals holding the role.
	Role string
	// Requests are the variables shown to the participant.
	Requests []Request
	// Responses are the variables the participant produces.
	Responses []Response
	// Split declares the outgoing fan-out semantics.
	Split SplitKind
	// Join declares the incoming fan-in semantics.
	Join JoinKind
}

// Transition is one control-flow edge of the graph.
type Transition struct {
	// ID uniquely identifies the transition.
	ID string
	// From is the source activity ID, or StartID.
	From string
	// To is the target activity ID, or EndID.
	To string
	// Condition is an expr source guarding the edge; empty means
	// unconditional (or the default branch of an XOR-split).
	Condition string
	// Concealed marks a guarded edge whose condition text has been
	// removed from the participant-visible definition and vaulted,
	// element-wise encrypted, for the TFC server (the Figure 4
	// requirement that control-flow information not be revealed to
	// forwarding participants). A concealed transition behaves as
	// conditional for validation even though Condition is empty.
	Concealed bool
}

// Guarded reports whether the transition carries a condition, visible or
// concealed.
func (t Transition) Guarded() bool { return t.Condition != "" || t.Concealed }

// ReadRule grants read access on one variable.
type ReadRule struct {
	// Variable is the process variable the rule covers.
	Variable string
	// Readers are principal IDs permitted to decrypt the variable;
	// TFCReader names the TFC server.
	Readers []string
}

// TFCAssign routes one activity's advanced-model processing to a specific
// TFC server (the paper's Figure 6 deployment has several TFC servers).
type TFCAssign struct {
	// Activity is the activity whose documents go to this server.
	Activity string
	// TFC is the server's principal ID.
	TFC string
}

// SecurityPolicy is the definition's "security definition section".
type SecurityPolicy struct {
	// DefaultReaders can read any variable without a specific rule.
	DefaultReaders []string
	// Rules override DefaultReaders per variable.
	Rules []ReadRule
	// ConcealFlow hides control-flow information from participants; the
	// process must then run under the advanced operational model.
	ConcealFlow bool
	// TFC is the principal ID of the default timestamp-and-flow-control
	// server for the advanced model; empty means the basic model suffices.
	TFC string
	// TFCAssigns override the default TFC per activity (multi-TFC
	// deployments, Figure 6 of the paper).
	TFCAssigns []TFCAssign
}

// Definition is a complete workflow process definition.
type Definition struct {
	// Name identifies the workflow process type.
	Name string
	// Designer is the principal who authored (and signs) the definition.
	Designer string
	// Activities are the nodes of the control-flow graph.
	Activities []Activity
	// Transitions are the edges of the control-flow graph.
	Transitions []Transition
	// Policy is the security definition section.
	Policy SecurityPolicy
}

// Activity returns the activity with the given ID, or nil.
func (d *Definition) Activity(id string) *Activity {
	for i := range d.Activities {
		if d.Activities[i].ID == id {
			return &d.Activities[i]
		}
	}
	return nil
}

// Outgoing returns the transitions leaving the given activity (or StartID),
// in definition order.
func (d *Definition) Outgoing(from string) []Transition {
	var out []Transition
	for _, t := range d.Transitions {
		if t.From == from {
			out = append(out, t)
		}
	}
	return out
}

// Incoming returns the transitions entering the given activity (or EndID),
// in definition order.
func (d *Definition) Incoming(to string) []Transition {
	var out []Transition
	for _, t := range d.Transitions {
		if t.To == to {
			out = append(out, t)
		}
	}
	return out
}

// InitialActivities returns the IDs of activities entered from StartID.
func (d *Definition) InitialActivities() []string {
	var ids []string
	for _, t := range d.Outgoing(StartID) {
		ids = append(ids, t.To)
	}
	return ids
}

// Variables returns every process variable mentioned by any request or
// response, sorted.
func (d *Definition) Variables() []string {
	set := map[string]bool{}
	for _, a := range d.Activities {
		for _, r := range a.Requests {
			set[r.Variable] = true
		}
		for _, r := range a.Responses {
			set[r.Variable] = true
		}
	}
	vars := make([]string, 0, len(set))
	for v := range set {
		vars = append(vars, v)
	}
	sort.Strings(vars)
	return vars
}

// Readers returns the principal IDs allowed to read the given variable:
// the matching rule's readers if one exists, else the policy default. The
// variable's producer and display targets are NOT implicitly added; the
// designer must list every reader (the paper's Figure 4 policy is explicit
// about who may see X and Y).
func (d *Definition) Readers(variable string) []string {
	for _, r := range d.Policy.Rules {
		if r.Variable == variable {
			return r.Readers
		}
	}
	return d.Policy.DefaultReaders
}

// ResolvedReaders returns the concrete principal IDs able to decrypt the
// variable: Readers with the TFCReader pseudo-principal resolved to the
// definition's TFC server. Naming TFCReader in a definition without a TFC
// is an error — encrypting "for the TFC" with no TFC configured would
// silently drop a reader.
func (d *Definition) ResolvedReaders(variable string) ([]string, error) {
	readers := d.Readers(variable)
	out := make([]string, 0, len(readers))
	for _, r := range readers {
		if r == TFCReader {
			if d.Policy.TFC == "" {
				return nil, fmt.Errorf("wfdef: variable %q names the TFC reader but the definition has no TFC", variable)
			}
			r = d.Policy.TFC
		}
		out = append(out, r)
	}
	return out, nil
}

// TFCFor returns the TFC server responsible for the activity under the
// advanced model: its per-activity assignment if one exists, else the
// policy default ("" when the definition runs the basic model).
func (d *Definition) TFCFor(activityID string) string {
	for _, a := range d.Policy.TFCAssigns {
		if a.Activity == activityID {
			return a.TFC
		}
	}
	return d.Policy.TFC
}

// TFCs returns every distinct TFC principal the definition names, sorted.
func (d *Definition) TFCs() []string {
	set := map[string]bool{}
	if d.Policy.TFC != "" {
		set[d.Policy.TFC] = true
	}
	for _, a := range d.Policy.TFCAssigns {
		set[a.TFC] = true
	}
	out := make([]string, 0, len(set))
	for id := range set {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

// ConditionVariables returns the set of variables referenced by any
// transition condition, sorted. In the advanced model the TFC must be a
// reader of each.
func (d *Definition) ConditionVariables() ([]string, error) {
	set := map[string]bool{}
	for _, t := range d.Transitions {
		if t.Condition == "" {
			continue
		}
		vars, err := expr.VariablesOf(t.Condition)
		if err != nil {
			return nil, fmt.Errorf("wfdef: transition %s: %w", t.ID, err)
		}
		for _, v := range vars {
			set[v] = true
		}
	}
	vars := make([]string, 0, len(set))
	for v := range set {
		vars = append(vars, v)
	}
	sort.Strings(vars)
	return vars, nil
}

// Validate checks the structural well-formedness of the definition. It
// verifies ID uniqueness, edge endpoints, split/join declarations against
// actual fan-out/fan-in, condition syntax, reachability of every activity
// from the start, co-reachability of the end, and security-policy
// consistency (rules name known variables; concealed flow requires a TFC
// that can read every condition variable).
func (d *Definition) Validate() error {
	if d.Name == "" {
		return errors.New("wfdef: definition has no name")
	}
	if d.Designer == "" {
		return errors.New("wfdef: definition has no designer")
	}
	if len(d.Activities) == 0 {
		return errors.New("wfdef: definition has no activities")
	}

	ids := map[string]bool{}
	for _, a := range d.Activities {
		if a.ID == "" || a.ID == StartID || a.ID == EndID {
			return fmt.Errorf("wfdef: invalid activity ID %q", a.ID)
		}
		if ids[a.ID] {
			return fmt.Errorf("wfdef: duplicate activity ID %q", a.ID)
		}
		ids[a.ID] = true
		if a.Participant == "" && a.Role == "" {
			return fmt.Errorf("wfdef: activity %s has neither a participant nor a role", a.ID)
		}
		seenResp := map[string]bool{}
		for _, r := range a.Responses {
			if r.Variable == "" {
				return fmt.Errorf("wfdef: activity %s has a response with no variable", a.ID)
			}
			if seenResp[r.Variable] {
				return fmt.Errorf("wfdef: activity %s declares response %q twice", a.ID, r.Variable)
			}
			seenResp[r.Variable] = true
		}
	}

	tids := map[string]bool{}
	for _, t := range d.Transitions {
		if t.ID == "" {
			return errors.New("wfdef: transition with empty ID")
		}
		if tids[t.ID] {
			return fmt.Errorf("wfdef: duplicate transition ID %q", t.ID)
		}
		tids[t.ID] = true
		if t.From != StartID && !ids[t.From] {
			return fmt.Errorf("wfdef: transition %s from unknown activity %q", t.ID, t.From)
		}
		if t.To != EndID && !ids[t.To] {
			return fmt.Errorf("wfdef: transition %s to unknown activity %q", t.ID, t.To)
		}
		if t.From == StartID && t.To == EndID {
			return fmt.Errorf("wfdef: transition %s connects start directly to end", t.ID)
		}
		if t.Condition != "" {
			if _, err := expr.Parse(t.Condition); err != nil {
				return fmt.Errorf("wfdef: transition %s condition: %w", t.ID, err)
			}
		}
	}

	if len(d.Outgoing(StartID)) == 0 {
		return errors.New("wfdef: no initial transition from start")
	}
	if len(d.Incoming(EndID)) == 0 {
		return errors.New("wfdef: no terminating transition to end")
	}

	// Split/join declarations must match fan-out/fan-in.
	for _, a := range d.Activities {
		out := d.Outgoing(a.ID)
		if len(out) == 0 {
			return fmt.Errorf("wfdef: activity %s has no outgoing transition", a.ID)
		}
		switch a.Split {
		case SplitNone:
			if len(out) > 1 {
				return fmt.Errorf("wfdef: activity %s has %d outgoing transitions but no split kind", a.ID, len(out))
			}
		case SplitAND:
			if len(out) < 2 {
				return fmt.Errorf("wfdef: activity %s declares AND-split with %d outgoing transition(s)", a.ID, len(out))
			}
			for _, t := range out {
				if t.Guarded() {
					return fmt.Errorf("wfdef: AND-split transition %s must be unconditional", t.ID)
				}
			}
		case SplitXOR:
			if len(out) < 2 {
				return fmt.Errorf("wfdef: activity %s declares XOR-split with %d outgoing transition(s)", a.ID, len(out))
			}
			defaults := 0
			for _, t := range out {
				if !t.Guarded() {
					defaults++
				}
			}
			if defaults > 1 {
				return fmt.Errorf("wfdef: XOR-split at %s has %d default (unconditional) branches", a.ID, defaults)
			}
		default:
			return fmt.Errorf("wfdef: activity %s has unknown split kind %q", a.ID, a.Split)
		}

		in := d.Incoming(a.ID)
		switch a.Join {
		case JoinNone:
			if len(in) > 1 {
				return fmt.Errorf("wfdef: activity %s has %d incoming transitions but no join kind", a.ID, len(in))
			}
		case JoinAND, JoinXOR:
			if len(in) < 2 {
				return fmt.Errorf("wfdef: activity %s declares %s-join with %d incoming transition(s)", a.ID, a.Join, len(in))
			}
		default:
			return fmt.Errorf("wfdef: activity %s has unknown join kind %q", a.ID, a.Join)
		}
	}

	// Reachability from start.
	reached := map[string]bool{}
	frontier := d.InitialActivities()
	for len(frontier) > 0 {
		next := frontier[:0:0]
		for _, id := range frontier {
			if id == EndID || reached[id] {
				continue
			}
			reached[id] = true
			for _, t := range d.Outgoing(id) {
				next = append(next, t.To)
			}
		}
		frontier = next
	}
	for id := range ids {
		if !reached[id] {
			return fmt.Errorf("wfdef: activity %s is unreachable from start", id)
		}
	}
	// Co-reachability of end (reverse BFS).
	coreached := map[string]bool{}
	rev := []string{}
	for _, t := range d.Incoming(EndID) {
		rev = append(rev, t.From)
	}
	for len(rev) > 0 {
		next := rev[:0:0]
		for _, id := range rev {
			if id == StartID || coreached[id] {
				continue
			}
			coreached[id] = true
			for _, t := range d.Incoming(id) {
				next = append(next, t.From)
			}
		}
		rev = next
	}
	for id := range ids {
		if !coreached[id] {
			return fmt.Errorf("wfdef: no path from activity %s to end", id)
		}
	}

	// Security policy sanity.
	known := map[string]bool{}
	for _, v := range d.Variables() {
		known[v] = true
	}
	ruleSeen := map[string]bool{}
	for _, r := range d.Policy.Rules {
		if !known[r.Variable] {
			return fmt.Errorf("wfdef: policy rule for unknown variable %q", r.Variable)
		}
		if ruleSeen[r.Variable] {
			return fmt.Errorf("wfdef: duplicate policy rule for variable %q", r.Variable)
		}
		ruleSeen[r.Variable] = true
		if len(r.Readers) == 0 {
			return fmt.Errorf("wfdef: policy rule for %q grants no readers", r.Variable)
		}
	}
	seenAssign := map[string]bool{}
	for _, a := range d.Policy.TFCAssigns {
		if !ids[a.Activity] {
			return fmt.Errorf("wfdef: TFC assignment for unknown activity %q", a.Activity)
		}
		if a.TFC == "" {
			return fmt.Errorf("wfdef: empty TFC in assignment for activity %q", a.Activity)
		}
		if seenAssign[a.Activity] {
			return fmt.Errorf("wfdef: duplicate TFC assignment for activity %q", a.Activity)
		}
		seenAssign[a.Activity] = true
	}
	if len(d.Policy.TFCAssigns) > 0 && d.Policy.TFC == "" {
		return errors.New("wfdef: per-activity TFC assignments require a default TFC")
	}
	if d.Policy.ConcealFlow {
		if d.Policy.TFC == "" {
			return errors.New("wfdef: concealed flow requires a TFC server")
		}
		condVars, err := d.ConditionVariables()
		if err != nil {
			return err
		}
		for _, v := range condVars {
			if !readableBy(d.Readers(v), TFCReader) {
				return fmt.Errorf("wfdef: concealed flow condition uses variable %q that the TFC cannot read (add %s to its readers)", v, TFCReader)
			}
		}
	}
	return nil
}

func readableBy(readers []string, id string) bool {
	for _, r := range readers {
		if r == id {
			return true
		}
	}
	return false
}

// --- XML serialization -------------------------------------------------------

// ToXML serializes the definition into the DRA4WfMS "workflow definition
// section" element.
func (d *Definition) ToXML() *xmltree.Node {
	root := xmltree.NewElement("WorkflowDefinition")
	root.SetAttr("Name", d.Name)
	root.SetAttr("Designer", d.Designer)

	acts := xmltree.NewElement("Activities")
	for _, a := range d.Activities {
		ae := xmltree.NewElement("Activity")
		ae.SetAttr("Id", a.ID)
		if a.Name != "" {
			ae.SetAttr("Name", a.Name)
		}
		ae.SetAttr("Participant", a.Participant)
		if a.Role != "" {
			ae.SetAttr("Role", a.Role)
		}
		if a.Split != SplitNone {
			ae.SetAttr("Split", string(a.Split))
		}
		if a.Join != JoinNone {
			ae.SetAttr("Join", string(a.Join))
		}
		for _, r := range a.Requests {
			ae.Elem("Request", "").SetAttr("Variable", r.Variable)
		}
		for _, r := range a.Responses {
			re := ae.Elem("Response", "")
			re.SetAttr("Variable", r.Variable)
			if r.Type != "" {
				re.SetAttr("Type", r.Type)
			}
			if r.Required {
				re.SetAttr("Required", "true")
			}
		}
		acts.AppendChild(ae)
	}
	root.AppendChild(acts)

	trans := xmltree.NewElement("Transitions")
	for _, t := range d.Transitions {
		te := xmltree.NewElement("Transition")
		te.SetAttr("Id", t.ID)
		te.SetAttr("From", t.From)
		te.SetAttr("To", t.To)
		if t.Condition != "" {
			te.SetAttr("Condition", t.Condition)
		}
		if t.Concealed {
			te.SetAttr("Concealed", "true")
		}
		trans.AppendChild(te)
	}
	root.AppendChild(trans)

	pol := xmltree.NewElement("SecurityPolicy")
	if d.Policy.ConcealFlow {
		pol.SetAttr("ConcealFlow", "true")
	}
	if d.Policy.TFC != "" {
		pol.SetAttr("TFC", d.Policy.TFC)
	}
	for _, a := range d.Policy.TFCAssigns {
		ae := pol.Elem("TFCAssign", "")
		ae.SetAttr("Activity", a.Activity)
		ae.SetAttr("TFC", a.TFC)
	}
	if len(d.Policy.DefaultReaders) > 0 {
		def := xmltree.NewElement("DefaultReaders")
		for _, r := range d.Policy.DefaultReaders {
			def.Elem("Reader", r)
		}
		pol.AppendChild(def)
	}
	for _, rule := range d.Policy.Rules {
		re := xmltree.NewElement("Rule")
		re.SetAttr("Variable", rule.Variable)
		for _, r := range rule.Readers {
			re.Elem("Reader", r)
		}
		pol.AppendChild(re)
	}
	root.AppendChild(pol)
	return root
}

// FromXML reconstructs a definition from its XML element. The result is
// not automatically validated; call Validate. Its strings are copies, not
// substrings of the parsed document: a definition outlives the document
// it came from in worklist index cells, trace attributes and TFC records,
// and must not keep the whole input alive.
func FromXML(root *xmltree.Node) (*Definition, error) {
	attr := func(e *xmltree.Node, name string) string { return strings.Clone(e.AttrDefault(name, "")) }
	if root == nil || root.Name != "WorkflowDefinition" {
		return nil, errors.New("wfdef: not a WorkflowDefinition element")
	}
	d := &Definition{
		Name:     attr(root, "Name"),
		Designer: attr(root, "Designer"),
	}
	if acts := root.Child("Activities"); acts != nil {
		for _, ae := range acts.ChildElements() {
			if ae.Name != "Activity" {
				return nil, fmt.Errorf("wfdef: unexpected element %s in Activities", ae.Name)
			}
			a := Activity{
				ID:          attr(ae, "Id"),
				Name:        attr(ae, "Name"),
				Participant: attr(ae, "Participant"),
				Role:        attr(ae, "Role"),
				Split:       SplitKind(attr(ae, "Split")),
				Join:        JoinKind(attr(ae, "Join")),
			}
			for _, c := range ae.ChildElements() {
				switch c.Name {
				case "Request":
					a.Requests = append(a.Requests, Request{Variable: attr(c, "Variable")})
				case "Response":
					req, _ := strconv.ParseBool(c.AttrDefault("Required", "false"))
					a.Responses = append(a.Responses, Response{
						Variable: attr(c, "Variable"),
						Type:     attr(c, "Type"),
						Required: req,
					})
				default:
					return nil, fmt.Errorf("wfdef: unexpected element %s in Activity", c.Name)
				}
			}
			d.Activities = append(d.Activities, a)
		}
	}
	if trans := root.Child("Transitions"); trans != nil {
		for _, te := range trans.ChildElements() {
			if te.Name != "Transition" {
				return nil, fmt.Errorf("wfdef: unexpected element %s in Transitions", te.Name)
			}
			d.Transitions = append(d.Transitions, Transition{
				ID:        attr(te, "Id"),
				From:      attr(te, "From"),
				To:        attr(te, "To"),
				Condition: attr(te, "Condition"),
				Concealed: te.AttrDefault("Concealed", "") == "true",
			})
		}
	}
	if pol := root.Child("SecurityPolicy"); pol != nil {
		d.Policy.ConcealFlow = pol.AttrDefault("ConcealFlow", "") == "true"
		d.Policy.TFC = attr(pol, "TFC")
		if def := pol.Child("DefaultReaders"); def != nil {
			for _, r := range def.ChildElements() {
				d.Policy.DefaultReaders = append(d.Policy.DefaultReaders, r.TextContent())
			}
		}
		for _, re := range pol.ChildElements() {
			switch re.Name {
			case "Rule":
				rule := ReadRule{Variable: attr(re, "Variable")}
				for _, r := range re.ChildElements() {
					rule.Readers = append(rule.Readers, r.TextContent())
				}
				d.Policy.Rules = append(d.Policy.Rules, rule)
			case "TFCAssign":
				d.Policy.TFCAssigns = append(d.Policy.TFCAssigns, TFCAssign{
					Activity: attr(re, "Activity"),
					TFC:      attr(re, "TFC"),
				})
			}
		}
	}
	return d, nil
}

// Summary returns a one-line description of the definition for logs.
func (d *Definition) Summary() string {
	return fmt.Sprintf("%s (%d activities, %d transitions, designer %s)",
		d.Name, len(d.Activities), len(d.Transitions), d.Designer)
}

// ParticipantOf returns the participant assigned to the activity, or an
// error for unknown activities. Role-based activities (no fixed
// participant) return "" — use the activity's Role to find candidates.
func (d *Definition) ParticipantOf(activityID string) (string, error) {
	a := d.Activity(activityID)
	if a == nil {
		return "", fmt.Errorf("wfdef: unknown activity %q", activityID)
	}
	return a.Participant, nil
}

// String implements fmt.Stringer with a multi-line graph rendering, useful
// in CLI output and examples.
func (d *Definition) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "workflow %q by %s\n", d.Name, d.Designer)
	for _, a := range d.Activities {
		fmt.Fprintf(&b, "  [%s] %s (participant %s", a.ID, a.Name, a.Participant)
		if a.Split != SplitNone {
			fmt.Fprintf(&b, ", split %s", a.Split)
		}
		if a.Join != JoinNone {
			fmt.Fprintf(&b, ", join %s", a.Join)
		}
		b.WriteString(")\n")
	}
	for _, t := range d.Transitions {
		fmt.Fprintf(&b, "  %s -> %s", t.From, t.To)
		if t.Condition != "" {
			fmt.Fprintf(&b, " when %s", t.Condition)
		}
		if t.Concealed {
			b.WriteString(" when <concealed>")
		}
		b.WriteString("\n")
	}
	return b.String()
}
