// Package portal implements the portal servers of the DRA4WfMS cloud
// system (Figure 7 of the paper). A portal authenticates users, serves
// them copies of DRA4WfMS documents from the document pool, accepts the
// documents their AEAs produce, and notifies the participants of the next
// activities. Portals hold no secret process data — documents are
// self-protecting — and several portals can serve the same pool
// concurrently, which is what makes the tier horizontally scalable.
//
// Pool layout (one table, three column families):
//
//	row key            = process id
//	doc:content        = canonical DRA4WfMS document bytes
//	meta:definition    = workflow definition name
//	meta:state         = "running" | "completed"
//	meta:cers          = number of final CERs (decimal)
//	meta:bytes         = len(doc:content) (decimal)
//	meta:updated       = time of the store (RFC 3339, nanoseconds)
//	idx:<assignee>     = <definition> NUL <enabled activities, comma-
//	                     separated> for a participant or "role:<role>"
//	                     (worklist index; cells written before the
//	                     definition rode along hold the activities only)
//
// Every store writes its row as one pool mutation, so the meta and idx
// cells always describe the doc:content beside them: a reader, a replica
// and a recovered data dir see a whole hop or none of it. Monitoring and
// worklists read the derived columns; only Retrieve ships the document.
package portal

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"dra4wfms/internal/document"
	"dra4wfms/internal/pki"
	"dra4wfms/internal/pool"
	"dra4wfms/internal/telemetry"
	"dra4wfms/internal/trace"
	"dra4wfms/internal/wfdef"
	"dra4wfms/internal/xmltree"
)

// Runtime telemetry: per-operation latency histograms and the
// notification fan-out counter. Portals are the paper's horizontally
// scaled tier, so their request latency is the first scalability signal.
var (
	tel            = telemetry.Default()
	mNotifications = tel.Counter("portal_notifications_total")
)

// Column families of the documents table.
var Families = []pool.FamilySpec{{Name: "doc"}, {Name: "meta"}, {Name: "idx"}}

// TableName is the pool table portals use.
const TableName = "dra4wfms_documents"

// CreateTable is pool.NewTable(TableName, Families...), a shim kept for
// benchmarks/system/replay.go, its only caller; it goes with pool.Cluster.
func CreateTable(*pool.Cluster) (*pool.Table, error) {
	return pool.NewTable(TableName, Families...)
}

// Errors.
var (
	// ErrUnknownProcess: no document stored under the process id.
	ErrUnknownProcess = errors.New("portal: unknown process instance")
	// ErrNotAuthenticated: the caller's principal is not registered.
	ErrNotAuthenticated = errors.New("portal: unknown principal")
)

// Notification tells a participant an activity awaits them.
type Notification struct {
	Participant string
	ProcessID   string
	Activity    string
}

// WorkItem is one entry of a participant's TO-DO list.
type WorkItem struct {
	ProcessID  string
	Definition string
	Activity   string
}

// Portal is one portal server. Portals sharing a table coordinate only
// through it; within one portal, stores of the same process instance
// exclude each other (a striped lock keyed by process ID) across their
// read-merge-write cycle, stores of different instances run side by side,
// and reads take no portal lock. Stored CER sets are grow-only, so
// concurrent stores converge by re-merging.
type Portal struct {
	// ID names the portal (for logs and notifications).
	ID string
	// Registry authenticates principals and verifies document signatures.
	Registry *pki.Registry
	// Table is the shared documents table: a single-process *pool.Table
	// or a clustered poolcluster.Session — the portal cannot tell them
	// apart.
	Table pool.DocTable
	// Clock supplies meta timestamps (defaults to time.Now).
	Clock func() time.Time
	// OnNotify, when set, receives every notification produced by Store
	// and StoreInitial (after the document is durably persisted) — the
	// paper's "notify the subsequent participants" hook — with the trace
	// context of that store, so asynchronous webhook deliveries continue
	// the originating trace. It is called outside the portal's lock;
	// implementations deliver asynchronously.
	OnNotify func(context.Context, Notification)

	// stripes serialize the read-merge-write cycles of one process
	// instance; see lockFor.
	stripes [64]sync.Mutex
}

// lockFor returns the mutex that stores of processID exclude each other
// with. Instances hashing to the same stripe share it, which costs
// concurrency, never correctness.
func (p *Portal) lockFor(processID string) *sync.Mutex {
	h := fnv.New32a()
	h.Write([]byte(processID))
	return &p.stripes[h.Sum32()%uint32(len(p.stripes))]
}

// New creates a portal server.
func New(id string, reg *pki.Registry, table pool.DocTable, clock func() time.Time) *Portal {
	if clock == nil {
		clock = time.Now
	}
	return &Portal{ID: id, Registry: reg, Table: table, Clock: clock}
}

// Authenticate verifies that the principal is registered and unrevoked.
func (p *Portal) Authenticate(principal string) error {
	if _, err := p.Registry.Certificate(principal); err != nil {
		return fmt.Errorf("%w: %v", ErrNotAuthenticated, err)
	}
	return nil
}

// Store verifies a document produced by an AEA (or a TFC server), merges
// it with the stored copy of the same process instance, persists the
// result, refreshes the worklist index, and returns notifications for the
// participants of the now-enabled activities.
func (p *Portal) Store(doc *document.Document) ([]Notification, error) {
	return p.StoreCtx(context.Background(), doc)
}

// StoreCtx is Store carrying the caller's trace context: inside a
// sampled distributed trace the verification/merge/persist work lands as
// a portal-tier span (with the process ID and CER count as attributes),
// pool writes nest under it, and notifications dispatched to OnNotify
// continue the same trace through the webhook relay.
func (p *Portal) StoreCtx(ctx context.Context, doc *document.Document) ([]Notification, error) {
	ctx, span := tel.StartSpan(ctx, "portal_store_seconds")
	defer span.End()
	span.SetAttr("process", doc.ProcessID())
	if nsigs, err := doc.VerifyAllCtx(ctx, p.Registry); err != nil {
		span.SetStatus("error")
		return nil, fmt.Errorf("portal: rejecting document (%d signatures verified before failure): %w", nsigs, err)
	}
	notes, err := func() ([]Notification, error) {
		mu := p.lockFor(doc.ProcessID())
		mu.Lock()
		defer mu.Unlock()
		stored := p.Table.GetRow(doc.ProcessID())
		merged := doc
		for _, kv := range stored {
			if kv.Family != "doc" || kv.Qualifier != "content" {
				continue
			}
			existing, err := document.Parse(kv.Value)
			if err != nil {
				return nil, err
			}
			if merged, err = document.Merge(existing, doc); err != nil {
				return nil, err
			}
		}
		span.SetAttr("cers", strconv.Itoa(len(merged.FinalCERs())))
		return p.persist(ctx, merged, stored)
	}()
	if err != nil {
		span.SetStatus("error")
		return nil, err
	}
	p.dispatch(ctx, notes)
	return notes, nil
}

// dispatch fans notifications out to OnNotify. Must be called without
// the instance's lock.
func (p *Portal) dispatch(ctx context.Context, notes []Notification) {
	mNotifications.Add(int64(len(notes)))
	if p.OnNotify == nil {
		return
	}
	for _, n := range notes {
		p.OnNotify(ctx, n)
	}
}

// persist writes the merged document and everything derived from it —
// the meta cells and the rebuilt worklist index — as one row mutation,
// and computes notifications. stored is the row as read before the merge
// (its idx cells say which index entries went stale). Caller holds the
// instance's lock.
func (p *Portal) persist(ctx context.Context, doc *document.Document, stored []pool.KeyValue) ([]Notification, error) {
	def, err := doc.Definition()
	if err != nil {
		return nil, err
	}
	enabled, completed, err := document.Enabled(def, doc)
	if err != nil {
		return nil, err
	}
	row := doc.ProcessID()
	state := "running"
	if completed {
		state = "completed"
	}
	content := doc.Bytes()
	cells := []pool.CellMutation{
		{Family: "doc", Qualifier: "content", Value: content},
		{Family: "meta", Qualifier: "definition", Value: []byte(def.Name)},
		{Family: "meta", Qualifier: "state", Value: []byte(state)},
		{Family: "meta", Qualifier: "cers", Value: []byte(strconv.Itoa(len(doc.FinalCERs())))},
		{Family: "meta", Qualifier: "bytes", Value: []byte(strconv.Itoa(len(content)))},
		{Family: "meta", Qualifier: "updated", Value: []byte(p.Clock().UTC().Format(time.RFC3339Nano))},
	}

	// Rebuild the worklist index: one idx cell per assignee with their
	// enabled activities; stale cells from prior states are deleted.
	// Fixed assignments index under the participant ID; role-based
	// activities index under "role:<role>" so any role holder's worklist
	// query finds them.
	byParticipant := map[string][]string{}
	for _, act := range enabled {
		a := def.Activity(act)
		if a == nil {
			return nil, fmt.Errorf("portal: enabled activity %q not in definition", act)
		}
		key := a.Participant
		if key == "" {
			key = rolePrefix + a.Role
		}
		byParticipant[key] = append(byParticipant[key], act)
	}
	for _, kv := range stored {
		if _, still := byParticipant[kv.Qualifier]; kv.Family == "idx" && !still {
			cells = append(cells, pool.CellMutation{Family: "idx", Qualifier: kv.Qualifier, Del: true})
		}
	}
	var notes []Notification
	for participant, acts := range byParticipant {
		sort.Strings(acts)
		cells = append(cells, pool.CellMutation{Family: "idx", Qualifier: participant,
			Value: []byte(def.Name + idxSep + strings.Join(acts, ","))})
		for _, a := range acts {
			notes = append(notes, Notification{Participant: participant, ProcessID: row, Activity: a})
		}
	}
	if err := p.Table.Mutate(ctx, row, cells); err != nil {
		return nil, err
	}
	sort.Slice(notes, func(i, j int) bool {
		if notes[i].Participant != notes[j].Participant {
			return notes[i].Participant < notes[j].Participant
		}
		return notes[i].Activity < notes[j].Activity
	})
	return notes, nil
}

// StoreInitial verifies and stores a freshly designed initial document,
// starting the process instance. It fails if the instance already exists
// (process ids are unique; re-posting an initial document is a replay).
func (p *Portal) StoreInitial(doc *document.Document) ([]Notification, error) {
	return p.StoreInitialCtx(context.Background(), doc)
}

// StoreInitialCtx is StoreInitial carrying the caller's trace context.
// Besides the portal-tier span, it binds the new workflow instance ID to
// the trace ID in the process trace collector, so the whole cascade's
// journey is queryable by either handle (GET /v1/traces?process=...).
func (p *Portal) StoreInitialCtx(ctx context.Context, doc *document.Document) ([]Notification, error) {
	ctx, span := tel.StartSpan(ctx, "portal_store_initial_seconds")
	defer span.End()
	span.SetAttr("process", doc.ProcessID())
	if sc, ok := trace.FromContext(ctx); ok {
		trace.Default().BindInstance(doc.ProcessID(), sc.TraceID)
	}
	if nsigs, err := doc.VerifyAllCtx(ctx, p.Registry); err != nil {
		span.SetStatus("error")
		return nil, fmt.Errorf("portal: rejecting initial document (%d signatures verified before failure): %w", nsigs, err)
	}
	notes, err := func() ([]Notification, error) {
		mu := p.lockFor(doc.ProcessID())
		mu.Lock()
		defer mu.Unlock()
		if _, ok := p.Table.GetCtx(ctx, doc.ProcessID(), "doc", "content"); ok {
			return nil, fmt.Errorf("portal: process %s already exists (replayed initial document?)", doc.ProcessID())
		}
		return p.persist(ctx, doc, nil)
	}()
	if err != nil {
		span.SetStatus("error")
		return nil, err
	}
	p.dispatch(ctx, notes)
	return notes, nil
}

// Retrieve returns a copy of the stored document for the authenticated
// principal. Confidentiality does not depend on this check — documents are
// element-wise encrypted — but unauthenticated scraping is still refused.
func (p *Portal) Retrieve(principal, processID string) (*document.Document, error) {
	return p.RetrieveCtx(context.Background(), principal, processID)
}

// RetrieveCtx is Retrieve carrying the caller's trace context (see
// StoreCtx): RetrieveRawCtx, then document.Parse.
func (p *Portal) RetrieveCtx(ctx context.Context, principal, processID string) (*document.Document, error) {
	raw, err := p.RetrieveRawCtx(ctx, principal, processID)
	if err != nil {
		return nil, err
	}
	return document.Parse(raw)
}

// RetrieveRawCtx returns the stored canonical bytes of a process instance
// to an authenticated principal, unparsed. The retrieve route writes them
// to the wire as they are: the row holds doc.Bytes() of the stored
// document, so a parse and re-canonicalization would only reproduce them.
// The returned slice is shared with the table; treat it as read-only.
func (p *Portal) RetrieveRawCtx(ctx context.Context, principal, processID string) ([]byte, error) {
	ctx, span := tel.StartSpan(ctx, "portal_retrieve_seconds")
	defer span.End()
	span.SetAttr("process", processID)
	if err := p.Authenticate(principal); err != nil {
		span.SetStatus("error")
		return nil, err
	}
	return p.content(ctx, processID)
}

// content reads the stored document bytes of a process instance.
func (p *Portal) content(ctx context.Context, processID string) ([]byte, error) {
	raw, ok := p.Table.GetCtx(ctx, processID, "doc", "content")
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrUnknownProcess, processID)
	}
	return raw, nil
}

// rolePrefix namespaces role-based worklist index cells.
const rolePrefix = "role:"

// idxSep parts the definition name from the activity list in an idx cell.
// Definition names and activity IDs are XML attribute values, and XML 1.0
// has no NUL, so neither can contain it.
const idxSep = "\x00"

// Worklist returns the participant's TO-DO list across all running process
// instances — activities assigned to them directly plus activities
// assigned to any role their registered identity holds — sorted by process
// id then activity.
func (p *Portal) Worklist(principal string) ([]WorkItem, error) {
	return p.WorklistCtx(context.Background(), principal)
}

// WorklistCtx is Worklist carrying the caller's trace context (see
// StoreCtx).
func (p *Portal) WorklistCtx(ctx context.Context, principal string) ([]WorkItem, error) {
	ctx, span := tel.StartSpan(ctx, "portal_worklist_seconds")
	defer span.End()
	if err := p.Authenticate(principal); err != nil {
		span.SetStatus("error")
		return nil, err
	}
	id, err := p.Registry.Identity(principal)
	if err != nil {
		return nil, err
	}
	match := func(qualifier string) bool {
		if qualifier == principal {
			return true
		}
		if strings.HasPrefix(qualifier, rolePrefix) {
			return id.HasRole(strings.TrimPrefix(qualifier, rolePrefix))
		}
		return false
	}
	var items []WorkItem
	for _, kv := range p.Table.ScanCtx(ctx, pool.ScanOptions{Family: "idx"}) {
		if !match(kv.Qualifier) {
			continue
		}
		defName, acts, ok := strings.Cut(string(kv.Value), idxSep)
		if !ok { // a cell from before the definition rode in the index
			acts = defName
			raw, _ := p.Table.GetCtx(ctx, kv.Row, "meta", "definition")
			defName = string(raw)
		}
		for _, act := range strings.Split(acts, ",") {
			if act == "" {
				continue
			}
			items = append(items, WorkItem{
				ProcessID:  kv.Row,
				Definition: defName,
				Activity:   act,
			})
		}
	}
	sort.Slice(items, func(i, j int) bool {
		if items[i].ProcessID != items[j].ProcessID {
			return items[i].ProcessID < items[j].ProcessID
		}
		return items[i].Activity < items[j].Activity
	})
	return items, nil
}

// ProcessIDs lists stored process instances, optionally filtered by state
// ("running", "completed", or "" for all).
func (p *Portal) ProcessIDs(state string) []string {
	var ids []string
	for _, kv := range p.Table.Scan(pool.ScanOptions{Family: "meta"}) {
		if kv.Qualifier != "state" {
			continue
		}
		if state != "" && string(kv.Value) != state {
			continue
		}
		ids = append(ids, kv.Row)
	}
	sort.Strings(ids)
	return ids
}

// State returns "running" or "completed" for a process instance.
func (p *Portal) State(processID string) (string, error) {
	v, ok := p.Table.Get(processID, "meta", "state")
	if !ok {
		return "", fmt.Errorf("%w: %s", ErrUnknownProcess, processID)
	}
	return string(v), nil
}

// --- workflow template catalog ---------------------------------------------

// templateRowPrefix namespaces catalog rows away from process instances.
const templateRowPrefix = "tpl#"

// StoreTemplate verifies a designer-signed workflow template and files it
// in the catalog under its definition name — the paper's "prepared by the
// system or uploaded by the user" distribution path. Re-storing a name
// overwrites the previous template (the newest designer signature wins).
func (p *Portal) StoreTemplate(tpl *xmltree.Node) (string, error) {
	def, err := document.VerifyTemplate(tpl, p.Registry)
	if err != nil {
		return "", fmt.Errorf("portal: rejecting template: %w", err)
	}
	row := templateRowPrefix + def.Name
	if err := p.Table.Mutate(context.Background(), row, []pool.CellMutation{
		{Family: "doc", Qualifier: "template", Value: tpl.Canonical()},
		{Family: "meta", Qualifier: "designer", Value: []byte(def.Designer)},
	}); err != nil {
		return "", err
	}
	return def.Name, nil
}

// Template fetches and re-verifies a cataloged template by name.
func (p *Portal) Template(principal, name string) (*wfdef.Definition, *xmltree.Node, error) {
	if err := p.Authenticate(principal); err != nil {
		return nil, nil, err
	}
	raw, ok := p.Table.Get(templateRowPrefix+name, "doc", "template")
	if !ok {
		return nil, nil, fmt.Errorf("portal: no template %q", name)
	}
	tpl, err := xmltree.ParseBytes(raw)
	if err != nil {
		return nil, nil, err
	}
	def, err := document.VerifyTemplate(tpl, p.Registry)
	if err != nil {
		return nil, nil, fmt.Errorf("portal: stored template %q no longer verifies: %w", name, err)
	}
	return def, tpl, nil
}

// Templates lists the catalog: definition name → designer.
func (p *Portal) Templates() map[string]string {
	out := map[string]string{}
	for _, kv := range p.Table.Scan(pool.ScanOptions{Prefix: templateRowPrefix, Family: "meta"}) {
		if kv.Qualifier == "designer" {
			out[strings.TrimPrefix(kv.Row, templateRowPrefix)] = string(kv.Value)
		}
	}
	return out
}

// Enabled recomputes the enabled activities of a stored instance.
func (p *Portal) Enabled(processID string) ([]string, bool, error) {
	raw, err := p.content(context.Background(), processID)
	if err != nil {
		return nil, false, err
	}
	doc, err := document.Parse(raw)
	if err != nil {
		return nil, false, err
	}
	def, err := doc.Definition()
	if err != nil {
		return nil, false, err
	}
	return document.Enabled(def, doc)
}
