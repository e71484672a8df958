// Package monitor implements workflow monitoring over the document pool:
// per-instance status tracking (which activities ran, when, what is
// enabled) and pool-wide statistics — counts and sizes folded from the
// columns the portal derives at store time, activity durations computed
// with the mapreduce layer over the documents — the paper's "perform
// workflow monitoring or statistical analyses" portal operation
// (Section 4.2).
//
// Monitoring needs no decryption: execution structure (CER metadata,
// routing decisions, timestamps) is public document structure; only
// result *values* are element-wise encrypted.
package monitor

import (
	"fmt"
	"sort"
	"strconv"
	"time"

	"dra4wfms/internal/document"
	"dra4wfms/internal/mapreduce"
	"dra4wfms/internal/pool"
	"dra4wfms/internal/portal"
)

// Step describes one executed activity of an instance.
type Step struct {
	Activity    string
	Iteration   int
	Participant string
	// Timestamp is the TFC-witnessed finish time; zero under the basic
	// operational model (no notary in the path).
	Timestamp time.Time
	// Next is the signed routing decision.
	Next []string
}

// Status is the monitoring view of one process instance.
type Status struct {
	ProcessID  string
	Definition string
	State      string // "running" | "completed"
	Enabled    []string
	Steps      []Step
	SizeBytes  int
}

// Statistics aggregates the whole pool.
type Statistics struct {
	// InstancesByState counts instances per "running"/"completed".
	InstancesByState map[string]int
	// InstancesByDefinition counts instances per workflow definition.
	InstancesByDefinition map[string]int
	// TotalFinalCERs sums executed activities across instances.
	TotalFinalCERs int
	// MeanDocumentBytes is the average stored document size.
	MeanDocumentBytes int
}

// Monitor reads the portal's documents table.
type Monitor struct {
	// Table is the shared documents table (see package portal for
	// layout), local or clustered.
	Table pool.DocTable
}

// New creates a monitor over the documents table.
func New(table pool.DocTable) *Monitor { return &Monitor{Table: table} }

// InstanceStatus reconstructs the status of one process instance from its
// stored document.
func (m *Monitor) InstanceStatus(processID string) (*Status, error) {
	raw, ok := m.Table.Get(processID, "doc", "content")
	if !ok {
		return nil, fmt.Errorf("%w: %s", portal.ErrUnknownProcess, processID)
	}
	doc, err := document.Parse(raw)
	if err != nil {
		return nil, err
	}
	def, err := doc.Definition()
	if err != nil {
		return nil, err
	}
	enabled, completed, err := document.Enabled(def, doc)
	if err != nil {
		return nil, err
	}
	st := &Status{
		ProcessID:  processID,
		Definition: def.Name,
		State:      "running",
		Enabled:    enabled,
		SizeBytes:  len(raw),
	}
	if completed {
		st.State = "completed"
		st.Enabled = nil
	}
	for _, c := range doc.FinalCERs() {
		step := Step{
			Activity:    c.ActivityID(),
			Iteration:   c.Iteration(),
			Participant: c.Participant(),
			Next:        c.Next(),
		}
		if ts, ok := c.Timestamp(); ok {
			step.Timestamp = ts
		}
		st.Steps = append(st.Steps, step)
	}
	return st, nil
}

// Statistics folds one scan of the meta family into the pool-wide
// aggregates. Every number comes from columns the portal derives from the
// document in the same row mutation that stores it, so no document crosses
// the wire to be counted or measured — except for a row last stored
// before meta:bytes existed, whose document is fetched for its length
// (its next store writes the column).
func (m *Monitor) Statistics() (*Statistics, error) {
	stats := &Statistics{InstancesByState: map[string]int{}, InstancesByDefinition: map[string]int{}}
	docs, totalBytes := 0, 0
	sized := "" // the row whose meta:bytes was just seen
	// A scan is ordered by (row, qualifier): a row's bytes cell, when it
	// has one, arrives just before its cers cell.
	for _, kv := range m.Table.Scan(pool.ScanOptions{Family: "meta"}) {
		switch kv.Qualifier {
		case "state":
			stats.InstancesByState[string(kv.Value)]++
		case "definition":
			stats.InstancesByDefinition[string(kv.Value)]++
		case "bytes":
			n, _ := strconv.Atoi(string(kv.Value))
			totalBytes += n
			sized = kv.Row
		case "cers":
			n, _ := strconv.Atoi(string(kv.Value))
			stats.TotalFinalCERs += n
			if kv.Row != sized {
				raw, ok := m.Table.Get(kv.Row, "doc", "content")
				if !ok {
					continue
				}
				totalBytes += len(raw)
			}
			docs++
		}
	}
	if docs > 0 {
		stats.MeanDocumentBytes = totalBytes / docs
	}
	return stats, nil
}

// DurationStats aggregates per-activity latencies across ALL instances of
// one workflow definition — the fleet-wide analytics the paper assigns to
// the MapReduce layer. Only advanced-model instances (whose CERs carry TFC
// timestamps) contribute; others are skipped and counted.
type DurationStats struct {
	// Definition is the workflow definition analyzed.
	Definition string
	// Instances is how many instances contributed.
	Instances int
	// SkippedNoTimestamps counts instances without timestamps.
	SkippedNoTimestamps int
	// PerActivity maps activity ID to its mean latency across instances
	// and iterations.
	PerActivity map[string]time.Duration
}

// DurationStatistics computes mean per-activity latencies across every
// stored instance of the named definition, via a mapreduce job over the
// documents (map: parse document, emit activity→duration pairs; reduce:
// average).
func (m *Monitor) DurationStatistics(definition string) (*DurationStats, error) {
	job := &mapreduce.Job{
		Table: m.Table,
		Scan:  pool.ScanOptions{Family: "doc"},
		Map: func(kv pool.KeyValue, emit func(string, string)) {
			if kv.Qualifier != "content" {
				return
			}
			doc, err := document.Parse(kv.Value)
			if err != nil {
				return
			}
			if doc.DefinitionName() != definition {
				return
			}
			created, err := doc.CreatedAt()
			if err != nil {
				return
			}
			type stamped struct {
				act string
				at  time.Time
			}
			var steps []stamped
			for _, c := range doc.FinalCERs() {
				ts, ok := c.Timestamp()
				if !ok {
					emit("__skipped__", "1")
					return
				}
				steps = append(steps, stamped{act: c.ActivityID(), at: ts})
			}
			sort.Slice(steps, func(i, j int) bool { return steps[i].at.Before(steps[j].at) })
			prev := created
			for _, s := range steps {
				emit(s.act, strconv.FormatInt(int64(s.at.Sub(prev)), 10))
				prev = s.at
			}
			emit("__instances__", "1")
		},
		Reduce: func(key string, values []string) string {
			if key == "__instances__" || key == "__skipped__" {
				return strconv.Itoa(len(values))
			}
			var sum int64
			for _, v := range values {
				n, _ := strconv.ParseInt(v, 10, 64)
				sum += n
			}
			return strconv.FormatInt(sum/int64(len(values)), 10)
		},
	}
	res, err := job.Run()
	if err != nil {
		return nil, err
	}
	stats := &DurationStats{Definition: definition, PerActivity: map[string]time.Duration{}}
	for k, v := range res {
		switch k {
		case "__instances__":
			stats.Instances, _ = strconv.Atoi(v)
		case "__skipped__":
			stats.SkippedNoTimestamps, _ = strconv.Atoi(v)
		default:
			n, _ := strconv.ParseInt(v, 10, 64)
			stats.PerActivity[k] = time.Duration(n)
		}
	}
	return stats, nil
}

// ActivityDurations derives per-activity latencies (finish-to-finish) from
// the timestamps in one instance, usable only under the advanced model.
// The first step's latency is measured from the document creation time.
func (m *Monitor) ActivityDurations(processID string) (map[string]time.Duration, error) {
	raw, ok := m.Table.Get(processID, "doc", "content")
	if !ok {
		return nil, fmt.Errorf("%w: %s", portal.ErrUnknownProcess, processID)
	}
	doc, err := document.Parse(raw)
	if err != nil {
		return nil, err
	}
	created, err := doc.CreatedAt()
	if err != nil {
		return nil, err
	}
	type stamped struct {
		key string
		at  time.Time
	}
	var steps []stamped
	for _, c := range doc.FinalCERs() {
		ts, ok := c.Timestamp()
		if !ok {
			return nil, fmt.Errorf("monitor: CER %s has no timestamp (basic-model instance?)", c.ID())
		}
		steps = append(steps, stamped{key: fmt.Sprintf("%s#%d", c.ActivityID(), c.Iteration()), at: ts})
	}
	sort.Slice(steps, func(i, j int) bool { return steps[i].at.Before(steps[j].at) })
	out := map[string]time.Duration{}
	prev := created
	for _, s := range steps {
		out[s.key] = s.at.Sub(prev)
		prev = s.at
	}
	return out, nil
}
