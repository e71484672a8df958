package main

import (
	"fmt"
	"math/rand"
	"time"

	"dra4wfms/internal/aea"
	"dra4wfms/internal/wfdef"
)

// fig9Order is the order in which the participants of one Figure 9
// iteration act: dractl remote's order. B1 and B2 are parallel in the
// definition; one driver plays both, one after the other.
var fig9Order = []string{"A", "B1", "B2", "C", "D"}

// instanceSpec is one process instance of the plan: its id and what every
// participant will answer. Nothing in it depends on the system's replies.
type instanceSpec struct {
	PID     string
	Token   string // fixed-width seeded text the answers carry
	Rejects int    // D answers accept=false this many times first
	// StopAfter, for preloaded instances, is the number of hops run
	// before measuring starts; hopsTotal means run to completion.
	StopAfter int
}

// hopsTotal is the number of hops that complete the instance.
func (s instanceSpec) hopsTotal() int { return (s.Rejects + 1) * len(fig9Order) }

// step names the activity and loop iteration of the instance's k-th hop.
func (s instanceSpec) step(k int) (act string, iter int) {
	return fig9Order[k%len(fig9Order)], k / len(fig9Order)
}

// inputs is what the participant of act answers in the given iteration.
// Values have a fixed width so document sizes do not depend on the seed.
func (s instanceSpec) inputs(act string, iter int) aea.Inputs {
	switch act {
	case "A":
		return aea.Inputs{"request": "purchase " + s.Token, "attachment": "quote-" + s.Token + ".pdf"}
	case "B1":
		return aea.Inputs{"techReview": "adequate " + s.Token}
	case "B2":
		return aea.Inputs{"budgetReview": "in budget " + s.Token}
	case "C":
		return aea.Inputs{"summary": "both positive " + s.Token}
	default:
		return aea.Inputs{"accept": fmt.Sprint(iter >= s.Rejects)}
	}
}

type opKind string

const (
	opHop       opKind = "hop"       // the next hop of a preloaded, stopped instance
	opWorklist  opKind = "worklist"  // one participant's TO-DO list
	opStatus    opKind = "status"    // monitoring status of one instance
	opRetrieve  opKind = "retrieve"  // one stored document
	opProcesses opKind = "processes" // process ids by state
	opStats     opKind = "stats"     // pool-wide Statistics
)

var readKinds = []opKind{opWorklist, opStatus, opRetrieve, opProcesses}

// op is one scheduled operation of monitor-mixed.
type op struct {
	Kind opKind
	Due  time.Duration // offset from the start of the measured window
	// Target indexes plan.Preload (hop, status, retrieve), or
	// fig9Order (worklist), or processStates (processes).
	Target int
}

var processStates = []string{"", "running", "completed"}

// plan is everything one round will ask of the system, fixed before the
// fleet boots.
type plan struct {
	Preload []instanceSpec // stored before measuring (monitor-mixed)
	Warm    []instanceSpec // run to completion before measuring
	// Instances are started during the window: by a free client (closed
	// loop) or at Arrivals[i] (open loop).
	Instances []instanceSpec
	Arrivals  []time.Duration
	Ops       []op // scheduled operations (monitor-mixed)
}

// maxClosedRate bounds how many instances per second a closed loop can
// possibly start; the plan holds that many so it never runs dry.
const maxClosedRate = 60

// makePlan derives a round's plan from the seed alone: the same workload,
// seed, round and window give the same plan, byte for byte.
func makePlan(w workloadDef, seed int64, round int, window time.Duration) plan {
	rng := rand.New(rand.NewSource(seed*1_000_003 + int64(round)))
	serial := 0
	spec := func(group string, rejects int) instanceSpec {
		serial++
		return instanceSpec{
			PID:       fmt.Sprintf("bench-%s-s%d-r%d-%s%04d", w.Name, seed, round, group, serial),
			Token:     fmt.Sprintf("%08x", rng.Uint32()),
			Rejects:   rejects,
			StopAfter: -1,
		}
	}
	var p plan
	for i := 0; i < w.WarmInstances; i++ {
		p.Warm = append(p.Warm, spec("w", w.Rejects))
	}
	// Half the preloaded instances are complete; the others stop after 1
	// to 4 hops, in equal numbers and seeded order, so every seed leaves
	// the same mix of depths to advance.
	stops := rng.Perm(w.Preload / 2)
	for i := 0; i < w.Preload; i++ {
		s := spec("p", 0)
		s.StopAfter = s.hopsTotal()
		if i%2 == 1 {
			s.StopAfter = 1 + stops[i/2]%(s.hopsTotal()-1)
		}
		p.Preload = append(p.Preload, s)
	}
	secs := window.Seconds()
	switch {
	case w.Preload > 0:
		p.Ops = mixedOps(rng, p.Preload, int(w.Rate*secs), w.Rate)
	case w.Loop == openLoop:
		n := int(w.Rate * secs)
		for i := 0; i < n; i++ {
			p.Instances = append(p.Instances, spec("i", w.Rejects))
			p.Arrivals = append(p.Arrivals, time.Duration(float64(i)/w.Rate*float64(time.Second)))
		}
	default:
		n := int(maxClosedRate*secs)/(w.Rejects+1) + w.Clients
		for i := 0; i < n; i++ {
			p.Instances = append(p.Instances, spec("i", w.Rejects))
		}
	}
	return p
}

// mixedOps lays out n operations at a fixed rate in the 60/5/35 mix. Hops
// advance the stopped preloaded instances round-robin, so two hops of one
// instance are as far apart in the schedule as the pool allows; once every
// stopped instance is complete the remaining hop slots become reads.
func mixedOps(rng *rand.Rand, preload []instanceSpec, n int, rate float64) []op {
	const parts = mixReads + mixStats + mixHops
	kinds := make([]opKind, n)
	for i := range kinds {
		switch r := i % parts; {
		case r < mixReads:
			kinds[i] = readKinds[(i/parts*mixReads+r)%len(readKinds)] // equal shares
		case r < mixReads+mixStats:
			kinds[i] = opStats
		default:
			kinds[i] = opHop
		}
	}
	rng.Shuffle(n, func(i, j int) { kinds[i], kinds[j] = kinds[j], kinds[i] })

	remaining := make([]int, len(preload))
	for i, s := range preload {
		remaining[i] = s.hopsTotal() - s.StopAfter
	}
	cursor := 0
	nextStopped := func() int {
		for range preload {
			i := cursor
			cursor = (cursor + 1) % len(preload)
			if remaining[i] > 0 {
				remaining[i]--
				return i
			}
		}
		return -1
	}
	ops := make([]op, n)
	for i, k := range kinds {
		o := op{Kind: k, Due: time.Duration(float64(i) / rate * float64(time.Second))}
		switch k {
		case opHop:
			if o.Target = nextStopped(); o.Target < 0 {
				o.Kind, o.Target = opRetrieve, rng.Intn(len(preload))
			}
		case opStatus, opRetrieve:
			o.Target = rng.Intn(len(preload))
		case opWorklist:
			o.Target = rng.Intn(len(fig9Order))
		case opProcesses:
			o.Target = rng.Intn(len(processStates))
		}
		ops[i] = o
	}
	return ops
}

// participantOf names the principal who executes act.
func participantOf(act string) string { return wfdef.Fig9Participants[act] }
