// Package wfgen generates random — but always structurally valid —
// workflow definitions and chooses the inputs of random executions of
// them (internal/driver walks them). It exists for
// property-based testing across the whole stack: any generated definition
// must validate, any random execution must terminate with a fully
// verifiable document, and any tampering with that document must be
// detected.
//
// Generation is block-structured, which guarantees well-formed graphs by
// construction: a block is a sequence of segments, where each segment is a
// single activity, an AND-split/join of sub-blocks, an XOR-split/join of
// sub-blocks (guarded by a boolean variable produced just before the
// split), or a loop (a block followed by a decision activity with a
// bounded back edge).
package wfgen

import (
	"fmt"
	"math/rand"

	"dra4wfms/internal/aea"
	"dra4wfms/internal/wfdef"
)

// Options bound the generator.
type Options struct {
	// Participants are the candidate executors (at least one required).
	Participants []string
	// MaxDepth bounds block nesting (default 3).
	MaxDepth int
	// MaxSegments bounds segments per block (default 3).
	MaxSegments int
	// MaxBranches bounds AND/XOR fan-out (default 3).
	MaxBranches int
	// AllowLoops enables loop segments.
	AllowLoops bool
	// TFC, when non-empty, declares a TFC server so the workflow can run
	// under the advanced operational model.
	TFC string
	// Leaks seeds that many deliberate concealment leaks: a producer
	// activity emits a secret readable by everyone EXCEPT one participant,
	// and a following activity displays the secret to exactly that
	// participant. The information-flow lint must report each one with a
	// counterexample path — the adversarial corpus for the IFC pass.
	// Requires at least two participants.
	Leaks int
}

func (o *Options) defaults() {
	if o.MaxDepth <= 0 {
		o.MaxDepth = 3
	}
	if o.MaxSegments <= 0 {
		o.MaxSegments = 3
	}
	if o.MaxBranches < 2 {
		o.MaxBranches = 3
	}
}

// Generated couples a definition with the knowledge a random walk needs:
// which variables are loop/branch decisions.
type Generated struct {
	// Def is the generated, validated definition.
	Def *wfdef.Definition
	// DecisionVars maps boolean decision variables to the activity that
	// produces them.
	DecisionVars map[string]string
	// LoopVars is the subset of DecisionVars guarding loop back edges;
	// walks should eventually set them "false" to terminate.
	LoopVars map[string]bool
	// Leaks records the concealment leaks seeded by Options.Leaks, so a
	// property test can assert the IFC lint finds every one.
	Leaks []SeededLeak
	// Activities counts generated activities.
	Activities int
}

// SeededLeak is one deliberately planted information-flow violation.
type SeededLeak struct {
	// Variable is the concealed variable.
	Variable string
	// Producer is the activity producing it.
	Producer string
	// Reader is the activity that wrongly displays it.
	Reader string
	// Participant executes Reader and is excluded from the variable's
	// reader set.
	Participant string
}

type gen struct {
	r    *rand.Rand
	opts Options
	b    *wfdef.Builder
	seq  int
	out  *Generated
}

// Generate builds a random definition using r for all randomness.
func Generate(r *rand.Rand, opts Options) (*Generated, error) {
	opts.defaults()
	if len(opts.Participants) == 0 {
		return nil, fmt.Errorf("wfgen: no participants")
	}
	if opts.Leaks > 0 && len(opts.Participants) < 2 {
		return nil, fmt.Errorf("wfgen: seeding leaks needs at least two participants (one reader, one excluded)")
	}
	g := &gen{
		r:    r,
		opts: opts,
		b:    wfdef.NewBuilder(fmt.Sprintf("gen-%d", r.Int63()), "designer@gen"),
		out:  &Generated{DecisionVars: map[string]string{}, LoopVars: map[string]bool{}},
	}
	entry, exit := g.block(opts.MaxDepth)
	for i := 0; i < opts.Leaks; i++ {
		exit = g.seedLeak(exit)
	}
	g.b = g.b.Start(entry).End(exit)
	g.b = g.b.DefaultReaders(opts.Participants...)
	if opts.TFC != "" {
		g.b = g.b.TFC(opts.TFC)
	}
	def, err := g.b.Build()
	if err != nil {
		return nil, fmt.Errorf("wfgen: generated definition invalid: %w", err)
	}
	g.out.Def = def
	g.out.Activities = len(def.Activities)
	return g.out, nil
}

// Chooser returns a responder for g's activities that draws from r:
// random text values, and decision variables true or false at random,
// except that each loop variable comes up true at most budget times, so
// every walk terminates.
func (g *Generated) Chooser(r *rand.Rand, budget int) func(*aea.Session) (aea.Inputs, error) {
	loopUses := map[string]int{}
	return func(s *aea.Session) (aea.Inputs, error) {
		in := aea.Inputs{}
		for _, resp := range s.Activity().Responses {
			if _, isDecision := g.DecisionVars[resp.Variable]; isDecision {
				v := "false"
				if g.LoopVars[resp.Variable] {
					if loopUses[resp.Variable] < budget && r.Intn(2) == 0 {
						v = "true"
						loopUses[resp.Variable]++
					}
				} else if r.Intn(2) == 0 {
					v = "true"
				}
				in[resp.Variable] = v
				continue
			}
			in[resp.Variable] = fmt.Sprintf("value-%d", r.Int31())
		}
		return in, nil
	}
}

// MustGenerate panics on generation failure (tests).
func MustGenerate(r *rand.Rand, opts Options) *Generated {
	g, err := Generate(r, opts)
	if err != nil {
		panic(err)
	}
	return g
}

func (g *gen) participant() string {
	return g.opts.Participants[g.r.Intn(len(g.opts.Participants))]
}

// activity emits a plain activity producing one string response.
func (g *gen) activity() string {
	g.seq++
	id := fmt.Sprintf("N%03d", g.seq)
	g.b = g.b.Activity(id, "generated "+id, g.participant()).
		Response(fmt.Sprintf("v%03d", g.seq), "string", true).Done()
	return id
}

// decisionActivity emits an activity additionally producing a boolean
// decision variable; returns (activityID, variable).
func (g *gen) decisionActivity() (string, string) {
	g.seq++
	id := fmt.Sprintf("N%03d", g.seq)
	v := fmt.Sprintf("d%03d", g.seq)
	g.b = g.b.Activity(id, "decision "+id, g.participant()).
		Response(v, "bool", true).Done()
	g.out.DecisionVars[v] = id
	return id, v
}

// block emits a sequence of segments and returns its entry and exit
// activity IDs.
func (g *gen) block(depth int) (entry, exit string) {
	n := 1 + g.r.Intn(g.opts.MaxSegments)
	var first, last string
	for i := 0; i < n; i++ {
		e, x := g.segment(depth)
		if first == "" {
			first = e
		} else {
			g.b = g.b.Edge(last, e)
		}
		last = x
	}
	return first, last
}

func (g *gen) segment(depth int) (entry, exit string) {
	choices := []string{"activity"}
	if depth > 0 {
		choices = append(choices, "and", "xor")
		if g.opts.AllowLoops {
			choices = append(choices, "loop")
		}
	}
	switch choices[g.r.Intn(len(choices))] {
	case "and":
		return g.andBlock(depth - 1)
	case "xor":
		return g.xorBlock(depth - 1)
	case "loop":
		return g.loopBlock(depth - 1)
	default:
		id := g.activity()
		return id, id
	}
}

// setSplit / setJoin adjust the kinds of already-emitted activities.
func (g *gen) setSplit(id string, k wfdef.SplitKind) {
	g.patch(id, func(a *wfdef.Activity) { a.Split = k })
}
func (g *gen) setJoin(id string, k wfdef.JoinKind) {
	g.patch(id, func(a *wfdef.Activity) { a.Join = k })
}

// patch relies on Builder internals being value-backed; re-expose via a
// dedicated Builder hook instead.
func (g *gen) patch(id string, fn func(*wfdef.Activity)) {
	g.b.PatchActivity(id, fn)
}

// andBlock: split activity → k parallel sub-blocks → join activity.
func (g *gen) andBlock(depth int) (string, string) {
	split := g.activity()
	join := g.activity()
	k := 2 + g.r.Intn(g.opts.MaxBranches-1)
	g.setSplit(split, wfdef.SplitAND)
	g.setJoin(join, wfdef.JoinAND)
	for i := 0; i < k; i++ {
		e, x := g.block(depth)
		g.b = g.b.Edge(split, e)
		g.b = g.b.Edge(x, join)
	}
	return split, join
}

// xorBlock: decision activity → one of k guarded sub-blocks → XOR join.
func (g *gen) xorBlock(depth int) (string, string) {
	split, v := g.decisionActivity()
	join := g.activity()
	g.setSplit(split, wfdef.SplitXOR)
	g.setJoin(join, wfdef.JoinXOR)
	// Two branches: condition true / default.
	eTrue, xTrue := g.block(depth)
	g.b = g.b.EdgeIf(split, eTrue, v+" == true")
	eFalse, xFalse := g.block(depth)
	g.b = g.b.Edge(split, eFalse) // default branch
	g.b = g.b.Edge(xTrue, join)
	g.b = g.b.Edge(xFalse, join)
	return split, join
}

// seedLeak appends a producer/leaker pair after exit: the producer emits
// a secret whose readers are every participant except one, and the
// leaker — executed by exactly that excluded participant — displays it.
// Returns the new exit (the leaker).
func (g *gen) seedLeak(exit string) string {
	excluded := g.participant()
	var readers []string
	for _, p := range g.opts.Participants {
		if p != excluded {
			readers = append(readers, p)
		}
	}
	producer := readers[g.r.Intn(len(readers))]

	g.seq++
	pid := fmt.Sprintf("S%03d", g.seq)
	secret := fmt.Sprintf("s%03d", g.seq)
	g.b = g.b.Activity(pid, "secret "+pid, producer).
		Response(secret, "string", true).Done()

	g.seq++
	lid := fmt.Sprintf("L%03d", g.seq)
	g.b = g.b.Activity(lid, "leak "+lid, excluded).
		Request(secret).
		Response(fmt.Sprintf("v%03d", g.seq), "string", true).Done()

	g.b = g.b.Edge(exit, pid).Edge(pid, lid).ReadRule(secret, readers...)
	g.out.Leaks = append(g.out.Leaks, SeededLeak{
		Variable: secret, Producer: pid, Reader: lid, Participant: excluded,
	})
	return lid
}

// loopBlock: body block → decision activity; "true" loops back to the
// body entry, default exits.
func (g *gen) loopBlock(depth int) (string, string) {
	entry, bodyExit := g.block(depth)
	dec, v := g.decisionActivity()
	exit := g.activity()
	g.b = g.b.Edge(bodyExit, dec)
	g.setSplit(dec, wfdef.SplitXOR)
	g.setJoin(entry, wfdef.JoinXOR)
	g.setJoin(exit, wfdef.JoinNone)
	g.b = g.b.EdgeIf(dec, entry, v+" == true")
	g.b = g.b.Edge(dec, exit) // default: leave the loop
	g.out.LoopVars[v] = true
	return entry, exit
}
