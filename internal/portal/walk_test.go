package portal_test

import (
	"math/rand"
	"testing"

	"dra4wfms/internal/document"
	"dra4wfms/internal/driver"
	"dra4wfms/internal/portal"
	"dra4wfms/internal/testenv"
	"dra4wfms/internal/wfgen"
)

// TestDeltaAndFullRowsAgreeWfgen: for random wfgen flows, under both
// operational models, storing each hop's document — the final document
// of a driver walk cut after each hop's CERs — leaves the same rows on
// both paths, rows the parent's merge would have written.
func TestDeltaAndFullRowsAgreeWfgen(t *testing.T) {
	env := testenv.New(0)
	participants := []string{"p1@gen", "p2@gen", "p3@gen"}
	env.MustRegister(append([]string{"designer@gen", "tfc@gen"}, participants...)...)
	d := driver.New(env)
	for seed := int64(500); seed < 508; seed++ {
		advanced := seed%2 == 1
		r := rand.New(rand.NewSource(seed))
		opts := wfgen.Options{Participants: participants, MaxDepth: 2, MaxSegments: 2, MaxBranches: 3, AllowLoops: true}
		if advanced {
			opts.TFC = "tfc@gen"
		}
		g := wfgen.MustGenerate(r, opts)
		initial, _, err := d.Start(g.Def)
		if err != nil {
			t.Fatal(err)
		}
		final, err := d.Run(initial.ProcessID(), driver.Walk{Respond: g.Chooser(r, 2), Rand: r})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		// A hop adds one CER, or under the advanced model the
		// intermediate and the final one.
		step := 1
		if advanced {
			step = 2
		}
		cers := final.CERs()
		var hops []*document.Document
		for k := step; k <= len(cers); k += step {
			prior, err := document.Parse(initial.With(cers[:k-step]).Bytes())
			if err != nil {
				t.Fatal(err)
			}
			prior.MarkRetrieved()
			hops = append(hops, prior.With(cers[k-step:k]))
		}
		portal.SameRows(t, env, initial, hops)
	}
}
