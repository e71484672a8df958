package bench

import (
	"time"

	"dra4wfms/internal/aea"
	"dra4wfms/internal/document"
	"dra4wfms/internal/engine"
	"dra4wfms/internal/testenv"
	"dra4wfms/internal/wfdef"
)

// EngineVsDRAResult reports real (not simulated) per-instance costs and
// the tamper-detection property difference.
type EngineVsDRAResult struct {
	Instances          int
	EngineMeanPerInst  time.Duration
	DRAMeanPerInst     time.Duration
	EngineTamperCaught bool // always false: nothing to catch it with
	DRATamperCaught    bool // always true: signature verification fails
}

// RunEngineVsDRA runs n Figure 9A instances (single pass, accepting) on
// the plaintext engine baseline and on the full-crypto DRA4WfMS basic
// model, then applies the same tamper to both and reports detection.
func RunEngineVsDRA(bits, n int) (*EngineVsDRAResult, error) {
	env := testenv.Fig9(bits)
	eng := engine.New("engine-1", nil)
	if err := eng.Deploy(wfdef.Fig9A()); err != nil {
		return nil, err
	}
	t0 := time.Now()
	lastInstance, err := RunEngine(eng, n)
	if err != nil {
		return nil, err
	}
	engineTotal := time.Since(t0)
	t1 := time.Now()
	lastDoc, err := RunDRA(env, n)
	if err != nil {
		return nil, err
	}
	draTotal := time.Since(t1)

	// The same tamper against both systems.
	res := &EngineVsDRAResult{
		Instances:         n,
		EngineMeanPerInst: engineTotal / time.Duration(n),
		DRAMeanPerInst:    draTotal / time.Duration(n),
	}
	su := eng.Superuser()
	if err := su.TamperResult(lastInstance, "A", 0, "request", "forged"); err != nil {
		return nil, err
	}
	res.EngineTamperCaught = eng.VerifyInstance(lastInstance) != nil

	forged := lastDoc.Clone()
	forged.Root.FindByID("res-A-0").SetText("forged")
	_, err = forged.VerifyAll(env.Registry)
	res.DRATamperCaught = err != nil
	return res, nil
}

// RunEngine runs n single accepting Figure 9A instances on eng, the
// plaintext engine baseline with Figure 9A deployed, and returns the last
// instance's ID.
func RunEngine(eng *engine.Engine, n int) (string, error) {
	name := wfdef.Fig9A().Name
	var last string
	for i := 0; i < n; i++ {
		id, err := eng.CreateInstance(name)
		if err != nil {
			return "", err
		}
		last = id
		for _, s := range fig9Steps()[5:] {
			if _, err := eng.Execute(id, s.act, wfdef.Fig9Participants[s.act], s.inputs); err != nil {
				return "", err
			}
		}
	}
	return last, nil
}

// RunDRA runs n single accepting Figure 9A instances under the DRA4WfMS
// basic model with env's keys, fresh agents per instance, and returns the
// last instance's final document.
func RunDRA(env *testenv.Env, n int) (*document.Document, error) {
	def := wfdef.Fig9A()
	var last *document.Document
	for i := 0; i < n; i++ {
		agents := map[string]*aea.AEA{}
		for act, p := range wfdef.Fig9Participants {
			agents[act] = aea.New(env.KeyOf(p), env.Registry)
		}
		doc, err := document.New(def, env.KeyOf("designer@acme"), testenv.ProcessID(), time.Now())
		if err != nil {
			return nil, err
		}
		inbox := map[string]*document.Document{"A": doc}
		for _, s := range fig9Steps()[5:] {
			out, err := agents[s.act].Execute(inbox[s.act], s.act, s.inputs, time.Now())
			if err != nil {
				return nil, err
			}
			if err := deliver(inbox, s.act, out.Next, out.Doc); err != nil {
				return nil, err
			}
			last = out.Doc
		}
	}
	return last, nil
}
