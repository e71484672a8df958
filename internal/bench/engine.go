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
	def := wfdef.Fig9A()
	steps := fig9Steps()[5:] // single accepting pass

	// Engine baseline.
	eng := engine.New("engine-1", nil)
	if err := eng.Deploy(def); err != nil {
		return nil, err
	}
	t0 := time.Now()
	var lastInstance string
	for i := 0; i < n; i++ {
		id, err := eng.CreateInstance(def.Name)
		if err != nil {
			return nil, err
		}
		lastInstance = id
		for _, s := range steps {
			if _, err := eng.Execute(id, s.act, wfdef.Fig9Participants[s.act], s.inputs); err != nil {
				return nil, err
			}
		}
	}
	engineTotal := time.Since(t0)

	// DRA4WfMS basic model.
	t1 := time.Now()
	var lastDoc *document.Document
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
		for _, s := range steps {
			out, err := agents[s.act].Execute(inbox[s.act], s.act, s.inputs, time.Now())
			if err != nil {
				return nil, err
			}
			if err := deliver(inbox, s.act, out.Next, out.Doc); err != nil {
				return nil, err
			}
			lastDoc = out.Doc
		}
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
	_, err := forged.VerifyAll(env.Registry)
	res.DRATamperCaught = err != nil
	return res, nil
}
