package aea

import (
	"errors"
	"sync"
	"testing"

	"dra4wfms/internal/document"
	"dra4wfms/internal/telemetry"
	"dra4wfms/internal/testenv"
	"dra4wfms/internal/wfdef"
	"dra4wfms/internal/xmlenc"
)

// deepRejects is the loop depth of the deep-cascade workload: D rejects
// seven times, so the instance has 40 hops and 40 CERs.
const deepRejects = 7

// TestOpenViewMatchesColdDecrypt is the differential check for the AEA's
// opener: at every hop of a 7-reject Figure 9A instance the view an agent
// builds through its (by then warm) opener is byte-identical to the cold
// xmlenc.DecryptVisible result, and counts the same elements.
func TestOpenViewMatchesColdDecrypt(t *testing.T) {
	f := newFixture(t)
	hops := 0
	f.onOpen = func(activity string, in *document.Document, s *Session) {
		hops++
		cold := in.Clone()
		n, err := xmlenc.DecryptVisible(cold.Root, f.agents[activity].Keys)
		if err != nil {
			t.Fatalf("hop %d (%s): cold decrypt: %v", hops, activity, err)
		}
		if n != s.DecryptedElements {
			t.Fatalf("hop %d (%s): DecryptedElements = %d, cold = %d", hops, activity, s.DecryptedElements, n)
		}
		if string(s.View().Root.Canonical()) != string(cold.Root.Canonical()) {
			t.Fatalf("hop %d (%s): opener view differs from cold view", hops, activity)
		}
	}
	f.run(t, deepRejects)
	if hops != 5*(deepRejects+1) {
		t.Fatalf("checked %d hops, want %d", hops, 5*(deepRejects+1))
	}
}

// TestUnwrapsPerReaderOnce counts RSA unwraps over a 7-reject Figure 9A
// instance: exactly one per content key a reader had not opened before,
// where a cold decrypt pays one per readable element on every hop.
func TestUnwrapsPerReaderOnce(t *testing.T) {
	f := newFixture(t)
	opened := map[string]map[string]bool{}
	var fresh, cold int
	f.onOpen = func(activity string, in *document.Document, _ *Session) {
		owner := f.agents[activity].Keys.Owner
		if opened[owner] == nil {
			opened[owner] = map[string]bool{}
		}
		for _, k := range testenv.ReadableKeys(in.Root, owner) {
			cold++
			if !opened[owner][k] {
				opened[owner][k] = true
				fresh++
			}
		}
	}
	unwraps := telemetry.Default().Counter("xmlenc_unwraps_total")
	before := unwraps.Value()
	f.run(t, deepRejects)
	got := int(unwraps.Value() - before)
	t.Logf("unwraps over the instance: %d with the opener, %d cold (one per readable element per hop)", got, cold)
	if got != fresh {
		t.Fatalf("unwraps = %d, want %d (one per element each reader had not opened)", got, fresh)
	}
	if fresh >= cold/2 {
		t.Fatalf("opener saved too little: %d unwraps against %d cold", fresh, cold)
	}
}

// TestConcurrentOpens opens one deep document from many goroutines on one
// agent; every view equals the cold one.
func TestConcurrentOpens(t *testing.T) {
	f := newFixture(t)
	var deep *document.Document
	f.onOpen = func(activity string, in *document.Document, _ *Session) {
		if activity == "D" {
			deep = in
		}
	}
	f.run(t, 2)
	cold := deep.Clone()
	if _, err := xmlenc.DecryptVisible(cold.Root, f.agents["D"].Keys); err != nil {
		t.Fatal(err)
	}
	want := string(cold.Root.Canonical())
	agent := New(f.agents["D"].Keys, f.env.Registry)
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s, err := agent.Open(deep, "D")
			if err == nil && string(s.View().Root.Canonical()) != want {
				err = errors.New("view differs from cold view")
			}
			if err != nil {
				errs <- err
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestCompleteClaimsOnce: two sessions opened from one document before
// either completes must not both sign a CER for the same (process,
// activity, iteration); the loser gets ErrReplay.
func TestCompleteClaimsOnce(t *testing.T) {
	basic := newFixture(t)
	env := testenv.Fig4(0)
	doc4, err := document.New(wfdef.Fig4(), env.KeyOf("designer@p0"), testenv.ProcessID(), now)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name     string
		agent    *AEA
		doc      *document.Document
		activity string
		complete func(*Session) error
	}{
		{"basic", basic.agents["A"], basic.doc, "A", func(s *Session) error {
			_, err := s.Complete(Inputs{"request": "r"}, now)
			return err
		}},
		{"tfc", New(env.KeyOf(wfdef.Fig4Participants.Peter), env.Registry), doc4, "A1", func(s *Session) error {
			_, err := s.CompleteToTFC(Inputs{"X": "10"})
			return err
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var sessions [2]*Session
			for i := range sessions {
				s, err := c.agent.Open(c.doc, c.activity)
				if err != nil {
					t.Fatal(err)
				}
				sessions[i] = s
			}
			var wg sync.WaitGroup
			var errs [2]error
			for i, s := range sessions {
				wg.Add(1)
				go func() {
					defer wg.Done()
					errs[i] = c.complete(s)
				}()
			}
			wg.Wait()
			ok, replays := 0, 0
			for _, err := range errs {
				switch {
				case err == nil:
					ok++
				case errors.Is(err, ErrReplay):
					replays++
				default:
					t.Fatal(err)
				}
			}
			if ok != 1 || replays != 1 {
				t.Fatalf("%d completions succeeded and %d were replays, want 1 and 1", ok, replays)
			}
		})
	}
}

// BenchmarkOpenDeepCascade measures phase α at hop 35 of a 7-reject
// instance (A opening the eighth iteration): "cold" builds a fresh agent
// per Open, so every visible element costs an RSA unwrap; "warm" reuses
// one agent that has opened the document before. Signature verification
// is warm in both (the process-wide verified-prefix cache), so the gap is
// the unwraps.
func BenchmarkOpenDeepCascade(b *testing.B) {
	f := newFixture(b)
	var in *document.Document
	hops := 0
	f.onOpen = func(_ string, doc *document.Document, _ *Session) {
		if hops == 35 {
			in = doc
		}
		hops++
	}
	f.run(b, deepRejects)
	keys := f.agents["A"].Keys
	b.Run("cold", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := New(keys, f.env.Registry).Open(in, "A"); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("warm", func(b *testing.B) {
		agent := New(keys, f.env.Registry)
		if _, err := agent.Open(in, "A"); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := agent.Open(in, "A"); err != nil {
				b.Fatal(err)
			}
		}
	})
}
