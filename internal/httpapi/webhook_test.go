package httpapi

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"dra4wfms/internal/document"
	"dra4wfms/internal/monitor"
	"dra4wfms/internal/pool"
	"dra4wfms/internal/portal"
	"dra4wfms/internal/relay"
	"dra4wfms/internal/testenv"
	"dra4wfms/internal/wfdef"
)

// receiver is a participant's notification endpoint: it verifies the
// portal's signature on each delivery and records the notifications.
type receiver struct {
	srv  *httptest.Server
	auth *Authenticator

	mu    sync.Mutex
	notes []portal.Notification
	bad   int
}

func newReceiver(t *testing.T, w *world) *receiver {
	t.Helper()
	r := &receiver{auth: NewAuthenticator(w.env.Registry, w.clock)}
	r.srv = httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, req *http.Request) {
		body, _ := io.ReadAll(req.Body)
		sender, err := r.auth.Verify(req, body)
		if err != nil || sender != "portal@cloud" {
			r.mu.Lock()
			r.bad++
			r.mu.Unlock()
			http.Error(rw, "bad signature", http.StatusUnauthorized)
			return
		}
		var n portal.Notification
		if err := json.Unmarshal(body, &n); err != nil {
			http.Error(rw, err.Error(), http.StatusBadRequest)
			return
		}
		r.mu.Lock()
		r.notes = append(r.notes, n)
		r.mu.Unlock()
		rw.WriteHeader(http.StatusOK)
	}))
	t.Cleanup(r.srv.Close)
	return r
}

func (r *receiver) all() []portal.Notification {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]portal.Notification, len(r.notes))
	copy(out, r.notes)
	return out
}

// webhookWorld wires a fresh portal server with webhooks enabled.
func webhookWorld(t *testing.T) (*world, *PortalServer, *WebhookDispatcher) {
	t.Helper()
	w := newWorld(t)
	w.env.MustRegister("portal@cloud")
	ps, dispatcher := w.webhookPortal(t, "")
	return w, ps, dispatcher
}

// webhookPortal points w at a fresh portal server, signing webhooks as
// portal@cloud (registered by the caller) with its outbox WAL at walPath
// ("" = memory).
func (w *world) webhookPortal(t *testing.T, walPath string) (*PortalServer, *WebhookDispatcher) {
	t.Helper()
	table, err := pool.NewTable(portal.TableName, portal.Families...)
	if err != nil {
		t.Fatal(err)
	}
	ps := &PortalServer{
		Portal:  portal.New("wh-portal", w.env.Registry, table, w.clock),
		Monitor: monitor.New(table),
		Auth:    NewAuthenticator(w.env.Registry, w.clock),
	}
	dispatcher, err := ps.EnableWebhooks(w.env.KeyOf("portal@cloud"), walPath)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = dispatcher.Close() })
	srv := httptest.NewServer(ps.Handler())
	t.Cleanup(srv.Close)
	w.portalSrv = srv
	return ps, dispatcher
}

func TestWebhookDelivery(t *testing.T) {
	w, _, dispatcher := webhookWorld(t)
	rcv := newReceiver(t, w)

	alice := wfdef.Fig9Participants["A"]
	bob := wfdef.Fig9Participants["B1"]
	aliceCli := w.clientFor(t, alice)
	if err := aliceCli.RegisterWebhook(rcv.srv.URL, ""); err != nil {
		t.Fatal(err)
	}

	doc, err := document.New(wfdef.Fig9A(), w.env.KeyOf("designer@acme"), testenv.ProcessID(), now)
	if err != nil {
		t.Fatal(err)
	}
	designer := w.clientFor(t, "designer@acme")
	if _, err := designer.StoreInitial(doc); err != nil {
		t.Fatal(err)
	}
	dispatcher.Relay().Flush()

	notes := rcv.all()
	if len(notes) != 1 || notes[0].Participant != alice || notes[0].Activity != "A" {
		t.Fatalf("delivered notes = %v", notes)
	}
	if rcv.bad != 0 {
		t.Fatalf("receiver rejected %d deliveries", rcv.bad)
	}
	delivered, failed := dispatcher.Stats()
	if delivered != 1 || failed != 0 {
		t.Fatalf("stats = %d delivered, %d failed", delivered, failed)
	}

	// bob has no webhook: executing A notifies B1/B2 but only registered
	// principals receive deliveries.
	out, err := w.agents["A"].Execute(doc, "A", map[string]string{"request": "r"}, now)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := aliceCli.Store(out.Doc); err != nil {
		t.Fatal(err)
	}
	dispatcher.Relay().Flush()
	if len(rcv.all()) != 1 {
		t.Fatalf("unexpected deliveries for unregistered participants: %v", rcv.all())
	}
	_ = bob

	// Unregister and confirm silence.
	if err := aliceCli.RegisterWebhook("", ""); err != nil {
		t.Fatal(err)
	}
	if _, ok := dispatcher.URL(alice); ok {
		t.Fatal("unregister did not take effect")
	}
}

func TestWebhookValidation(t *testing.T) {
	w, ps, dispatcher := webhookWorld(t)
	alice := wfdef.Fig9Participants["A"]
	cli := w.clientFor(t, alice)

	// Bad URL rejected.
	if err := cli.RegisterWebhook("not-a-url", ""); err == nil || !strings.Contains(err.Error(), "400") {
		t.Fatalf("bad url: %v", err)
	}
	if err := cli.RegisterWebhook("ftp://host/x", ""); err == nil {
		t.Fatal("ftp url accepted")
	}
	// Role registration requires holding the role.
	if err := cli.RegisterWebhook("http://localhost:1/cb", "approver"); err == nil || !strings.Contains(err.Error(), "403") {
		t.Fatalf("role without membership: %v", err)
	}
	// Delivery failure is counted, not fatal.
	if err := cli.RegisterWebhook("http://127.0.0.1:1/unreachable", ""); err != nil {
		t.Fatal(err)
	}
	doc, _ := document.New(wfdef.Fig9A(), w.env.KeyOf("designer@acme"), testenv.ProcessID(), now)
	if _, err := w.clientFor(t, "designer@acme").StoreInitial(doc); err != nil {
		t.Fatal(err)
	}
	dispatcher.Relay().Flush()
	if _, failed := dispatcher.Stats(); failed != 1 {
		t.Fatalf("failed deliveries = %d, want 1", failed)
	}
	_ = ps
}

// TestWebhookRegistrationSurvivesRestart: a participant registers once;
// after the portal restarts over the same data dir, a store that enables
// the participant's activity is still delivered to the callback.
func TestWebhookRegistrationSurvivesRestart(t *testing.T) {
	w := newWorld(t)
	w.env.MustRegister("portal@cloud")
	rcv := newReceiver(t, w)
	dir := t.TempDir()
	boot := func() (*WebhookDispatcher, func()) {
		table, err := pool.NewTable(portal.TableName, portal.Families...)
		if err != nil {
			t.Fatal(err)
		}
		store, _, err := pool.Open(table, dir, pool.StoreOptions{})
		if err != nil {
			t.Fatal(err)
		}
		ps := &PortalServer{
			Portal:  portal.New("wh-portal", w.env.Registry, table, w.clock),
			Monitor: monitor.New(table),
			Auth:    NewAuthenticator(w.env.Registry, w.clock),
		}
		dispatcher, err := ps.EnableWebhooks(w.env.KeyOf("portal@cloud"), "")
		if err != nil {
			t.Fatal(err)
		}
		srv := httptest.NewServer(ps.Handler())
		w.portalSrv = srv
		return dispatcher, func() {
			srv.Close()
			if err := dispatcher.Close(); err != nil {
				t.Error(err)
			}
			if err := store.Close(); err != nil {
				t.Error(err)
			}
		}
	}

	_, stop := boot()
	alice := wfdef.Fig9Participants["A"]
	if err := w.clientFor(t, alice).RegisterWebhook(rcv.srv.URL, ""); err != nil {
		t.Fatal(err)
	}
	stop()

	dispatcher, stop := boot()
	defer stop()
	doc, err := document.New(wfdef.Fig9A(), w.env.KeyOf("designer@acme"), testenv.ProcessID(), now)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.clientFor(t, "designer@acme").StoreInitial(doc); err != nil {
		t.Fatal(err)
	}
	dispatcher.Relay().Flush()
	if notes := rcv.all(); len(notes) != 1 || notes[0].Participant != alice || notes[0].Activity != "A" {
		t.Fatalf("delivered after restart = %v, want A's notification for %s", notes, alice)
	}
}

// TestWebhookOutboxReplaysAtBoot: a delivery journaled by an earlier run
// goes out as soon as a portal boots over the outbox. No store triggers
// it and nobody registers.
func TestWebhookOutboxReplaysAtBoot(t *testing.T) {
	w := newWorld(t)
	w.env.MustRegister("portal@cloud")
	rcv := newReceiver(t, w)
	path := filepath.Join(t.TempDir(), "webhooks.wal")
	want := portal.Notification{Participant: wfdef.Fig9Participants["A"], ProcessID: "p-journaled", Activity: "A"}
	body, err := json.Marshal(want)
	if err != nil {
		t.Fatal(err)
	}
	ob, err := relay.OpenOutbox(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := ob.Append(rcv.srv.URL, KindWebhook, relay.IdempotencyKey(KindWebhook, rcv.srv.URL, body), "", body); err != nil {
		t.Fatal(err)
	}
	if err := ob.Close(); err != nil {
		t.Fatal(err)
	}

	_, dispatcher := w.webhookPortal(t, path)
	dispatcher.Relay().Flush()
	if notes := rcv.all(); len(notes) != 1 || notes[0] != want {
		t.Fatalf("delivered after boot = %v, want [%v]", notes, want)
	}
	if delivered, failed := dispatcher.Stats(); delivered != 1 || failed != 0 {
		t.Fatalf("stats = %d delivered, %d failed", delivered, failed)
	}
}
