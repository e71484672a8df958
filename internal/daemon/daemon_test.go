package daemon

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"testing"
	"time"

	"dra4wfms/internal/aea"
	"dra4wfms/internal/document"
	"dra4wfms/internal/httpapi"
	"dra4wfms/internal/pki"
	"dra4wfms/internal/testenv"
	"dra4wfms/internal/wfdef"
)

func TestMain(m *testing.M) {
	log.SetOutput(io.Discard) // the daemons' boot and drain lines
	os.Exit(m.Run())
}

var roles = []Role{Portal, TFC, PoolNode}

// TestFlagSurface pins "no knob added, none renamed": each role's sorted
// name=default list equals the golden generated from the -h output of the
// binaries before internal/daemon existed.
func TestFlagSurface(t *testing.T) {
	for _, role := range roles {
		fs, _ := role.flagSet(&env{})
		var got []string
		fs.VisitAll(func(f *flag.Flag) { got = append(got, f.Name+"="+f.DefValue) })
		sort.Strings(got)
		want, err := os.ReadFile(filepath.Join("testdata", "flags_"+role.name+".golden"))
		if err != nil {
			t.Fatal(err)
		}
		if g := strings.Join(got, "\n") + "\n"; g != string(want) {
			t.Errorf("%s flag surface changed:\n got:\n%s\nwant:\n%s", role.name, g, want)
		}
	}
}

func TestDependentFlagsAreRefused(t *testing.T) {
	type refusal struct {
		role Role
		args string
		want string // one line naming both flags
	}
	refused := []refusal{
		{Portal, "-cluster-wal f", "-cluster-wal requires -cluster-nodes"},
		{TFC, "-key k -cluster-wal f", "-cluster-wal requires -cluster-nodes"},
		{Portal, "-cluster-status f", "-cluster-status requires -cluster-nodes"},
		{Portal, "-replicas 3", "-replicas requires -cluster-nodes"},
		{TFC, "-key k -replicas 3", "-replicas requires -cluster-nodes"},
		{Portal, "-fsync=true", "-fsync requires -data-dir"},
		{PoolNode, "-node-id n1 -fsync=false", "-fsync requires -data-dir"},
		{TFC, "-key k -checkpoint-interval 1m", "-checkpoint-interval requires -data-dir"},
		{PoolNode, "-node-id n1 -chaos-seed 7", "-chaos-seed requires -chaos"},
		{Portal, "-chaos=false -chaos-seed 7", "-chaos-seed requires -chaos"},
		{Portal, "-webhook-wal f", "-webhook-wal requires -key"},
		{Portal, "-cluster-nodes n1=http://x -data-dir d", "-cluster-nodes and -data-dir are mutually exclusive"},
		{TFC, "-key k -data-dir d -cluster-nodes n1=http://x", "-cluster-nodes and -data-dir are mutually exclusive"},
		{PoolNode, "-data-dir d", "missing -node-id"},
		{TFC, "-data-dir d", "missing -key"},
	}
	for _, tc := range refused {
		t.Run(tc.role.name+" "+tc.args, func(t *testing.T) {
			_, _, err := Start(context.Background(), tc.role, strings.Fields(tc.args))
			if err == nil || err.Error() != tc.want {
				t.Fatalf("Start = %v, want %q", err, tc.want)
			}
		})
	}
	for _, r := range flagRules {
		if !slices.ContainsFunc(refused, func(tc refusal) bool { return tc.want == r.String() }) {
			t.Errorf("rule %q has no test row", r)
		}
	}

	// The command lines benchmarks/system/fleet.go and scripts/*.sh pass
	// (defaults and -fsync=true beside -data-dir included) stay accepted.
	accepted := []struct {
		role Role
		args string
	}{
		{PoolNode, "-listen a -node-id n1 -grace 5s"},
		{PoolNode, "-listen a -node-id n1 -chaos -chaos-seed 7 -grace 5s"},
		{Portal, "-listen a -trust t -cluster-nodes n1=u,n2=u -replicas 2 -cluster-wal w -grace 5s"},
		{Portal, "-listen a -trust t -cluster-nodes n1=u -replicas 2 -cluster-wal w -cluster-status s -grace 10s"},
		{Portal, "-listen a -trust t -cluster-nodes n1=u -replicas 2 -cluster-wal w -max-inflight 128 -grace 10s"},
		{Portal, "-listen a -trust t -data-dir d -fsync=true -grace 5s"},
		{Portal, "-listen a -trust t -data-dir d -checkpoint-interval 0 -grace 10s"},
		{Portal, "-listen a -trust t -grace 5s"},
		{Portal, "-listen a -trust t -key k -webhook-wal w"},
		{TFC, "-listen a -trust t -key k -data-dir d -fsync=true -grace 5s"},
		{TFC, "-listen a -trust t -key k -grace 10s"},
	}
	for _, tc := range accepted {
		fs, _ := tc.role.flagSet(&env{})
		if err := fs.Parse(strings.Fields(tc.args)); err != nil {
			t.Fatal(err)
		}
		if err := checkFlags(fs, tc.role.required); err != nil {
			t.Errorf("%s %s refused: %v", tc.role.name, tc.args, err)
		}
	}
}

// TestTraceSampleOutOfRangeRefused: -trace-sample is a fraction; values
// that would silently sample everything (5, NaN) or nothing (-0.3) are
// a bad command line (exit 2 from Main), while 0, 0.5 and 1 get past the
// check to the next refusal.
func TestTraceSampleOutOfRangeRefused(t *testing.T) {
	for _, role := range []Role{Portal, TFC} {
		for _, v := range []string{"5", "NaN", "-0.3", "1.0001"} {
			_, _, err := Start(context.Background(), role, []string{"-data-dir", "d", "-trace-sample", v})
			if !errors.Is(err, errUsage) || !strings.Contains(err.Error(), "-trace-sample") {
				t.Errorf("%s -trace-sample %s: Start = %v, want a usage error naming the flag", role.name, v, err)
			}
		}
	}
	for _, v := range []string{"0", "0.5", "1"} {
		_, _, err := Start(context.Background(), TFC, []string{"-data-dir", "d", "-trace-sample", v})
		if err == nil || err.Error() != "missing -key" {
			t.Errorf("-trace-sample %s: Start = %v, want the next refusal (missing -key)", v, err)
		}
	}
}

// deployment is a trust bundle and the private keys on disk, the way
// drakeys lays them out for the daemons.
type deployment struct {
	*testenv.Env
	dir string
}

func deploy(t *testing.T) *deployment {
	t.Helper()
	d := &deployment{Env: testenv.Fig9(0), dir: t.TempDir()}
	bundle, err := pki.ExportBundle(d.CA, d.Registry)
	if err != nil {
		t.Fatal(err)
	}
	data, err := bundle.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	pem, err := pki.EncodePrivateKeyPEM(d.KeyOf("tfc@cloud"))
	if err != nil {
		t.Fatal(err)
	}
	for name, content := range map[string][]byte{"trust.json": data, "tfc.pem": pem} {
		if err := os.WriteFile(d.path(name), content, 0o600); err != nil {
			t.Fatal(err)
		}
	}
	return d
}

func (d *deployment) path(name string) string { return filepath.Join(d.dir, name) }

func (d *deployment) client(addr, principal string) *httpapi.Client {
	return httpapi.NewClient("http://"+addr, d.KeyOf(principal))
}

// run boots role in-process the way its binary does and returns the
// daemon plus the cancel that stands in for SIGTERM.
func run(t *testing.T, role Role, args ...string) (*env, context.CancelFunc) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	e, err := boot(ctx, role, append([]string{"-listen", "127.0.0.1:0"}, args...))
	if err != nil {
		cancel()
		t.Fatalf("booting %s: %v", role.name, err)
	}
	t.Cleanup(func() { cancel(); _ = e.wait() })
	resp, err := http.Get("http://" + e.addr + "/v1/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("%s /v1/readyz = %d right after Start returned", role.name, resp.StatusCode)
	}
	return e, cancel
}

// durablePortal boots a portal with everything that needs closing — a
// webhook outbox, a durable pool, a trace export — and stores one initial
// document so that each of them holds state.
func durablePortal(t *testing.T, d *deployment, grace string) (*env, context.CancelFunc, string) {
	t.Helper()
	e, cancel := run(t, Portal, "-trust", d.path("trust.json"), "-key", d.path("tfc.pem"),
		"-webhook-wal", d.path("webhooks.wal"), "-data-dir", d.path("data"), "-checkpoint-interval", "0",
		"-trace-out", d.path("traces.jsonl"), "-grace", grace)
	inbox := httptest.NewServer(http.HandlerFunc(func(http.ResponseWriter, *http.Request) {}))
	t.Cleanup(inbox.Close)
	first := wfdef.Fig9Participants["A"]
	if err := d.client(e.addr, first).RegisterWebhook(inbox.URL, ""); err != nil {
		t.Fatal(err)
	}
	doc, err := document.New(wfdef.Fig9A(), d.KeyOf("designer@acme"), testenv.ProcessID(), time.Now())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.client(e.addr, "designer@acme").StoreInitial(doc); err != nil {
		t.Fatal(err)
	}
	return e, cancel, doc.ProcessID()
}

// TestUnopenableWebhookWALFailsBoot: a -webhook-wal the portal cannot
// open fails the boot (exit 1 from Main) instead of dropping every
// notification at the first store.
func TestUnopenableWebhookWALFailsBoot(t *testing.T) {
	d := deploy(t)
	_, _, err := Start(context.Background(), Portal, []string{"-listen", "127.0.0.1:0",
		"-trust", d.path("trust.json"), "-key", d.path("tfc.pem"), "-webhook-wal", d.path("missing/webhooks.wal")})
	if err == nil || errors.Is(err, errUsage) || !strings.Contains(err.Error(), "webhook outbox") {
		t.Fatalf("Start over an unopenable -webhook-wal = %v, want a webhook outbox error", err)
	}
}

var portalCloseOrder = []string{"webhooks", "store", "trace export"}

func TestCleanDrainRunsClosersInOrder(t *testing.T) {
	d := deploy(t)
	e, cancel, _ := durablePortal(t, d, "5s")
	cancel()
	if err := e.wait(); err != nil {
		t.Fatalf("clean drain = %v, want nil", err)
	}
	if !slices.Equal(e.closed, portalCloseOrder) {
		t.Fatalf("closers ran as %v, want %v", e.closed, portalCloseOrder)
	}
}

// A drain that outlives -grace is reported — and is exactly when the
// outbox flush, the final checkpoint and the trace file close matter: they
// still run, and the data dir is left as a clean stop leaves it.
func TestCleanupSurvivesFailedDrain(t *testing.T) {
	d := deploy(t)
	e, cancel, pid := durablePortal(t, d, "50ms")

	// One request held open past the grace period: the handler is reading
	// a body that never completes.
	conn, err := net.Dial("tcp", e.addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	fmt.Fprintf(conn, "POST /v1/documents HTTP/1.1\r\nHost: x\r\nContent-Length: 10\r\nExpect: 100-continue\r\n\r\n")
	if line, err := bufio.NewReader(conn).ReadString('\n'); err != nil || !strings.Contains(line, "100 Continue") {
		t.Fatalf("handler did not start reading the body: %q, %v", line, err)
	}

	cancel()
	if err := e.wait(); err == nil || !strings.Contains(err.Error(), "serving:") {
		t.Fatalf("drain past -grace = %v, want a serving error", err)
	}
	if !slices.Equal(e.closed, portalCloseOrder) {
		t.Fatalf("closers ran as %v after a failed drain, want %v", e.closed, portalCloseOrder)
	}
	if ckpts, _ := filepath.Glob(filepath.Join(d.path("data"), "checkpoint-*.ckpt")); len(ckpts) == 0 {
		t.Fatal("no final checkpoint after a failed drain")
	}
	if _, err := os.Stat(d.path("webhooks.wal")); err != nil {
		t.Fatalf("webhook outbox: %v", err)
	}
	if spans, err := os.ReadFile(d.path("traces.jsonl")); err != nil || len(spans) == 0 {
		t.Fatalf("trace export holds %d bytes (%v)", len(spans), err)
	}

	// The store was closed, not abandoned: the data dir lock is free and
	// the next boot serves the document.
	next, _ := run(t, Portal, "-trust", d.path("trust.json"), "-data-dir", d.path("data"))
	if _, err := d.client(next.addr, "designer@acme").Retrieve(pid); err != nil {
		t.Fatalf("document after restart: %v", err)
	}
}

// TestRolesBootInProcess boots all three roles from the code path their
// binaries use — two pool nodes behind a clustered portal, and a TFC
// keeping its notarizations in a data dir — drives a notarized hop
// through them, and restarts the TFC: from its data dir it answers the
// same intermediate as before and refuses a different one.
func TestRolesBootInProcess(t *testing.T) {
	d := deploy(t)
	n1, _ := run(t, PoolNode, "-node-id", "n1", "-data-dir", d.path("n1"), "-fsync=false")
	n2, _ := run(t, PoolNode, "-node-id", "n2", "-chaos")
	portal, stopPortal := run(t, Portal, "-trust", d.path("trust.json"),
		"-cluster-nodes", "n1=http://"+n1.addr+",n2=http://"+n2.addr, "-cluster-wal", d.path("portal-outbox.wal"),
		"-cluster-status", d.path("cluster.json"), "-max-inflight", "64")
	tfcArgs := []string{"-trust", d.path("trust.json"), "-key", d.path("tfc.pem"), "-data-dir", d.path("tfc"), "-max-inflight", "64"}
	notary, stopNotary := run(t, TFC, tfcArgs...)

	doc, err := document.New(wfdef.Fig9B(), d.KeyOf("designer@acme"), testenv.ProcessID(), time.Now())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.client(portal.addr, "designer@acme").StoreInitial(doc); err != nil {
		t.Fatal(err)
	}
	alice := wfdef.Fig9Participants["A"]
	got, err := d.client(portal.addr, alice).Retrieve(doc.ProcessID())
	if err != nil {
		t.Fatal(err)
	}
	interm, err := aea.New(d.KeyOf(alice), d.Registry).ExecuteToTFC(got, "A", aea.Inputs{"request": "r"})
	if err != nil {
		t.Fatal(err)
	}
	first, firstDoc, err := d.client(notary.addr, alice).ProcessViaTFC(interm)
	if err != nil {
		t.Fatal(err)
	}

	stopNotary()
	if err := notary.wait(); err != nil {
		t.Fatalf("TFC stop: %v", err)
	}
	notary, _ = run(t, TFC, tfcArgs...)
	again, againDoc, err := d.client(notary.addr, alice).ProcessViaTFC(interm)
	if err != nil {
		t.Fatalf("same intermediate after a TFC restart: %v", err)
	}
	if !again.Timestamp.Equal(first.Timestamp) || !bytes.Equal(againDoc.Bytes(), firstDoc.Bytes()) {
		t.Fatalf("same intermediate after a TFC restart got another answer: %v, want the first one's %v", again.Timestamp, first.Timestamp)
	}
	other, err := aea.New(d.KeyOf(alice), d.Registry).ExecuteToTFC(got, "A", aea.Inputs{"request": "r"})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := d.client(notary.addr, alice).ProcessViaTFC(other); err == nil || !strings.Contains(err.Error(), "replay") || !strings.Contains(err.Error(), "409") {
		t.Fatalf("a different intermediate after a TFC restart = %v, want a 409 replay refusal", err)
	}

	stopPortal()
	if err := portal.wait(); err != nil {
		t.Fatalf("portal stop: %v", err)
	}
	if want := []string{"cluster"}; !slices.Equal(portal.closed, want) {
		t.Fatalf("clustered portal closers ran as %v, want %v", portal.closed, want)
	}
	if _, err := os.Stat(d.path("cluster.json")); err != nil {
		t.Fatalf("-cluster-status: %v", err)
	}
}

func TestStartFailureClosesWhatItOpened(t *testing.T) {
	d := deploy(t)
	busy, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer busy.Close()
	_, err = boot(context.Background(), Portal, []string{"-listen", busy.Addr().String(),
		"-trust", d.path("trust.json"), "-data-dir", d.path("data")})
	if err == nil {
		t.Fatal("boot on an occupied port succeeded")
	}
	// The store opened before the listen failed was closed again.
	run(t, Portal, "-trust", d.path("trust.json"), "-data-dir", d.path("data"))
}
