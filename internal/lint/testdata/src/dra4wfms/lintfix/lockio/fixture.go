// Package lockio seeds lock-held-across-I/O violations for the lockio
// analyzer's golden test.
package lockio

import (
	"context"
	"net/http"
	"os"
	"sync"

	"dra4wfms/internal/httpapi"
	"dra4wfms/internal/pool"
)

type cache struct {
	mu     sync.Mutex
	urls   map[string]string
	client *httpapi.Client
}

func (c *cache) badDeferred(target string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	_, err := http.Get(target) // want "http.Get performs I/O while c.mu is locked"
	return err
}

func (c *cache) badClient(doc []byte) error {
	c.mu.Lock()
	err := c.client.Store(doc) // want "(httpapi.Client).Store performs I/O while c.mu is locked"
	c.mu.Unlock()
	return err
}

func (c *cache) badFile(path string) ([]byte, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return os.ReadFile(path) // want "os.ReadFile performs I/O while c.mu is locked"
}

func (c *cache) good(target string) error {
	c.mu.Lock()
	u := c.urls[target]
	c.mu.Unlock()
	_, err := http.Get(u) // lock already released
	return err
}

// goodAsync launches the request on another goroutine; the lock is not
// held on that goroutine's stack.
func (c *cache) goodAsync(target string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	go func() {
		_, _ = http.Get(target)
	}()
}

func (c *cache) suppressed(path string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	//lint:ignore lockio fixture demo: startup-only write before any request traffic
	return os.WriteFile(path, nil, 0o600)
}

// portal mirrors the portal's per-instance exclusion: one mutex per
// stripe of process IDs, held across an instance's read-merge-write.
type portal struct {
	stripes [4]sync.Mutex
	table   pool.DocTable
	hooks   *httpapi.Client
}

// goodStripeAcrossMutate holds the instance's stripe across the row
// mutation. That is the design, not a violation: the mutation is what the
// lock orders, only stores of the same stripe queue behind it, and reads
// take no portal lock at all.
func (p *portal) goodStripeAcrossMutate(ctx context.Context, pid string, cells []pool.CellMutation) error {
	mu := &p.stripes[len(pid)%len(p.stripes)]
	mu.Lock()
	defer mu.Unlock()
	return p.table.Mutate(ctx, pid, cells)
}

// badStripeAcrossNotify keeps the stripe through the notification
// webhook: a slow subscriber now stalls every instance on the stripe.
func (p *portal) badStripeAcrossNotify(ctx context.Context, pid string, cells []pool.CellMutation, note []byte) error {
	mu := &p.stripes[len(pid)%len(p.stripes)]
	mu.Lock()
	defer mu.Unlock()
	if err := p.table.Mutate(ctx, pid, cells); err != nil {
		return err
	}
	return p.hooks.Store(note) // want "(httpapi.Client).Store performs I/O while mu is locked"
}
