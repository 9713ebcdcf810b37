// pool.go bounds the server's simulation concurrency with two nested
// semaphores: a queue semaphore capping how many jobs may be admitted at
// once (running plus waiting — beyond it requests are rejected with 503
// rather than piling up), and a slot semaphore capping how many admitted
// jobs actually simulate concurrently. /v1/run holds one admission token
// and one slot per request; each job point takes one slot for its
// simulation and no admission token, so a large job never exceeds the
// worker budget and never crowds synchronous requests out of admission.
package server

import "context"

// pool is the bounded admission queue plus worker slots.
type pool struct {
	slots chan struct{} // one token per running simulation
	queue chan struct{} // one token per admitted (running or waiting) job
}

// newPool sizes the pool: workers concurrent simulations, and up to
// workers+backlog admitted jobs in total.
func newPool(workers, backlog int) *pool {
	return &pool{
		slots: make(chan struct{}, workers),
		queue: make(chan struct{}, workers+backlog),
	}
}

// admit reserves an admission token without blocking; false means the
// backlog is full and the request should be rejected with 503.
func (p *pool) admit() bool {
	select {
	case p.queue <- struct{}{}:
		return true
	default:
		return false
	}
}

// leave returns an admission token.
func (p *pool) leave() { <-p.queue }

// acquire blocks until a worker slot frees or the context ends.
func (p *pool) acquire(ctx context.Context) error {
	select {
	case p.slots <- struct{}{}:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// release returns a worker slot.
func (p *pool) release() { <-p.slots }

// running returns the number of occupied worker slots.
func (p *pool) running() int { return len(p.slots) }

// admitted returns the number of admitted (running or waiting) jobs.
func (p *pool) admitted() int { return len(p.queue) }

// workers returns the worker-slot capacity.
func (p *pool) workers() int { return cap(p.slots) }
