package repro_test

import (
	"context"
	"errors"
	"reflect"
	"testing"
	"time"

	"repro"
	"repro/internal/cluster"
	"repro/internal/cpu"
)

// runner is one way to run a program: a fresh machine's run call
// and its cycle count.
type runner struct {
	name  string
	build func(prog repro.Program) (run func(ctx context.Context, maxCycles int) (any, error), cycles func() int)
}

var runners = []runner{
	{"processor", func(prog repro.Program) (func(context.Context, int) (any, error), func() int) {
		p := repro.NewMachine(prog, repro.Options{}).Processor()
		return func(ctx context.Context, maxCycles int) (any, error) {
			err := cpu.Run(ctx, p, maxCycles)
			return p.Stats(), err
		}, p.Cycles
	}},
	{"machine", func(prog repro.Program) (func(context.Context, int) (any, error), func() int) {
		m := repro.NewMachine(prog, repro.Options{})
		return func(ctx context.Context, maxCycles int) (any, error) {
			return m.RunContext(ctx, maxCycles)
		}, func() int { return m.Stats().Cycles }
	}},
	{"cluster-k2-merged", func(prog repro.Program) (func(context.Context, int) (any, error), func() int) {
		opt := repro.Options{Params: repro.Params{Cores: 2, ClusterMode: "merged"}}
		c := cluster.New(prog, opt)
		return func(ctx context.Context, maxCycles int) (any, error) {
			return c.RunContext(ctx, maxCycles)
		}, c.Cycles
	}},
}

// pollLimit is a context that reports Canceled from its (n+1)th poll
// on, so a run stops at a known interval boundary.
type pollLimit struct {
	context.Context
	n int
}

func (c *pollLimit) Err() error {
	if c.n == 0 {
		return context.Canceled
	}
	c.n--
	return nil
}

// TestRunLoop holds the scalar processor, the facade machine and a
// two-core cluster to the one run loop's contract: the budget, the
// context poll every cpu.CtxCheckInterval cycles, and a resumable stop.
func TestRunLoop(t *testing.T) {
	spin := repro.MustAssemble("loop: j loop\n")
	prog := repro.Synthesize(repro.AlternatingPhases(3000, 300), 7)
	for _, d := range runners {
		t.Run(d.name, func(t *testing.T) {
			t.Run("budget", func(t *testing.T) {
				run, cycles := d.build(spin)
				if _, err := run(context.Background(), 3000); !errors.Is(err, repro.ErrCycleLimit) {
					t.Fatalf("err = %v, want ErrCycleLimit", err)
				}
				if got := cycles(); got != 3000 {
					t.Errorf("stopped at cycle %d, want the budget 3000", got)
				}
			})
			t.Run("pre-cancelled", func(t *testing.T) {
				run, cycles := d.build(spin)
				ctx, cancel := context.WithCancel(context.Background())
				cancel()
				if _, err := run(ctx, 1<<40); !errors.Is(err, context.Canceled) {
					t.Fatalf("err = %v, want Canceled", err)
				}
				if got := cycles(); got != 0 {
					t.Errorf("pre-cancelled run simulated %d cycles", got)
				}
			})
			t.Run("deadline", func(t *testing.T) {
				run, cycles := d.build(spin)
				ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
				defer cancel()
				if _, err := run(ctx, 1<<40); !errors.Is(err, context.DeadlineExceeded) {
					t.Fatalf("err = %v, want DeadlineExceeded", err)
				}
				if got := cycles(); got == 0 || got%cpu.CtxCheckInterval != 0 {
					t.Errorf("stopped at cycle %d, want a positive multiple of %d", got, cpu.CtxCheckInterval)
				}
			})
			t.Run("cancel-mid-run", func(t *testing.T) {
				// A cancel from another goroutine lands mid-interval; the
				// run finishes that interval and stops on its boundary.
				run, cycles := d.build(spin)
				ctx, cancel := context.WithCancel(context.Background())
				done := make(chan struct{})
				var err error
				go func() {
					defer close(done)
					_, err = run(ctx, 1<<40)
				}()
				time.Sleep(5 * time.Millisecond)
				cancel()
				select {
				case <-done:
				case <-time.After(5 * time.Second):
					t.Fatal("run did not return after cancellation")
				}
				if !errors.Is(err, context.Canceled) {
					t.Fatalf("err = %v, want Canceled", err)
				}
				if got := cycles(); got%cpu.CtxCheckInterval != 0 {
					t.Errorf("stopped mid-interval at cycle %d (interval %d)", got, cpu.CtxCheckInterval)
				}
			})
			t.Run("cancel-resume", func(t *testing.T) {
				run, _ := d.build(prog)
				want, err := run(context.Background(), 1_000_000)
				if err != nil {
					t.Fatal(err)
				}
				run, cycles := d.build(prog)
				if _, err := run(&pollLimit{context.Background(), 2}, 1_000_000); !errors.Is(err, context.Canceled) {
					t.Fatalf("interrupted run: err = %v, want Canceled", err)
				}
				if got := cycles(); got != 2*cpu.CtxCheckInterval {
					t.Fatalf("interrupted run stopped at cycle %d, want %d", got, 2*cpu.CtxCheckInterval)
				}
				got, err := run(context.Background(), 1_000_000)
				if err != nil {
					t.Fatalf("resumed run: %v", err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Errorf("resumed run's stats differ from an uninterrupted run:\n got %+v\nwant %+v", got, want)
				}
			})
		})
	}
}
