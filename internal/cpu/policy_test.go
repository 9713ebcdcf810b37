package cpu

import (
	"context"
	"encoding/json"
	"errors"
	"math"
	"strings"
	"testing"

	"repro/internal/isa"
	"repro/internal/predict"
)

func TestPolicyRoundTrip(t *testing.T) {
	for _, p := range Policies() {
		got, err := ParsePolicy(p.String())
		if err != nil {
			t.Errorf("ParsePolicy(%q): %v", p.String(), err)
			continue
		}
		if got != p {
			t.Errorf("ParsePolicy(%q) = %v, want %v", p.String(), got, p)
		}
		if !p.Valid() {
			t.Errorf("%v.Valid() = false", p)
		}
	}
}

func TestParsePolicyUnknown(t *testing.T) {
	_, err := ParsePolicy("bogus")
	if !errors.Is(err, ErrUnknownPolicy) {
		t.Fatalf("err = %v, want ErrUnknownPolicy", err)
	}
	// The error must name the valid spellings, so CLI and API users get
	// the menu, not just a rejection.
	if !strings.Contains(err.Error(), "steering") {
		t.Errorf("error %q does not list known policies", err)
	}
}

func TestPolicyZeroValueIsSteering(t *testing.T) {
	var p Policy
	if p != PolicySteering || p.String() != "steering" {
		t.Fatalf("zero Policy = %v (%q), want steering", p, p)
	}
}

func TestPolicyJSON(t *testing.T) {
	var doc struct {
		Policy Policy `json:"policy"`
	}
	if err := json.Unmarshal([]byte(`{"policy": "full-reconfig"}`), &doc); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if doc.Policy != PolicyFullReconfig {
		t.Errorf("policy = %v, want full-reconfig", doc.Policy)
	}
	out, err := json.Marshal(doc)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	if string(out) != `{"policy":"full-reconfig"}` {
		t.Errorf("marshal = %s", out)
	}
	if err := json.Unmarshal([]byte(`{"policy": "bogus"}`), &doc); !errors.Is(err, ErrUnknownPolicy) {
		t.Errorf("unmarshal bogus: err = %v, want ErrUnknownPolicy", err)
	}
}

func TestPolicyStringOutOfRange(t *testing.T) {
	if s := Policy(99).String(); !strings.Contains(s, "99") {
		t.Errorf("out-of-range String() = %q", s)
	}
	if Policy(99).Valid() {
		t.Errorf("Policy(99).Valid() = true")
	}
}

func TestParamsValidate(t *testing.T) {
	if err := DefaultParams().Validate(); err != nil {
		t.Errorf("default params invalid: %v", err)
	}
	if err := (Params{}).Validate(); err != nil {
		t.Errorf("zero params invalid: %v", err)
	}
	good := []Params{
		{ConfigBusWidth: 0}, // zero = unlimited bus, valid
		{ConfigBusWidth: 1},
		{FaultTransientRate: 0.5, FaultPermanentRate: 0.5, FaultScrubInterval: 64}, // sum exactly 1
		{FaultScrubInterval: 1},
		{PrefetchHistoryDepth: MaxPrefetchHistoryDepth},
		{CacheMissPenalty: MaxLatency},
		{ReconfigLatency: MaxLatency},
		{Latencies: isa.Latencies{IntALU: 1, IntMul: 1, IntDiv: 1, Load: 1, Store: 1, FPALU: 1, FPMul: 1, FPDiv: 1, FPSqrt: MaxLatency}},
	}
	for i, p := range good {
		if err := p.Validate(); err != nil {
			t.Errorf("good[%d]: unexpected error %v", i, err)
		}
	}
	bad := []Params{
		{WindowSize: -1},
		{ReconfigLatency: -8},
		{ConfigBusWidth: -1},
		{MemBytes: 1000}, // not a power of two
		{CacheLineBytes: 48},
		{IssueOrder: IssueOrder(99)},
		{FaultTransientRate: -0.1},
		{FaultPermanentRate: 1.5},
		{FaultTransientRate: 0.7, FaultPermanentRate: 0.7}, // sum > 1
		{FaultTransientRate: math.NaN()},
		{FaultScrubInterval: -1},
		{FaultTransientRate: 0.5, FaultPermanentRate: 0.5}, // rates without a scrub interval
		{FaultTransientRate: 0.002},                        // ditto, transient only
		{FaultPermanentRate: 0.001, FaultScrubInterval: 0}, // explicit zero scrub
		{PrefetchHistoryDepth: MaxPrefetchHistoryDepth + 1},
		{PrefetchHistoryDepth: 1 << 33}, // a 343 GB ring
		{CacheMissPenalty: MaxLatency + 1},
		{CacheMissPenalty: 1 << 32},  // truncated by the wake-up timers
		{ReconfigLatency: 1<<32 + 1}, // truncated to 1 in reconfig events
		{Latencies: isa.Latencies{IntALU: 1, IntMul: 1, IntDiv: 1, Load: 1, Store: 1, FPALU: 1, FPMul: 1, FPDiv: 1, FPSqrt: MaxLatency + 1}},
		{Latencies: isa.Latencies{IntALU: 1 << 32, IntMul: 1, IntDiv: 1, Load: 1, Store: 1, FPALU: 1, FPMul: 1, FPDiv: 1, FPSqrt: 1}},
	}
	for i, p := range bad {
		if err := p.Validate(); !errors.Is(err, ErrInvalidParams) {
			t.Errorf("bad[%d]: err = %v, want ErrInvalidParams", i, err)
		}
	}
}

// TestPrefetchHistoryCap pins Params.Validate's ring cap to the
// predictor's own: the detector's reciprocal division is exact only up
// to predict.MaxHistoryDepth.
func TestPrefetchHistoryCap(t *testing.T) {
	if MaxPrefetchHistoryDepth != predict.MaxHistoryDepth {
		t.Errorf("MaxPrefetchHistoryDepth = %d, predict.MaxHistoryDepth = %d", MaxPrefetchHistoryDepth, predict.MaxHistoryDepth)
	}
}

// Run is this package's tests' way to run a processor: the run loop
// to maxCycles, then the statistics.
func (p *Processor) Run(maxCycles int) (Stats, error) {
	err := Run(context.Background(), p, maxCycles)
	return p.Stats(), err
}

// runCycles is the no-skip reference for Run: it clocks the processor
// with Cycle alone to HALT or maxCycles.
func (p *Processor) runCycles(maxCycles int) (Stats, error) {
	for !p.Halted() && p.Cycles() < maxCycles {
		p.Cycle()
	}
	if !p.Halted() {
		return p.Stats(), ErrCycleLimit
	}
	return p.Stats(), nil
}
