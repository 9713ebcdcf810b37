package cpu

import (
	"errors"
	"fmt"
	"slices"
	"strings"

	"repro/internal/arch"
)

// Manager is a configuration-management strategy invoked once per cycle
// with the unit requirements of the unscheduled window instructions. The
// paper's steering manager (core.Manager, also the oracle with its exact
// CEM), the demand-driven core.DemandManager, the prefetch policy
// (predict.Manager) and package baseline's comparison strategies are
// Managers, and they load through rfu.Fabric.Load (the prefetch
// policy's speculative spans excepted) and emit on the fabric's
// observer. A nil Manager never reconfigures (a purely static machine).
//
// A Manage call made again with the same demand on an unchanged fabric
// repeats the last one exactly, counters aside, until a deadline of the
// manager's own, which NextEvent names; Run jumps the clock over such
// repeats and has Skip account for them.
type Manager interface {
	Manage(required arch.Counts)
	// NextEvent returns how many cycles ahead the first Manage call
	// falls that may not repeat the last one (1 is the next cycle's),
	// or math.MaxInt when every one would.
	NextEvent() int
	// Skip accounts for n repeats of the last Manage call, all before
	// NextEvent, without making them.
	Skip(n int)
}

// Policy names a configuration-management strategy. It is the typed
// identity of a strategy — the single place policy names live — as
// opposed to Manager, which is a strategy's per-machine instance. The
// zero value is PolicySteering.
type Policy int

const (
	// PolicySteering is the paper's configuration manager: per-cycle
	// selection over the steering basis, partial idle-only loading.
	PolicySteering Policy = iota
	// PolicyStaticInteger fixes the fabric to the integer steering
	// configuration and never reconfigures.
	PolicyStaticInteger
	// PolicyStaticMemory fixes the fabric to the memory configuration.
	PolicyStaticMemory
	// PolicyStaticFloating fixes the fabric to the floating-point
	// configuration.
	PolicyStaticFloating
	// PolicyNone leaves the fabric empty: only the five fixed units
	// execute instructions (a conventional single-unit-per-type core).
	PolicyNone
	// PolicyFullReconfig swaps whole configurations, waiting for the
	// fabric to drain — the predecessor architecture the paper extends.
	PolicyFullReconfig
	// PolicyOracle selects with the exact divider metric; pair it with
	// a small ReconfigLatency for an idealised upper bound.
	PolicyOracle
	// PolicyRandom loads a random basis configuration periodically.
	PolicyRandom
	// PolicyDemand synthesises configurations directly from the queue's
	// demand every cycle, with no predefined basis — the paper's §5
	// future-work direction.
	PolicyDemand
	// PolicyPrefetch is the steering manager plus the phase-aware
	// prediction subsystem (internal/predict): demand-history phase
	// detection and a Markov transition model drive speculative partial
	// reconfigurations on otherwise-unused configuration-bus spans.
	PolicyPrefetch

	numPolicies // sentinel: count of defined policies
)

// policyNames is the canonical name table — the only place policy names
// are spelled. ParsePolicy and String round-trip through it.
var policyNames = [numPolicies]string{
	PolicySteering:       "steering",
	PolicyStaticInteger:  "static-integer",
	PolicyStaticMemory:   "static-memory",
	PolicyStaticFloating: "static-floating",
	PolicyNone:           "ffu-only",
	PolicyFullReconfig:   "full-reconfig",
	PolicyOracle:         "oracle",
	PolicyRandom:         "random",
	PolicyDemand:         "demand",
	PolicyPrefetch:       "prefetch",
}

// Valid reports whether p is one of the defined policies.
func (p Policy) Valid() bool { return p >= 0 && p < numPolicies }

// String names the policy as the experiment tables and CLI flags do.
func (p Policy) String() string {
	if p.Valid() {
		return policyNames[p]
	}
	return fmt.Sprintf("Policy(%d)", int(p))
}

// ErrUnknownPolicy is wrapped by ParsePolicy and Policy.UnmarshalText
// failures, so callers can classify them with errors.Is.
var ErrUnknownPolicy = errors.New("unknown policy")

// Policies returns every defined policy in declaration order.
func Policies() []Policy {
	out := make([]Policy, numPolicies)
	for i := range out {
		out[i] = Policy(i)
	}
	return out
}

// ParsePolicy resolves a policy name; the error wraps ErrUnknownPolicy.
func ParsePolicy(s string) (Policy, error) {
	for p, name := range policyNames {
		if name == s {
			return Policy(p), nil
		}
	}
	return 0, fmt.Errorf("%w %q (known: %s)", ErrUnknownPolicy, s, strings.Join(policyNames[:], ", "))
}

// ClusterModes and ClusterArbiters are the canonical names of
// Params.ClusterMode and Params.ClusterArbiter, indexed by cluster.Mode
// and cluster.Arbiter: the only place they are spelled. They live below
// the cluster layer so that Params.Validate and cluster.New read the
// same tables.
var (
	ClusterModes    = [...]string{"merged", "split"}
	ClusterArbiters = [...]string{"round-robin", "demand-weighted"}
)

// ClusterIndex returns name's index in one of those tables, or -1 when
// the table does not spell it. The empty string selects index 0, the
// default.
func ClusterIndex(names []string, name string) int {
	if name == "" {
		return 0
	}
	return slices.Index(names, name)
}

// MarshalText implements encoding.TextMarshaler, so a Policy field
// serialises as its name in JSON documents (the rssd request schema).
func (p Policy) MarshalText() ([]byte, error) {
	if !p.Valid() {
		return nil, fmt.Errorf("%w Policy(%d)", ErrUnknownPolicy, int(p))
	}
	return []byte(policyNames[p]), nil
}

// UnmarshalText implements encoding.TextUnmarshaler for the reverse
// direction; the error wraps ErrUnknownPolicy.
func (p *Policy) UnmarshalText(text []byte) error {
	parsed, err := ParsePolicy(string(text))
	if err != nil {
		return err
	}
	*p = parsed
	return nil
}
