package config_test

import (
	"testing"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/rfu"
)

// FuzzParseBasis pins the basis boundary every manager constructor
// takes: ParseBasis never panics, and a basis it accepts is valid,
// builds a core.Manager, and survives a MarshalBasis round trip
// unchanged. The committed corpus replays in go test; run with -fuzz to
// explore beyond it.
func FuzzParseBasis(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		basis, err := config.ParseBasis(data)
		if err != nil {
			return
		}
		for i, c := range basis {
			if err := c.Validate(); err != nil {
				t.Fatalf("accepted configuration %d is invalid: %v", i, err)
			}
		}
		core.NewManager(rfu.New(0), basis)
		out, err := config.MarshalBasis(basis)
		if err != nil {
			t.Fatalf("MarshalBasis: %v", err)
		}
		back, err := config.ParseBasis(out)
		if err != nil {
			t.Fatalf("ParseBasis of %s: %v", out, err)
		}
		if back != basis {
			t.Fatalf("round trip changed the basis:\n got %v\nwant %v", back, basis)
		}
	})
}
