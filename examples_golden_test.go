package repro_test

import (
	"os"
	"os/exec"
	"path/filepath"
	"testing"
)

// exampleNames are the example programs under examples/, each pinned
// by testdata/examples/<name>.golden.
var exampleNames = []string{"quickstart", "phases", "legacybinary", "futurework", "kernels"}

// TestExamplesGolden builds every example program and compares its
// stdout, byte for byte, with the captured file. The examples run
// through repro.Machine.Run, so a change to the run loop or the report
// that moves a figure shows here.
func TestExamplesGolden(t *testing.T) {
	bin := t.TempDir()
	args := []string{"build", "-o", bin + string(filepath.Separator)}
	for _, name := range exampleNames {
		args = append(args, "./examples/"+name)
	}
	if out, err := exec.Command("go", args...).CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	for _, name := range exampleNames {
		t.Run(name, func(t *testing.T) {
			cmd := exec.Command(filepath.Join(bin, name))
			cmd.Stderr = os.Stderr
			got, err := cmd.Output()
			if err != nil {
				t.Fatalf("run: %v", err)
			}
			want, err := os.ReadFile(filepath.Join("testdata", "examples", name+".golden"))
			if err != nil {
				t.Fatal(err)
			}
			if string(got) != string(want) {
				t.Errorf("stdout differs from testdata/examples/%s.golden:\n%s", name, got)
			}
		})
	}
}
