package job

import (
	"os"
	"path/filepath"
	"testing"
)

// FuzzStoreOpen writes the fuzzed bytes as two copies of one job, the
// spec files a.json and b.json each beside the fuzzed results log, and
// opens a store over them. Open must never panic, content alone must
// never make it fail, and every loaded job's ID must equal its file's
// stem, so neither copy can read another file's log or list a job
// twice. The committed corpus replays in go test; run with -fuzz to
// explore beyond it.
func FuzzStoreOpen(f *testing.F) {
	f.Fuzz(func(t *testing.T, spec, results []byte) {
		dir := t.TempDir()
		for _, stem := range []string{"a", "b"} {
			if err := os.WriteFile(filepath.Join(dir, stem+".json"), spec, 0o644); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(dir, stem+".results.jsonl"), results, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		st, err := Open(dir)
		if err != nil {
			t.Fatalf("Open failed on content: %v", err)
		}
		defer st.Close()
		seen := map[string]bool{}
		for _, j := range st.Jobs() {
			if (j.ID != "a" && j.ID != "b") || seen[j.ID] {
				t.Fatalf("loaded job %q: want each of a and b at most once", j.ID)
			}
			seen[j.ID] = true
		}
	})
}
