// store.go is the durable half of the fabric: one JSON spec file plus
// one append-only JSONL results file per job, under a single directory.
// Every completed point is appended and fsynced before it is
// acknowledged anywhere else, so the store is always a prefix of the
// truth — a crash loses at most the in-flight points, never a completed
// one. Loading tolerates torn and corrupted records (the classic
// crash-mid-append artifact): bad lines are counted and skipped, and
// the points they would have covered simply run again.
package job

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"

	"repro/internal/api"
)

// Store is the job registry: an in-memory index over an optional
// directory of durable job files. An empty dir keeps jobs in memory
// only (still a working fabric, just not restart-safe).
type Store struct {
	dir string

	mu      sync.Mutex
	jobs    map[string]*Job
	order   []string            // creation order, for stable listings
	files   map[string]*os.File // open append handles, by job ID
	skipped int                 // corrupted records tolerated at load
}

// specDoc is the durable form of a job's immutable half.
type specDoc struct {
	ID   string `json:"id"`
	Spec Spec   `json:"spec"`
}

// resultRecord is one line of a job's results JSONL file.
type resultRecord struct {
	Record string           `json:"record"` // "point" | "state"
	Point  *api.PointResult `json:"point,omitempty"`
	State  api.JobState     `json:"state,omitempty"`
}

// Open builds a store over dir, loading every job already there. A
// job whose results cover every point is finalized as done; the rest
// come back incomplete, ready for Coordinator.Resume. An empty dir
// yields a volatile in-memory store.
func Open(dir string) (*Store, error) {
	st := &Store{
		dir:   dir,
		jobs:  map[string]*Job{},
		files: map[string]*os.File{},
	}
	if dir == "" {
		return st, nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("job store: %w", err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("job store: %w", err)
	}
	var names []string
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".json") {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	for _, name := range names {
		if err := st.loadJob(filepath.Join(dir, name)); err != nil {
			return nil, err
		}
	}
	return st, nil
}

// Dir returns the backing directory ("" for a volatile store).
func (st *Store) Dir() string { return st.dir }

// Skipped returns the number of corrupted records tolerated while
// loading — torn writes from a crash, stray garbage, and spec files
// whose ID does not match their file name.
func (st *Store) Skipped() int {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.skipped
}

// loadJob reads one spec file and replays its results log.
func (st *Store) loadJob(specPath string) error {
	raw, err := os.ReadFile(specPath)
	if err != nil {
		return fmt.Errorf("job store: %w", err)
	}
	var doc specDoc
	stem := strings.TrimSuffix(filepath.Base(specPath), ".json")
	if err := json.Unmarshal(raw, &doc); err != nil || doc.ID == "" || doc.ID != stem || len(doc.Spec.Points) == 0 {
		// A corrupted spec is unrecoverable for that job; tolerate and
		// move on rather than refusing to boot the whole fabric. The ID
		// must name its own file: any other would read and append a
		// results log elsewhere, or list one job twice.
		st.skipped++
		return nil
	}
	j := newJob(doc.ID, doc.Spec)

	var state api.JobState
	data, err := os.ReadFile(st.resultsPath(doc.ID))
	if err != nil && !errors.Is(err, os.ErrNotExist) {
		return fmt.Errorf("job store: %w", err)
	}
	for _, line := range strings.Split(string(data), "\n") {
		if strings.TrimSpace(line) == "" {
			continue
		}
		var rec resultRecord
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			st.skipped++
			continue
		}
		switch rec.Record {
		case "point":
			if rec.Point == nil || rec.Point.Index < 0 || rec.Point.Index >= len(j.results) {
				st.skipped++
				continue
			}
			j.recordResult(rec.Point)
		case "state":
			state = rec.State
		default:
			st.skipped++
		}
	}
	switch {
	case state == api.JobCancelled:
		j.state = api.JobCancelled
	case j.done == len(j.results):
		j.state = api.JobDone
	default:
		// Incomplete: stays pending until Resume re-enqueues it.
		j.state = api.JobPending
	}
	st.jobs[j.ID] = j
	st.order = append(st.order, j.ID)
	return nil
}

func (st *Store) specPath(id string) string    { return filepath.Join(st.dir, id+".json") }
func (st *Store) resultsPath(id string) string { return filepath.Join(st.dir, id+".results.jsonl") }

// Create persists a new job and registers it.
func (st *Store) Create(spec Spec) (*Job, error) {
	j := newJob(newID(), spec)
	if st.dir != "" {
		raw, err := json.MarshalIndent(specDoc{ID: j.ID, Spec: spec}, "", "  ")
		if err != nil {
			return nil, fmt.Errorf("job store: encoding spec: %w", err)
		}
		if err := writeFileSync(st.specPath(j.ID), raw); err != nil {
			return nil, fmt.Errorf("job store: %w", err)
		}
	}
	st.mu.Lock()
	st.jobs[j.ID] = j
	st.order = append(st.order, j.ID)
	st.mu.Unlock()
	return j, nil
}

// Get looks a job up by ID.
func (st *Store) Get(id string) (*Job, bool) {
	st.mu.Lock()
	defer st.mu.Unlock()
	j, ok := st.jobs[id]
	return j, ok
}

// Jobs returns every job in creation order.
func (st *Store) Jobs() []*Job {
	st.mu.Lock()
	defer st.mu.Unlock()
	out := make([]*Job, 0, len(st.order))
	for _, id := range st.order {
		out = append(out, st.jobs[id])
	}
	return out
}

// AppendPoint makes one completed point durable. It must be called
// before the result is surfaced anywhere (events, status), so the
// store never lags what clients have seen.
func (st *Store) AppendPoint(j *Job, res *api.PointResult) error {
	return st.append(j.ID, resultRecord{Record: "point", Point: res})
}

// MarkState appends a state marker (done, cancelled) and, on a
// terminal state, closes the job's results file.
func (st *Store) MarkState(j *Job, state api.JobState) error {
	err := st.append(j.ID, resultRecord{Record: "state", State: state})
	if state.Terminal() {
		st.mu.Lock()
		if f, ok := st.files[j.ID]; ok {
			f.Close()
			delete(st.files, j.ID)
		}
		st.mu.Unlock()
	}
	return err
}

// append writes one record line to the job's results log and syncs it.
func (st *Store) append(id string, rec resultRecord) error {
	if st.dir == "" {
		return nil
	}
	line, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("job store: encoding record: %w", err)
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	f, ok := st.files[id]
	if !ok {
		f, err = os.OpenFile(st.resultsPath(id), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return fmt.Errorf("job store: %w", err)
		}
		st.files[id] = f
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		return fmt.Errorf("job store: %w", err)
	}
	if err := f.Sync(); err != nil {
		return fmt.Errorf("job store: %w", err)
	}
	return nil
}

// Close releases every open results handle.
func (st *Store) Close() error {
	st.mu.Lock()
	defer st.mu.Unlock()
	var first error
	for id, f := range st.files {
		if err := f.Close(); err != nil && first == nil {
			first = err
		}
		delete(st.files, id)
	}
	return first
}

// writeFileSync writes data and fsyncs before closing, so a spec file
// survives a crash right after Create.
func writeFileSync(path string, data []byte) error {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
