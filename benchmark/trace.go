package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"time"
)

// span is one timed interval at a layer boundary. Spans are recorded
// only here in benchmark/, around the driver's own calls into each
// package's public functions; the program under test carries none.
type span struct {
	ID       int    `json:"id"`
	Name     string `json:"name"`
	StartNs  int64  `json:"start_ns"`
	EndNs    int64  `json:"end_ns"`
	Parent   int    `json:"parent"` // id of the span that caused this one; -1 for the root
	Workload string `json:"workload"`
	// Calls is how many calls of the named function the span covers: a
	// probe span batches thousands so no per-call clock read is timed.
	Calls int `json:"calls,omitempty"`
}

// tracer holds a run's spans in memory until the run ends. A nil tracer
// records nothing, which is how the untraced reps run. Spans are only
// opened from the driver's main goroutine, so there is no lock.
type tracer struct {
	workload string
	t0       time.Time
	spans    []span
}

func newTracer(workload string) *tracer {
	return &tracer{workload: workload, t0: time.Now()}
}

// begin opens a span under parent and returns its id (-1 when off).
func (t *tracer) begin(name string, parent int) int {
	if t == nil {
		return -1
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Name: name, Parent: parent, Workload: t.workload,
		StartNs: time.Since(t.t0).Nanoseconds()})
	return id
}

// end closes span id, noting how many calls it covered.
func (t *tracer) end(id, calls int) {
	if t == nil || id < 0 {
		return
	}
	t.spans[id].EndNs = time.Since(t.t0).Nanoseconds()
	t.spans[id].Calls = calls
}

// add records an already-measured interval of dur ending now; the
// batched probe loops use it for the sum of their timed chunks.
func (t *tracer) add(name string, parent int, dur time.Duration, calls int) {
	if t == nil {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.spans = append(t.spans, span{ID: len(t.spans), Name: name, Parent: parent, Workload: t.workload,
		StartNs: now - dur.Nanoseconds(), EndNs: now, Calls: calls})
}

// write stores the spans as benchmark/out/trace-<workload>.json.
func (t *tracer) write(root string) (string, error) {
	dir := filepath.Join(root, "benchmark", "out")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	data, err := json.MarshalIndent(t.spans, "", " ")
	if err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace-"+t.workload+".json")
	return path, os.WriteFile(path, append(data, '\n'), 0o644)
}
