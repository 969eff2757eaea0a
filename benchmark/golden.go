package main

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
)

// golden is benchmark/golden.json: the pinned answers every run is
// checked against, one set per scale. Explore and daemon pins hold for
// any -seed (it changes the order of their inputs, not the inputs);
// corpus pins are those of corpus seed CorpusSeed.
type golden struct {
	CorpusSeed int64                   `json:"corpus_seed"`
	Scales     map[string]*goldenScale `json:"scales"`
}

type goldenScale struct {
	Explore map[string]explorePin `json:"explore"`
	// CorpusRows are synth-plain's per-row verdicts on the pinned corpus;
	// synth-accel must reproduce the leading rows.
	CorpusRows []string `json:"corpus_rows"`
	Repaired   int      `json:"corpus_repaired"`
	Safe       int      `json:"corpus_safe"`
	Unrepair   int      `json:"corpus_unrepairable"`
	// Jobs and JobVerdicts pin the daemon batch: how many jobs, and a
	// hash over every job's reference verdict.
	Jobs        int    `json:"daemon_jobs"`
	JobVerdicts string `json:"daemon_verdicts"`
}

// explorePin is one explore-* workload's answer. States and
// Transitions are 0 where scheduling moves them (under partial-order
// reduction); Outcomes hashes the outcome multiset, or the outcome set
// where reduction may change the multiplicities.
type explorePin struct {
	Program     string `json:"program"`
	States      int    `json:"states,omitempty"`
	Transitions int    `json:"transitions,omitempty"`
	Violations  int    `json:"violations"`
	Deadlocks   int    `json:"deadlocks"`
	Outcomes    string `json:"outcomes"`
}

func goldenPath(root string) string { return filepath.Join(root, "benchmark", "golden.json") }

func loadGolden(root string) (*golden, error) {
	data, err := os.ReadFile(goldenPath(root))
	if err != nil {
		return nil, err
	}
	var g golden
	if err := json.Unmarshal(data, &g); err != nil {
		return nil, fmt.Errorf("golden.json: %w", err)
	}
	return &g, nil
}

// pins returns the scale's pins, empty when golden.json has none yet
// (only -update-golden gets that far).
func (e *env) pins() *goldenScale {
	if g := e.golden.Scales[e.scale.name]; g != nil {
		return g
	}
	return &goldenScale{}
}

// hashLines is the pin format for a list the caller produces in a
// fixed order: one hash over every line.
func hashLines(lines []string) string {
	h := fnv.New64a()
	for _, l := range lines {
		h.Write([]byte(l))
		h.Write([]byte{'\n'})
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// updateGolden recomputes the current scale's pins from one run of each
// workload's reference computation and rewrites golden.json. It refuses
// on a dirty tree: pins must describe a commit.
func updateGolden(e *env) error {
	if !e.pinnedCorpus() {
		return fmt.Errorf("-update-golden pins corpus seed %d only", defaultSeed)
	}
	// The pins describe the program under test, so what must be clean is
	// what determines its answers, not the benchmark's own files.
	status, ok := gitOutput(e.root, "status", "--porcelain", "--", "go.mod", "internal", "cmd", "examples")
	if !ok {
		return fmt.Errorf("-update-golden needs a git checkout")
	}
	if status != "" {
		return fmt.Errorf("-update-golden refuses a dirty tree:\n%s", status)
	}

	gs := &goldenScale{Explore: make(map[string]explorePin)}
	for _, w := range []*exploreWorkload{newExplorePlain(), newExploreQuotient(), newExplorePOR()} {
		pin, err := w.computePin(e)
		if err != nil {
			return err
		}
		gs.Explore[w.name()] = pin
		fmt.Printf("%s: %+v\n", w.name(), pin)
	}
	plain := newSynthPlain()
	if err := plain.setup(e); err != nil {
		return err
	}
	res, err := plain.sweep(e)
	if err != nil {
		return err
	}
	if res.Errors > 0 || res.ContractFailures > 0 {
		return fmt.Errorf("corpus sweep: %d errors, %d contract failures; not pinning", res.Errors, res.ContractFailures)
	}
	gs.CorpusRows = corpusRows(res)
	gs.Repaired, gs.Safe, gs.Unrepair = res.Repaired, res.AlreadySafe, res.Unrepairable
	fmt.Printf("synth-plain: %d repaired / %d safe / %d unrepairable\n", gs.Repaired, gs.Safe, gs.Unrepair)

	d := newDaemonBatch()
	if err := d.generate(e); err != nil {
		return err
	}
	if err := d.prepare(e); err != nil {
		return err
	}
	gs.Jobs, gs.JobVerdicts = len(d.jobs), d.verdictHash()
	fmt.Printf("daemon-batch: %d jobs, verdicts %s\n", gs.Jobs, gs.JobVerdicts)

	if e.golden.Scales == nil {
		e.golden.Scales = make(map[string]*goldenScale)
	}
	e.golden.CorpusSeed = defaultSeed
	e.golden.Scales[e.scale.name] = gs
	data, err := json.MarshalIndent(e.golden, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(goldenPath(e.root), append(data, '\n'), 0o644)
}
