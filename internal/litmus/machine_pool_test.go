package litmus

import (
	"fmt"
	"testing"

	"repro/internal/arch"
	"repro/internal/mesi"
	"repro/internal/programs"
	"repro/internal/storebuf"
	"repro/internal/tso"
)

// drainMachinePool empties the process-wide machine free list.
func drainMachinePool() {
	machineMu.Lock()
	defer machineMu.Unlock()
	clear(machineFree)
}

// pooledMachines is how many machines of cfg the free list holds.
func pooledMachines(cfg arch.Config) int {
	machineMu.Lock()
	defer machineMu.Unlock()
	return len(machineFree[cfg])
}

// poolSummary is what an exploration must report the same whatever the
// free list held when it started.
func poolSummary(r Result) string {
	return fmt.Sprintf("states=%d transitions=%d violations=%d deadlocks=%d truncated=%v outcomes=%#x trace=%v",
		r.States, r.Transitions, r.Violations, r.Deadlocks, r.Truncated, outcomesHash(r), r.ViolationTrace)
}

// TestMachinePoolKeepsResults: back-to-back explorations of different
// programs under different Configs and options report the same results
// when the machine and trace-slab free lists are full of what other runs
// left as when they are empty. Two of the programs share a Config, so one
// draws the other's machines; one run stops at its first violation and
// leaves frames; the unstopped Dekker run carves several slabs, so a slab
// handed out twice would overwrite live links. Every run has one worker,
// so each result, trace included, is deterministic.
func TestMachinePoolKeepsResults(t *testing.T) { machinePoolKeepsResults(t) }

// TestMachinePoolKeepsResultsHeldFrame is the same with every worker
// keying frames one ahead from its first claim (run): a machine drawn
// from the free list into a held frame changes no result either.
func TestMachinePoolKeepsResultsHeldFrame(t *testing.T) {
	pipelineFromFirstClaim(t)
	machinePoolKeepsResults(t)
}

func machinePoolKeepsResults(t *testing.T) {
	defer drainMachinePool()
	defer drainSlabPool()
	me := []Property{MutualExclusion}
	d0, d1 := programs.DekkerPair(programs.DekkerNoFence)
	p0, p1 := programs.PetersonPair(programs.DekkerMfence)
	small := func(progs ...*tso.Program) func() *tso.Machine {
		cfg := arch.DefaultConfig()
		cfg.Procs, cfg.MemWords, cfg.StoreBufferDepth = len(progs), 24, 2
		return func() *tso.Machine { return tso.NewMachine(cfg, progs...) }
	}
	cases := []struct {
		name  string
		build func() *tso.Machine
		opts  Options
	}{
		{"SB", catalogMachine("SB"), Options{}},
		{"dekker/nofence", machineFor(d0, d1), Options{Properties: me}},
		{"dekker/nofence/stop", machineFor(d0, d1), Options{Properties: me, StopOnViolation: true}},
		{"dekker/nofence/reduced-stop", machineFor(d0, d1), Options{Properties: me, Reduction: true, StopOnViolation: true}},
		{"IRIW", catalogMachine("IRIW"), Options{}},
		{"MP/pso", withConfig(catalogMachine("MP"), func(c *arch.Config) { c.Model = arch.PSO }), Options{}},
		{"peterson/sb2", small(p0, p1), Options{Properties: me}},
		{"peterson/sb2/collapse", small(p0, p1), Options{Properties: me, Collapse: true}},
	}
	for i := range cases {
		cases[i].opts.Workers = 1
	}
	ref := make([]string, len(cases))
	for i, c := range cases {
		drainMachinePool()
		drainSlabPool()
		ref[i] = poolSummary(Explore(c.build, c.opts))
	}
	for _, c := range cases {
		Explore(c.build, c.opts)
	}
	if pooledSlabs() < 2 {
		t.Fatalf("the slab free list holds %d slabs", pooledSlabs())
	}
	for i, c := range cases {
		if pooledMachines(c.build().Cfg) == 0 {
			t.Fatalf("%s: the free list holds no machine of its Config", c.name)
		}
		if got := poolSummary(Explore(c.build, c.opts)); got != ref[i] {
			t.Errorf("%s with a full free list:\n%s\nwith an empty one:\n%s", c.name, got, ref[i])
		}
	}
}

// TestMachinePoolIsBounded: however many machines explorations retire,
// the free list keeps at most maxPooledMachines of each Config and
// lists for at most maxPooledConfigs Configs.
func TestMachinePoolIsBounded(t *testing.T) {
	drainMachinePool()
	defer drainMachinePool()
	progs := Catalog()[0].Build()
	for k := range maxPooledConfigs + 2 {
		cfg := arch.DefaultConfig()
		cfg.Procs, cfg.MemWords = len(progs), 16+k
		// One worker retires a full free list, another the frames a
		// cancel left: twice the cap between them.
		var free []*tso.Machine
		var frames []pframe
		for range maxPooledMachines {
			free = append(free, tso.NewMachine(cfg, progs...))
			frames = append(frames, pframe{m: tso.NewMachine(cfg, progs...)})
		}
		e := &engine{cfg: cfg, workers: []*worker{{free: free}, {priv: frames}}}
		e.retireMachines()
		if got := pooledMachines(cfg); got != maxPooledMachines {
			t.Errorf("Config %d: %d machines pooled, want %d", k, got, maxPooledMachines)
		}
	}
	machineMu.Lock()
	configs := len(machineFree)
	machineMu.Unlock()
	if configs > maxPooledConfigs {
		t.Errorf("the free list holds %d Configs, at most %d allowed", configs, maxPooledConfigs)
	}
}

// countTracer counts the events a machine reports to it.
type countTracer struct{ events int }

func (c *countTracer) OnExec(arch.ProcID, int, tso.Instr)                   { c.events++ }
func (c *countTracer) OnDrain(arch.ProcID, storebuf.Entry)                  { c.events++ }
func (c *countTracer) OnLinkBreak(arch.ProcID, arch.Addr, mesi.GuardReason) { c.events++ }

// TestMachinePoolDropsTracer: a root machine that build handed out with
// a Tracer reaches the free list without it, so a later exploration that
// draws it reports nothing to the first run's tracer. (Clone and CopyFrom
// never copy a Tracer; the root is the one machine that can carry one.)
func TestMachinePoolDropsTracer(t *testing.T) {
	drainMachinePool()
	defer drainMachinePool()
	tr := &countTracer{}
	build := catalogMachine("SB")
	var root *tso.Machine
	Explore(func() *tso.Machine {
		root = build()
		root.Tracer = tr
		return root
	}, Options{Workers: 1})
	machineMu.Lock()
	pooled := false
	for _, m := range machineFree[root.Cfg] {
		pooled = pooled || m == root
		if m.Tracer != nil {
			t.Errorf("a pooled machine carries a Tracer")
		}
	}
	machineMu.Unlock()
	if !pooled {
		t.Fatal("the traced root never reached the free list")
	}
	before := tr.events
	if before == 0 {
		t.Fatal("the traced root reported no events")
	}
	Explore(catalogMachine("2+2W"), Options{Workers: 1})
	if tr.events != before {
		t.Errorf("a later exploration reported %d events to an earlier run's tracer", tr.events-before)
	}
}
