package harness

import (
	"fmt"
	"time"

	"repro/internal/arch"
	"repro/internal/litmus"
	"repro/internal/stats"
)

// PSORow is one catalog test explored under both memory models. The
// TSO run is the reference; the PSO run must classify the relaxed
// outcome per the catalog's hand-checked PSO expectation and must
// weaken TSO — reach at least the TSO states, every TSO outcome, and
// every TSO violation (a TSO drain is the PSO drain of address class
// 0, so the TSO state graph embeds in the PSO one).
type PSORow struct {
	Name      string
	StatesTSO int
	StatesPSO int
	// Ratio is StatesPSO/StatesTSO: >1 means per-address drains opened
	// additional reorderings; 1 means the test never holds stores to two
	// addresses at once.
	Ratio float64
	// AllowedTSO/AllowedPSO are the catalog's expected classifications.
	AllowedTSO bool
	AllowedPSO bool
	// Superset is the weakening check against the TSO reference.
	Superset bool
	Pass     bool
	Err      error
}

// PSOResult is the litmus_pso experiment: the classic catalog under
// per-address store buffering, with the TSO-embedding contract checked
// on every row.
type PSOResult struct {
	Rows []PSORow
	// Elapsed and StatesTotal aggregate both models' explorations for
	// the throughput metric.
	Elapsed     time.Duration
	StatesTotal int
}

// RunPSO explores every catalog test under TSO and PSO and checks both
// classifications plus the weakening contract. workers sizes each
// exploration pool (0 = GOMAXPROCS).
func RunPSO(workers int) *PSOResult {
	res := &PSOResult{}
	start := time.Now()
	for _, ct := range litmus.Catalog() {
		pso := ct
		pso.Config.Model = arch.PSO
		tsoRes, tsoErr := litmus.RunCatalogTestOpts(ct, litmus.Options{Workers: workers})
		psoRes, psoErr := litmus.RunCatalogTestOpts(pso, litmus.Options{Workers: workers})
		row := PSORow{
			Name:       ct.Name,
			StatesTSO:  tsoRes.States,
			StatesPSO:  psoRes.States,
			AllowedTSO: ct.Allowed(arch.TSO),
			AllowedPSO: ct.Allowed(arch.PSO),
			Err:        tsoErr,
		}
		if row.Err == nil {
			row.Err = psoErr
		}
		if tsoRes.States > 0 {
			row.Ratio = float64(psoRes.States) / float64(tsoRes.States)
		}
		row.Superset = psoRes.States >= tsoRes.States &&
			psoRes.Violations >= tsoRes.Violations &&
			psoRes.Deadlocks >= tsoRes.Deadlocks
		if row.Superset {
			for o := range tsoRes.Outcomes {
				if _, ok := psoRes.Outcomes[o]; !ok {
					row.Superset = false
					break
				}
			}
		}
		row.Pass = row.Err == nil && row.Superset
		res.StatesTotal += tsoRes.States + psoRes.States
		res.Rows = append(res.Rows, row)
	}
	res.Elapsed = time.Since(start)
	return res
}

// AllPass reports whether every row classified correctly under both
// models and satisfied the weakening contract.
func (r *PSOResult) AllPass() bool {
	return allPass(r.Rows, func(row PSORow) bool { return row.Pass })
}

// StatesPerSec is the aggregate two-model exploration throughput.
func (r *PSOResult) StatesPerSec() float64 {
	if r.Elapsed <= 0 {
		return 0
	}
	return float64(r.StatesTotal) / r.Elapsed.Seconds()
}

// Table renders the TSO-vs-PSO catalog report.
func (r *PSOResult) Table() *stats.Table {
	t := stats.NewTable(
		"PSO backend: the classic catalog under per-address store buffers",
		"test", "states (TSO)", "states (PSO)", "ratio", "relaxed TSO", "relaxed PSO", "verdict")
	expect := func(allowed bool) string {
		if allowed {
			return "allowed"
		}
		return "forbidden"
	}
	for _, row := range r.Rows {
		verdict := "PASS"
		switch {
		case row.Err != nil:
			verdict = "FAIL: " + row.Err.Error()
		case !row.Superset:
			verdict = "FAIL: PSO lost TSO behaviour"
		}
		t.AddRow(row.Name, row.StatesTSO, row.StatesPSO,
			fmt.Sprintf("%.2fx", row.Ratio),
			expect(row.AllowedTSO), expect(row.AllowedPSO), verdict)
	}
	t.AddNote("contract: every TSO state, outcome, violation, and deadlock stays reachable")
	t.AddNote("under PSO (a TSO drain is the PSO drain of address class 0)")
	return t
}
