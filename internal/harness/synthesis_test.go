package harness

import (
	"strings"
	"testing"

	"repro/internal/synth"
)

// TestRunSynthesis pins the synthesis report end to end: every registry
// problem resolves, the dekker row carries the Fig. 3(a) asymmetric
// placement as optimal, and mp needs nothing.
func TestRunSynthesis(t *testing.T) {
	res := RunSynthesis(synth.Options{Workers: 4})
	if !res.AllResolved() {
		t.Fatalf("synthesis errors: %+v", res.Rows)
	}

	rows := make(map[string]SynthRow, len(res.Rows))
	for _, row := range res.Rows {
		rows[row.Problem] = row
	}
	for _, name := range []string{"bakery", "dekker", "mp", "peterson", "sb"} {
		if _, ok := rows[name]; !ok {
			t.Fatalf("report missing problem %q", name)
		}
	}

	dekker := rows["dekker"]
	if dekker.Unrepairable || dekker.Minimal != 4 {
		t.Errorf("dekker row = %+v, want 4 minimal repairs", dekker)
	}
	if !strings.Contains(dekker.Optimal, "P0:l-mfence@0") || !strings.Contains(dekker.Optimal, "P1:mfence@0") {
		t.Errorf("dekker optimal = %q, want the asymmetric Fig. 3(a) placement", dekker.Optimal)
	}

	mp := rows["mp"]
	if mp.Optimal != "(no fences)" || mp.Cost != 0 {
		t.Errorf("mp row = %+v, want the empty placement at cost 0", mp)
	}

	table := res.Table().String()
	for _, want := range []string{"dekker", "optimal placement", "l-mfence"} {
		if !strings.Contains(table, want) {
			t.Errorf("rendered table missing %q:\n%s", want, table)
		}
	}
}
