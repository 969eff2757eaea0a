package harness

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/fault"
	"repro/internal/synth"
)

// corpusOpts is the shared configuration of the journal tests: a small
// corpus under the default synthesis options.
func corpusOpts(journal string) CorpusOptions {
	return CorpusOptions{Scenarios: 12, Journal: journal}
}

// sameRows compares two sweeps row by row on everything a resume must
// preserve.
func sameRows(t *testing.T, got, want []CorpusRow) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("row count %d, want %d", len(got), len(want))
	}
	for i := range got {
		g, w := got[i], want[i]
		if g.Seed != w.Seed || g.Name != w.Name || g.Fences != w.Fences ||
			g.Cost != w.Cost || g.AlreadySafe != w.AlreadySafe ||
			g.Unrepairable != w.Unrepairable {
			t.Errorf("row %d diverges:\nresumed:   %+v\nreference: %+v", i, g, w)
		}
	}
}

// TestCorpusKillAndResume is the corpus crash-recovery acceptance: a
// sweep aborted mid-corpus by an injected journal-point kill, then
// rerun with the same options, must restore every journaled verdict
// (zero re-synthesis) and finish with the reference result.
func TestCorpusKillAndResume(t *testing.T) {
	ref, err := RunCorpus(corpusOpts(""))
	if err != nil {
		t.Fatal(err)
	}

	journal := filepath.Join(t.TempDir(), "corpus.journal")
	killed := corpusOpts(journal)
	killed.Workers = 1 // deterministic kill point: after the 4th journaled scenario
	killed.Faults = fault.New(3)
	killed.Faults.Arm(fault.CorpusJournal, fault.Plan{Prob: 1, Drop: true, MinArrivals: 3, MaxFires: 1})
	dead, err := RunCorpus(killed)
	if err != nil {
		t.Fatal(err)
	}
	if !dead.Aborted {
		t.Fatal("injected journal kill did not abort the sweep")
	}
	if dead.Obs.Gauges["corpus_aborted"] != 1 {
		t.Error("corpus_aborted gauge not set")
	}
	completed := dead.Resolved() + dead.Errors
	if completed == 0 || completed >= len(ref.Rows) {
		t.Fatalf("aborted sweep completed %d of %d scenarios — the kill should land mid-corpus", completed, len(ref.Rows))
	}

	resumed, err := RunCorpus(corpusOpts(journal))
	if err != nil {
		t.Fatal(err)
	}
	if resumed.Aborted {
		t.Error("resumed sweep aborted without any fault armed")
	}
	if resumed.Resumed != completed {
		t.Errorf("Resumed = %d, want every journaled scenario (%d) restored without re-synthesis", resumed.Resumed, completed)
	}
	if resumed.ContractFailures != 0 {
		t.Errorf("ContractFailures = %d after resume, want 0", resumed.ContractFailures)
	}
	if resumed.Resolved() != len(ref.Rows) {
		t.Errorf("resumed sweep resolved %d of %d", resumed.Resolved(), len(ref.Rows))
	}
	sameRows(t, resumed.Rows, ref.Rows)

	// A third run restores everything: the journal now covers the whole
	// corpus, so nothing is synthesized at all.
	again, err := RunCorpus(corpusOpts(journal))
	if err != nil {
		t.Fatal(err)
	}
	if again.Resumed != len(ref.Rows) {
		t.Errorf("full-journal rerun resumed %d of %d", again.Resumed, len(ref.Rows))
	}
	sameRows(t, again.Rows, ref.Rows)
}

// TestCorpusJournalTornTail cuts the journal mid-line (what a kill
// during an append leaves behind) and checks the resume drops exactly
// the torn row and re-runs it.
func TestCorpusJournalTornTail(t *testing.T) {
	journal := filepath.Join(t.TempDir(), "corpus.journal")
	ref, err := RunCorpus(corpusOpts(journal))
	if err != nil {
		t.Fatal(err)
	}

	data, err := os.ReadFile(journal)
	if err != nil {
		t.Fatal(err)
	}
	// Chop the last 10 bytes: the final row line loses its tail.
	if err := os.WriteFile(journal, data[:len(data)-10], 0o644); err != nil {
		t.Fatal(err)
	}

	resumed, err := RunCorpus(corpusOpts(journal))
	if err != nil {
		t.Fatalf("torn tail must be tolerated, got %v", err)
	}
	if want := len(ref.Rows) - 1; resumed.Resumed != want {
		t.Errorf("Resumed = %d, want %d (all but the torn row)", resumed.Resumed, want)
	}
	sameRows(t, resumed.Rows, ref.Rows)
}

// TestCorpusJournalMismatch: a journal from different options must be
// refused, not silently spliced into the wrong corpus.
func TestCorpusJournalMismatch(t *testing.T) {
	journal := filepath.Join(t.TempDir(), "corpus.journal")
	if _, err := RunCorpus(corpusOpts(journal)); err != nil {
		t.Fatal(err)
	}

	other := corpusOpts(journal)
	other.Seed = 999
	if _, err := RunCorpus(other); !errors.Is(err, ErrJournalMismatch) {
		t.Errorf("different seed against the same journal: err = %v, want ErrJournalMismatch", err)
	}

	other = corpusOpts(journal)
	other.Synth.MaxFences = 1
	if _, err := RunCorpus(other); !errors.Is(err, ErrJournalMismatch) {
		t.Errorf("different synth options against the same journal: err = %v, want ErrJournalMismatch", err)
	}

	if err := os.WriteFile(journal, []byte("not a journal\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := RunCorpus(corpusOpts(journal)); !errors.Is(err, ErrJournalMismatch) {
		t.Errorf("foreign file as journal: err = %v, want ErrJournalMismatch", err)
	}
}

// oldAcceleratedJournal is the head of the journal `fencesynth -corpus
// 12 -corpus-journal` wrote while -corpus turned the static prefilter and
// a reorder bound of 2 on by default; its header hash covers both.
const oldAcceleratedJournal = `lbmf-corpus-journal/v1 2c7d8ea480f077e7
{"i":0,"seed":0,"name":"gen-0","safe":true,"exact":1,"cycles":3,"states":308,"reverify":276}
`

// TestCorpusJournalOldDefaultsRefused: `fencesynth -corpus 12` against a
// journal its accelerated predecessor wrote is refused with the mismatch
// error and leaves the file alone, rather than resuming rows another
// synthesizer configuration produced.
func TestCorpusJournalOldDefaultsRefused(t *testing.T) {
	journal := filepath.Join(t.TempDir(), "corpus.journal")
	if err := os.WriteFile(journal, []byte(oldAcceleratedJournal), 0o644); err != nil {
		t.Fatal(err)
	}
	co := corpusOpts(journal)
	co.Synth.PrimaryWeight = synth.DefaultPrimaryWeight // fencesynth passes its -ratio
	if _, err := RunCorpus(co); !errors.Is(err, ErrJournalMismatch) {
		t.Errorf("old -corpus journal: err = %v, want ErrJournalMismatch", err)
	}
	if got, err := os.ReadFile(journal); err != nil || string(got) != oldAcceleratedJournal {
		t.Errorf("refused journal changed: %q, %v", got, err)
	}
}

// TestCorpusJournalLoadsOldRow: a row written while synthesis had
// accelerators carries bounded / pruned keys the row type no longer has;
// decoding ignores them and restores the verdict and the counters that
// remain.
func TestCorpusJournalLoadsOldRow(t *testing.T) {
	const old = `{"i":1,"seed":1,"name":"gen-1","fences":2,"cost":920,"exact":4,"bounded":13,"bounded_hits":9,"cycles":3,"pruned":1,"states":6846,"reverify":383}`
	const hash = 0x5eed
	path := filepath.Join(t.TempDir(), "corpus.journal")
	if err := os.WriteFile(path, []byte(fmt.Sprintf("%s %016x\n%s\n", corpusJournalMagic, hash, old)), 0o644); err != nil {
		t.Fatal(err)
	}
	j, done, err := openCorpusJournal(path, hash)
	if err != nil {
		t.Fatal(err)
	}
	j.close()
	want := map[int]CorpusRow{1: {Seed: 1, Name: "gen-1", Fences: 2, Cost: 920,
		ExactChecks: 4, States: 6846, ReverifyStates: 383}}
	if !reflect.DeepEqual(done, want) {
		t.Errorf("restored %+v, want %+v", done, want)
	}
}

// TestCorpusWorkerPanicRecovery plants a panic in one scenario's
// pipeline trip and checks the sweep survives: the panicking scenario
// becomes an errored row, everything else resolves normally.
func TestCorpusWorkerPanicRecovery(t *testing.T) {
	opts := corpusOpts("")
	opts.hook = func(i int, seed int64) {
		if i == 2 {
			panic("injected repair panic")
		}
	}
	res, err := RunCorpus(opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Panics != 1 {
		t.Fatalf("Panics = %d, want 1", res.Panics)
	}
	if res.Obs.Counters["corpus_panics"] != 1 {
		t.Error("corpus_panics counter not recorded")
	}
	row := res.Rows[2]
	if row.Err == nil || !strings.Contains(row.Err.Error(), "injected repair panic") {
		t.Errorf("panicking scenario's row error = %v", row.Err)
	}
	if res.Errors != 1 || res.Resolved() != len(res.Rows)-1 {
		t.Errorf("errors=%d resolved=%d of %d, want exactly the panicked scenario errored",
			res.Errors, res.Resolved(), len(res.Rows))
	}
}

// TestCorpusScenarioTimeout stalls one scenario past the per-scenario
// deadline and checks it is reported as a timeout while the rest of
// the sweep completes.
func TestCorpusScenarioTimeout(t *testing.T) {
	block := make(chan struct{})
	defer close(block)
	opts := corpusOpts("")
	// Generous for a real scenario (they finish in milliseconds), far
	// shorter than the stalled one's forever.
	opts.ScenarioTimeout = 2 * time.Second
	opts.hook = func(i int, seed int64) {
		if i == 1 {
			<-block // stall until the test tears down
		}
	}
	res, err := RunCorpus(opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Timeouts != 1 {
		t.Fatalf("Timeouts = %d, want 1", res.Timeouts)
	}
	if res.Obs.Counters["corpus_timeouts"] != 1 {
		t.Error("corpus_timeouts counter not recorded")
	}
	row := res.Rows[1]
	if row.Err == nil || !strings.Contains(row.Err.Error(), "timed out") {
		t.Errorf("timed-out scenario's row error = %v", row.Err)
	}
	if res.Resolved() != len(res.Rows)-1 {
		t.Errorf("resolved %d of %d, want all but the stalled scenario", res.Resolved(), len(res.Rows))
	}
}
