package harness

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"strings"
	"sync"
)

// This file implements the corpus journal: an append-only file of
// completed scenario verdicts that makes RunCorpus resumable after a
// kill. Each completed scenario appends one fsynced JSON line, so a
// crashed sweep loses at most the scenarios that were in flight —
// everything journaled is restored on the next run with the same
// options and never re-synthesized.
//
// Format: a header line binding the journal to the scenario list and
// the verdict-determining options (their hash), then one JSON row per
// completed scenario, in completion order (not index order — workers
// finish out of order). A torn tail — the partial last line a kill
// mid-write leaves behind — is tolerated: rows parse until the first
// undecodable line, and the file is truncated back to the last good
// row before appending resumes.

// corpusJournalMagic heads every journal file; the options hash follows
// on the same line.
const corpusJournalMagic = "lbmf-corpus-journal/v1"

// ErrJournalMismatch reports a journal written by a run with different
// scenario-determining options: resuming it would splice verdicts from
// one corpus into another.
var ErrJournalMismatch = errors.New("harness: corpus journal belongs to a different run")

// journalRow is one scenario verdict as persisted. Err travels as a
// string (errors do not round-trip through JSON). Journals written while
// synthesis had accelerators also carry bounded, bounded_hits, cycles,
// pruned and restored keys, which decoding ignores.
type journalRow struct {
	Index          int     `json:"i"`
	Seed           int64   `json:"seed"`
	Name           string  `json:"name"`
	Fences         int     `json:"fences,omitempty"`
	Cost           float64 `json:"cost,omitempty"`
	AlreadySafe    bool    `json:"safe,omitempty"`
	Unrepairable   bool    `json:"unrepairable,omitempty"`
	ExactChecks    int     `json:"exact,omitempty"`
	States         int     `json:"states,omitempty"`
	ReverifyStates int     `json:"reverify,omitempty"`
	ErrMsg         string  `json:"err,omitempty"`
}

func toJournalRow(i int, row CorpusRow) journalRow {
	jr := journalRow{
		Index: i, Seed: row.Seed, Name: row.Name,
		Fences: row.Fences, Cost: row.Cost,
		AlreadySafe: row.AlreadySafe, Unrepairable: row.Unrepairable,
		ExactChecks: row.ExactChecks, States: row.States,
		ReverifyStates: row.ReverifyStates,
	}
	if row.Err != nil {
		jr.ErrMsg = row.Err.Error()
	}
	return jr
}

func (jr journalRow) corpusRow() CorpusRow {
	row := CorpusRow{
		Seed: jr.Seed, Name: jr.Name,
		Fences: jr.Fences, Cost: jr.Cost,
		AlreadySafe: jr.AlreadySafe, Unrepairable: jr.Unrepairable,
		ExactChecks: jr.ExactChecks, States: jr.States,
		ReverifyStates: jr.ReverifyStates,
	}
	if jr.ErrMsg != "" {
		row.Err = errors.New(jr.ErrMsg)
	}
	return row
}

// corpusJournal is the append side: one fsynced line per completed
// scenario, serialized across workers by the mutex.
type corpusJournal struct {
	mu sync.Mutex
	f  *os.File
}

// openCorpusJournal opens (or creates) the journal at path for the run
// identified by hash, returning the rows a previous run already
// completed. A journal for different options is refused with
// ErrJournalMismatch. A torn tail is dropped and truncated away.
func openCorpusJournal(path string, hash uint64) (*corpusJournal, map[int]CorpusRow, error) {
	header := fmt.Sprintf("%s %016x\n", corpusJournalMagic, hash)
	done := make(map[int]CorpusRow)

	data, err := os.ReadFile(path)
	switch {
	case errors.Is(err, os.ErrNotExist) || (err == nil && len(data) == 0):
		f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
		if err != nil {
			return nil, nil, fmt.Errorf("harness: creating corpus journal: %w", err)
		}
		if _, err := f.WriteString(header); err != nil {
			f.Close()
			return nil, nil, fmt.Errorf("harness: writing journal header: %w", err)
		}
		if err := f.Sync(); err != nil {
			f.Close()
			return nil, nil, fmt.Errorf("harness: syncing journal header: %w", err)
		}
		return &corpusJournal{f: f}, done, nil
	case err != nil:
		return nil, nil, fmt.Errorf("harness: reading corpus journal: %w", err)
	}

	// Existing journal: validate the header, replay the rows, stop at
	// the first torn line.
	nl := strings.IndexByte(string(data), '\n')
	if nl < 0 || string(data[:nl+1]) != header {
		got := string(data)
		if nl >= 0 {
			got = string(data[:nl])
		}
		return nil, nil, fmt.Errorf("%w: header %q, want %q", ErrJournalMismatch, got, strings.TrimSuffix(header, "\n"))
	}
	good := nl + 1 // byte offset after the last fully-parsed line
	sc := bufio.NewScanner(strings.NewReader(string(data[good:])))
	sc.Buffer(make([]byte, 0, 1<<16), 1<<22)
	for sc.Scan() {
		line := sc.Bytes()
		var jr journalRow
		if err := json.Unmarshal(line, &jr); err != nil {
			break // torn tail: keep everything before it
		}
		done[jr.Index] = jr.corpusRow()
		good += len(line) + 1
	}
	if good > len(data) { // last line had no trailing newline but parsed
		good = len(data)
	}

	f, err := os.OpenFile(path, os.O_WRONLY, 0o644)
	if err != nil {
		return nil, nil, fmt.Errorf("harness: reopening corpus journal: %w", err)
	}
	if err := f.Truncate(int64(good)); err != nil {
		f.Close()
		return nil, nil, fmt.Errorf("harness: dropping journal torn tail: %w", err)
	}
	if _, err := f.Seek(int64(good), 0); err != nil {
		f.Close()
		return nil, nil, fmt.Errorf("harness: seeking corpus journal: %w", err)
	}
	return &corpusJournal{f: f}, done, nil
}

// append durably records one completed scenario.
func (j *corpusJournal) append(i int, row CorpusRow) error {
	line, err := json.Marshal(toJournalRow(i, row))
	if err != nil {
		return err
	}
	line = append(line, '\n')
	j.mu.Lock()
	defer j.mu.Unlock()
	if _, err := j.f.Write(line); err != nil {
		return err
	}
	return j.f.Sync()
}

func (j *corpusJournal) close() { j.f.Close() }
