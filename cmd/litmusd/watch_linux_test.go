//go:build linux

package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"time"
)

// TestDaemonWakesOnRename: with the poll ticker out of the picture, a
// job renamed into spool/ after the first listing is still claimed at
// once — the inotify event is what wakes the loop — and stop returns
// only when the watcher's reader goroutine has exited.
func TestDaemonWakesOnRename(t *testing.T) {
	before := runtime.NumGoroutine()
	root := t.TempDir()
	d, stop := startDaemon(t, config{Root: root, Poll: time.Hour, CkptEvery: 100})
	waitFor(t, 30*time.Second, "first spool listing", func() bool { return d.scans.Load() > 0 })
	submit(t, root, "fenced", sbFenced)
	waitFor(t, 5*time.Second, "done/fenced", func() bool {
		return exists(filepath.Join(root, "done", "fenced", "verdict.json"))
	})
	stop()

	if got := d.wakeups.Load(); got == 0 {
		t.Error("job ran but spool_wakeups = 0")
	}
	waitFor(t, 5*time.Second, "daemon goroutines to exit", func() bool {
		return runtime.NumGoroutine() <= before
	})
}

// TestDaemonBurstLosesNoJob: 200 files renamed in while both slots are
// busy arrive as far fewer wakes than files (the channel holds one), and
// with no poll to fall back on every one must still run — off the
// listing kept between jobs, not one directory read per finished job.
func TestDaemonBurstLosesNoJob(t *testing.T) {
	const burst = 200
	root := t.TempDir()
	d, stop := startDaemon(t, config{Root: root, Poll: time.Hour, Jobs: 2, CkptEvery: 10000, MaxStates: 60000})
	submit(t, root, "big-a", bigSrc)
	submit(t, root, "big-b", bigSrc)
	waitFor(t, 30*time.Second, "both slots busy", func() bool { return d.active.Load() == 2 })

	stage := filepath.Join(root, "stage")
	if err := os.Mkdir(stage, 0o755); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < burst; i++ {
		if err := os.WriteFile(filepath.Join(stage, fmt.Sprintf("sb-%03d.litmus", i)), []byte(sbFenced), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < burst; i++ {
		name := fmt.Sprintf("sb-%03d.litmus", i)
		if err := os.Rename(filepath.Join(stage, name), filepath.Join(root, "spool", name)); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, 120*time.Second, "all jobs done", func() bool {
		return d.completed.Load()+d.failures.Load() >= burst+2
	})
	stop()

	if c, f := d.completed.Load(), d.failures.Load(); c != burst+2 || f != 0 {
		t.Errorf("completed/failed = %d/%d, want %d/0", c, f, burst+2)
	}
	if left := spoolNames(t, root); len(left) != 0 {
		t.Errorf("%d job(s) left in spool/: %v", len(left), left)
	}
	if scans := d.scans.Load(); scans*2 > burst {
		t.Errorf("%d spool listings for %d jobs: finished jobs are re-reading the directory", scans, burst+2)
	}
	t.Logf("%d jobs: %d wakeups, %d listings", burst+2, d.wakeups.Load(), d.scans.Load())
}
