package main

import (
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"
)

func main() {
	dir := flag.String("dir", "", "spool root directory (required); spool/, work/, done/, failed/ live under it")
	poll := flag.Duration("poll", 200*time.Millisecond, "spool re-listing interval: the safety net behind the inotify submit watch, the only trigger where there is none")
	jobs := flag.Int("jobs", 2, "maximum concurrently running jobs")
	workers := flag.Int("workers", 0, "exploration workers per job (0 = GOMAXPROCS)")
	jobTimeout := flag.Duration("job-timeout", 0, "fail a job whose exploration runs longer than this (0 = no limit)")
	ckptEvery := flag.Int("ckpt-every", 5000, "checkpoint a running job every N claimed states")
	retries := flag.Int("retries", 2, "retry budget for transiently-failed jobs (each retry resumes from the checkpoint)")
	maxStates := flag.Int("max-states", 0, "per-job state budget (0 = engine default)")
	httpAddr := flag.String("http", "", "serve /healthz, /metrics and /debug/pprof/ on this address (empty = no HTTP)")
	flag.Parse()

	if err := validateFlags(*dir, *jobs, *ckptEvery, *retries); err != nil {
		fmt.Fprintln(os.Stderr, err)
		flag.Usage()
		os.Exit(2)
	}

	logger := log.New(os.Stderr, "litmusd: ", log.LstdFlags)
	d, err := newDaemon(config{
		Root:       *dir,
		Poll:       *poll,
		Jobs:       *jobs,
		Workers:    *workers,
		JobTimeout: *jobTimeout,
		CkptEvery:  *ckptEvery,
		Retries:    *retries,
		MaxStates:  *maxStates,
		Log:        logger,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	if *httpAddr != "" {
		ln, err := net.Listen("tcp", *httpAddr)
		if err != nil {
			fmt.Fprintf(os.Stderr, "litmusd: listening on %s: %v\n", *httpAddr, err)
			os.Exit(2)
		}
		logger.Printf("serving /healthz, /metrics and /debug/pprof/ on %s", ln.Addr())
		srv := &http.Server{Handler: d.handler()}
		go func() {
			if err := srv.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
				logger.Printf("http server: %v", err)
			}
		}()
		defer srv.Close()
	}

	// SIGTERM/SIGINT start a graceful drain: no new claims, in-flight
	// jobs checkpoint at their next barrier and park in work/ for the
	// next start.
	stop := make(chan struct{})
	sigc := make(chan os.Signal, 2)
	signal.Notify(sigc, syscall.SIGTERM, syscall.SIGINT)
	go func() {
		s := <-sigc
		logger.Printf("received %v; draining (in-flight jobs checkpoint and park)", s)
		close(stop)
	}()

	d.serve(stop) // logs "watching <dir> (…)" once the spool watch is open
	logger.Printf("drained; exiting")
}

// validateFlags rejects nonsensical flag combinations before any disk
// state is touched.
func validateFlags(dir string, jobs, ckptEvery, retries int) error {
	switch {
	case dir == "":
		return errors.New("litmusd: -dir is required")
	case jobs <= 0:
		return errors.New("litmusd: -jobs must be positive")
	case ckptEvery <= 0:
		return errors.New("litmusd: -ckpt-every must be positive")
	case retries < 0:
		return errors.New("litmusd: -retries must be non-negative")
	}
	return nil
}
