// Command ecod is the ECO-patch service daemon and its client.
//
// Server:
//
//	ecod serve [-addr :8080] [-workers N] [-queue N]
//	           [-max-jobs N] [-default-timeout 0] [-max-timeout 0]
//	           [-results-dir DIR] [-data-dir DIR] [-drain-grace 10s]
//	           [-cache-entries 256]
//
// The daemon exposes POST /v1/jobs, GET /v1/jobs[/{id}],
// DELETE /v1/jobs/{id}, /healthz and /metrics; SIGTERM/SIGINT drain
// it gracefully (admission closes, queued jobs are cancelled,
// in-flight solves get the grace period before interruption).
//
// Client:
//
//	ecod submit  -server URL (-dir DIR | -unit unitK [-scale N])
//	             [-name S] [-support minimize|final|exact]
//	             [-patch cubes|interp] [-budget N]
//	             [-timeout 30s] [-wait] [-o patch.v]
//	ecod status  -server URL ID
//	ecod wait    -server URL ID [-poll 200ms] [-o patch.v]
//	ecod cancel  -server URL ID
//	ecod list    -server URL [-state STATE] [-limit N]
//	ecod metrics -server URL
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"ecopatch/internal/atomicio"
	"ecopatch/internal/bench"
	"ecopatch/internal/eco"
	"ecopatch/internal/netlist"
	"ecopatch/internal/server"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "serve":
		err = cmdServe(os.Args[2:])
	case "submit":
		err = cmdSubmit(os.Args[2:])
	case "status", "wait", "cancel":
		err = cmdJobOp(os.Args[1], os.Args[2:])
	case "list":
		err = cmdList(os.Args[2:])
	case "metrics":
		err = cmdMetrics(os.Args[2:])
	case "-h", "-help", "--help", "help":
		usage()
		return
	default:
		fmt.Fprintf(os.Stderr, "ecod: unknown subcommand %q\n\n", os.Args[1])
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "ecod:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage:
  ecod serve   [flags]           run the daemon
  ecod submit  [flags]           submit a job
  ecod status  -server URL ID    fetch job status
  ecod wait    -server URL ID    poll a job to completion
  ecod cancel  -server URL ID    cancel a job
  ecod list    -server URL       list jobs
  ecod metrics -server URL       dump /metrics
run 'ecod <subcommand> -h' for flags`)
}

func cmdServe(args []string) error {
	fs := flag.NewFlagSet("ecod serve", flag.ExitOnError)
	var (
		addr       = fs.String("addr", ":8080", "listen address")
		workers    = fs.Int("workers", 0, "solve workers (0 = GOMAXPROCS)")
		queueCap   = fs.Int("queue", 64, "admission queue capacity")
		maxJobs    = fs.Int("max-jobs", 1024, "retained jobs before oldest finished are evicted")
		defTimeout = fs.Duration("default-timeout", 0, "deadline for jobs that set none (0 = unbounded)")
		maxTimeout = fs.Duration("max-timeout", 0, "clamp on per-job deadlines (0 = no clamp)")
		resultsDir = fs.String("results-dir", "", "persist finished job results as <dir>/<id>.json")
		dataDir    = fs.String("data-dir", "", "crash-safe persistence: replay job history (and warm the result cache) from this directory on boot")
		grace      = fs.Duration("drain-grace", 10*time.Second, "time in-flight solves get to finish on SIGTERM before interruption")
		cacheEnt   = fs.Int("cache-entries", 256, "entries in the content-addressed result cache (0 disables it)")
	)
	fs.Parse(args)

	logger := log.New(os.Stderr, "ecod ", log.LstdFlags)
	if *resultsDir != "" {
		if err := os.MkdirAll(*resultsDir, 0o755); err != nil {
			return err
		}
	}
	srv, err := server.New(server.Config{
		Workers:        *workers,
		QueueCap:       *queueCap,
		MaxJobs:        *maxJobs,
		DefaultTimeout: *defTimeout,
		MaxTimeout:     *maxTimeout,
		ResultsDir:     *resultsDir,
		DataDir:        *dataDir,
		CacheEntries:   *cacheEnt,
		Log:            logger,
	})
	if err != nil {
		return err
	}
	hs := &http.Server{Addr: *addr, Handler: srv.Handler()}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM, syscall.SIGINT)
	defer stop()
	errc := make(chan error, 1)
	go func() {
		logger.Printf("listening on %s", *addr)
		if err := hs.ListenAndServe(); !errors.Is(err, http.ErrServerClosed) {
			errc <- err
		}
	}()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	logger.Printf("signal received; draining")
	// Drain the solve pool first so /v1/jobs answers 503 (and status
	// polls keep working) while in-flight work winds down, then close
	// the listener.
	srv.Drain(*grace)
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	return hs.Shutdown(shutdownCtx)
}

func clientFlags(fs *flag.FlagSet) *string {
	return fs.String("server", envOr("ECOD_SERVER", "http://127.0.0.1:8080"), "ecod server base URL (or $ECOD_SERVER)")
}

func envOr(key, def string) string {
	if v := os.Getenv(key); v != "" {
		return v
	}
	return def
}

func cmdSubmit(args []string) error {
	fs := flag.NewFlagSet("ecod submit", flag.ExitOnError)
	var (
		base    = clientFlags(fs)
		dir     = fs.String("dir", "", "instance directory (F.v, S.v, weight.txt)")
		unit    = fs.String("unit", "", "benchmark-suite unit to generate and submit (e.g. unit7)")
		scale   = fs.Int("scale", 1, "suite scale factor for -unit")
		name    = fs.String("name", "", "job name (default: instance name)")
		support = fs.String("support", "", "support algorithm: final, minimize, exact")
		patchA  = fs.String("patch", "", "patch computation: cubes, interp")
		budget  = fs.Int64("budget", 0, "SAT conflict budget per call (0 = unlimited)")
		timeout = fs.Duration("timeout", 0, "per-job deadline (0 = server default)")
		wait    = fs.Bool("wait", false, "poll the job to completion and print the result")
		out     = fs.String("o", "", "with -wait: write the patch netlist here ('-' for stdout)")
		retries = fs.Int("retries", 3, "retries after a 429 shed, honoring the server's Retry-After")
	)
	fs.Parse(args)

	inst, err := loadInstance(*dir, *unit, *scale)
	if err != nil {
		return err
	}
	req, err := requestFromInstance(inst)
	if err != nil {
		return err
	}
	if *name != "" {
		req.Name = *name
	}
	req.Options = server.JobOptions{
		Support:    *support,
		Patch:      *patchA,
		ConfBudget: *budget,
		TimeoutSec: timeout.Seconds(),
	}

	c := &server.Client{Base: *base, MaxRetries: *retries}
	ctx := context.Background()
	st, err := c.Submit(ctx, req)
	if err != nil {
		var ae *server.APIError
		if errors.As(err, &ae) && ae.RetryAfter > 0 {
			return fmt.Errorf("%w (retry after %v)", err, ae.RetryAfter)
		}
		return err
	}
	if !*wait {
		fmt.Println(st.ID)
		return nil
	}
	st, err = c.Wait(ctx, st.ID, 0)
	if err != nil {
		return err
	}
	return printTerminal(st, *out)
}

// loadInstance reads -dir or generates -unit.
func loadInstance(dir, unit string, scale int) (*eco.Instance, error) {
	switch {
	case dir != "" && unit != "":
		return nil, fmt.Errorf("-dir and -unit are mutually exclusive")
	case dir != "":
		return eco.LoadDir(dir)
	case unit != "":
		cfg, err := bench.ConfigByName(scale, unit)
		if err != nil {
			return nil, err
		}
		return bench.Generate(cfg)
	default:
		return nil, fmt.Errorf("one of -dir or -unit is required")
	}
}

// requestFromInstance serializes an instance into the wire form.
func requestFromInstance(inst *eco.Instance) (server.JobRequest, error) {
	var impl, spec, weights strings.Builder
	if err := netlist.Write(&impl, inst.Impl); err != nil {
		return server.JobRequest{}, err
	}
	if err := netlist.Write(&spec, inst.Spec); err != nil {
		return server.JobRequest{}, err
	}
	if inst.Weights != nil {
		if err := netlist.WriteWeights(&weights, inst.Weights); err != nil {
			return server.JobRequest{}, err
		}
	}
	return server.JobRequest{
		Name:    inst.Name,
		Impl:    impl.String(),
		Spec:    spec.String(),
		Weights: weights.String(),
	}, nil
}

// printTerminal renders a terminal job status, optionally extracting
// the patch, and fails for non-done terminal states.
func printTerminal(st server.JobStatus, out string) error {
	if out != "" && st.Result != nil && st.Result.Patch != "" {
		if out == "-" {
			fmt.Print(st.Result.Patch)
		} else if err := atomicio.WriteFileBytes(out, []byte(st.Result.Patch)); err != nil {
			return err
		}
		// Keep the JSON readable when the patch went elsewhere.
		st.Result.Patch = ""
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(st); err != nil {
		return err
	}
	if st.State != server.StateDone {
		return fmt.Errorf("job %s ended %s: %s", st.ID, st.State, st.Error)
	}
	return nil
}

func cmdJobOp(op string, args []string) error {
	fs := flag.NewFlagSet("ecod "+op, flag.ExitOnError)
	base := clientFlags(fs)
	poll := fs.Duration("poll", 200*time.Millisecond, "poll interval (wait)")
	out := fs.String("o", "", "write the patch netlist here (wait; '-' for stdout)")
	retries := fs.Int("retries", 3, "retries after a 429 shed, honoring the server's Retry-After")
	fs.Parse(args)
	if fs.NArg() != 1 {
		return fmt.Errorf("ecod %s: exactly one job ID required", op)
	}
	id := fs.Arg(0)
	c := &server.Client{Base: *base, MaxRetries: *retries}
	ctx := context.Background()
	var (
		st  server.JobStatus
		err error
	)
	switch op {
	case "status":
		st, err = c.Status(ctx, id)
	case "cancel":
		st, err = c.Cancel(ctx, id)
	case "wait":
		st, err = c.Wait(ctx, id, *poll)
		if err == nil {
			return printTerminal(st, *out)
		}
	}
	if err != nil {
		return err
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	return enc.Encode(st)
}

func cmdList(args []string) error {
	fs := flag.NewFlagSet("ecod list", flag.ExitOnError)
	base := clientFlags(fs)
	state := fs.String("state", "", "keep only jobs in this state (queued, running, done, failed, cancelled, timeout)")
	limit := fs.Int("limit", 0, "keep only the most recently submitted N jobs (0 = all)")
	fs.Parse(args)
	c := &server.Client{Base: *base}
	jobs, err := c.List(context.Background(), *state, *limit)
	if err != nil {
		return err
	}
	if len(jobs) == 0 {
		fmt.Println("no jobs")
		return nil
	}
	fmt.Printf("%-18s %-10s %-20s %s\n", "ID", "STATE", "NAME", "QUEUED")
	for _, j := range jobs {
		fmt.Printf("%-18s %-10s %-20s %s\n", j.ID, j.State, j.Name, j.QueuedAt.Format(time.RFC3339))
	}
	return nil
}

func cmdMetrics(args []string) error {
	fs := flag.NewFlagSet("ecod metrics", flag.ExitOnError)
	base := clientFlags(fs)
	fs.Parse(args)
	c := &server.Client{Base: *base}
	text, err := c.Metrics(context.Background())
	if err != nil {
		return err
	}
	fmt.Print(text)
	return nil
}
