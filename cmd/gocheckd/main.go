// Command gocheckd is the resident analysis daemon: one hot
// analysis.Engine serving check/explain requests from many concurrent
// clients over a plain HTTP/JSON API. Clients (gocheck -server, editor
// integrations, CI shards) push file deltas; the engine re-lowers only
// the changed files, re-solves only the dirtied SCCs, and replays
// everything else from resident state, so a warm single-edit re-check
// answers in low single-digit milliseconds with findings byte-identical
// to a one-shot gocheck run.
//
// Usage:
//
//	gocheckd [-addr 127.0.0.1:7433] [-cache-dir dir] [-memory-budget MB]
//	         [-allow-shutdown=false] [-log-level info] [-debug-addr addr]
//	         [-slow-ms N -flight-dir dir]
//
// Endpoints: POST /v1/check, GET /v1/manifest, GET /v1/list,
// GET /v1/metrics (?format=prometheus), GET /v1/health,
// GET /v1/debug/flight, GET /v1/debug/vars, POST /v1/shutdown (when
// enabled). See internal/server for the protocol types. With
// -debug-addr, net/http/pprof is served on a second listener, kept off
// the API port so profiling exposure is an explicit opt-in. The daemon
// stops gracefully on SIGINT/SIGTERM or (with -allow-shutdown, the
// default) POST /v1/shutdown, draining in-flight requests first.
//
// Each request runs its jobs on GOMAXPROCS workers, as the front end
// does.
//
// Telemetry: every request is recorded in a bounded in-memory flight
// recorder (the 64 most recent, plus the 8 slowest ever), dumpable via
// /v1/debug/flight with its span tree: translate and ir.lower when the
// request re-lowers, then every job that reads disk or solves. Requests
// slower than -slow-ms are persisted as Chrome trace JSON under
// -flight-dir (-slow-ms without -flight-dir is a usage error, exit 2).
// The engine keeps its counts in the metrics registry, so /v1/metrics'
// engine block and its Prometheus form read the same instruments.
// /v1/health degrades past a p99 of 2000 ms or a 5% error rate over at
// least 5 requests. The memory tier of the job-result store keeps up to
// 8192 job records that keep hitting, and holds at most twice that.
// Access and lifecycle logs are structured JSON lines on stderr at
// -log-level.
package main

import (
	"context"
	"errors"
	"flag"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"rasc/internal/analysis"
	"rasc/internal/obs"
	"rasc/internal/server"
)

// readHeaderTimeout bounds how long a client may take to send a request's
// headers, so that idle or stalled connections cannot pile up.
const readHeaderTimeout = 10 * time.Second

func main() {
	os.Exit(run())
}

func run() int {
	addr := flag.String("addr", "127.0.0.1:7433", "listen address")
	cacheDir := flag.String("cache-dir", "", "directory for the shared on-disk incremental cache (empty = memory only)")
	budgetMB := flag.Int64("memory-budget", 0, "resident-program memory budget in MiB; past it, least-recently-used programs are evicted (0 = unlimited)")
	allowShutdown := flag.Bool("allow-shutdown", true, "enable POST /v1/shutdown")
	logLevel := flag.String("log-level", "info", "structured log threshold: debug, info, warn or error")
	debugAddr := flag.String("debug-addr", "", "separate listen address for net/http/pprof (empty = pprof off)")
	slowMS := flag.Int64("slow-ms", 0, "persist traces of requests slower than this many milliseconds (0 = off)")
	flightDir := flag.String("flight-dir", "", "directory for persisted slow-request traces (required by -slow-ms)")
	flag.Parse()
	if *slowMS > 0 && *flightDir == "" {
		os.Stderr.WriteString("gocheckd: -slow-ms requires -flight-dir\n")
		return 2
	}

	level, err := obs.ParseLevel(*logLevel)
	if err != nil {
		return fail(nil, err)
	}
	log := obs.NewLogger(os.Stderr, level)

	registry := obs.NewRegistry()
	var cache *analysis.Cache
	if *cacheDir != "" {
		if cache, err = analysis.OpenCache(*cacheDir); err != nil {
			return fail(log, err)
		}
	}
	flight := obs.NewFlight(obs.FlightConfig{
		SlowUS:  *slowMS * 1000,
		Dir:     *flightDir,
		Metrics: registry,
	})
	engine := analysis.NewEngine(analysis.EngineConfig{
		Cache:        cache,
		MemoryBudget: *budgetMB << 20,
		Metrics:      registry,
		Flight:       flight,
	})

	stop := make(chan struct{})
	var onShutdown func()
	if *allowShutdown {
		onShutdown = func() { close(stop) }
	}
	h := server.NewHandler(server.HandlerConfig{
		Engine:     engine,
		Registry:   registry,
		Flight:     flight,
		Log:        log,
		OnShutdown: onShutdown,
	})

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return fail(log, err)
	}
	srv := &http.Server{Handler: h.Root(), ReadHeaderTimeout: readHeaderTimeout}

	var debugSrv *http.Server
	if *debugAddr != "" {
		dln, err := net.Listen("tcp", *debugAddr)
		if err != nil {
			return fail(log, err)
		}
		dmux := http.NewServeMux()
		dmux.HandleFunc("/debug/pprof/", pprof.Index)
		dmux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		dmux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		dmux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		dmux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		debugSrv = &http.Server{Handler: dmux}
		go debugSrv.Serve(dln)
		defer debugSrv.Close()
	}

	// One structured startup line with the fully resolved configuration,
	// so a log capture alone reconstructs how the daemon was running.
	log.Info("starting",
		"version", server.Version,
		"go_version", runtime.Version(),
		"addr", ln.Addr().String(),
		"debug_addr", *debugAddr,
		"cache_dir", *cacheDir,
		"memory_budget_mb", *budgetMB,
		"allow_shutdown", *allowShutdown,
		"slow_ms", *slowMS,
		"flight_dir", *flightDir,
		"log_level", level.String(),
	)

	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case s := <-sig:
		log.Info("shutting down", "reason", s.String())
	case <-stop:
		log.Info("shutting down", "reason", "shutdown requested")
	case err := <-errc:
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			return fail(log, err)
		}
		return 0
	}

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		return fail(log, err)
	}
	st := engine.Stats()
	fs := flight.Stats()
	log.Info("stopped",
		"requests", st.Requests,
		"errors", st.Errors,
		"resident_programs", st.ResidentPrograms,
		"flight_recorded", fs.Recorded,
	)
	return 0
}

func fail(log *obs.Logger, err error) int {
	if log != nil {
		log.Error("fatal", "error", err.Error())
	} else {
		os.Stderr.WriteString("gocheckd: " + err.Error() + "\n")
	}
	return 1
}
