package cli

import (
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"kwmds/internal/dyngraph"
	"kwmds/internal/graph"
	"kwmds/internal/graphio"
	"kwmds/internal/server"
	"kwmds/internal/wal"
)

// ServeConfig is the parsed command line of `kwmds serve`.
type ServeConfig struct {
	Addr         string
	Workers      int
	CacheEntries int
	// Preload entries have the form name=<source>, where <source> is
	// anything LoadGraph accepts (an edge-list file or a gen: spec). A
	// preloaded graph is only the starting snapshot: clients may evolve it
	// epoch by epoch through POST /v1/graphs/{name}/mutate (the
	// internal/dyngraph engine behind the server keeps the name stable
	// while the topology, digest and epoch advance).
	Preload []string
	// MaxQueue bounds the admission queue in front of the worker pool:
	// solves beyond Workers running + MaxQueue waiting are shed with
	// 429 + Retry-After (see server.Config.MaxQueue). 0 = unbounded.
	MaxQueue int
	// QueueTimeout bounds an admitted solve's wait for a worker slot;
	// 0 disables (see server.Config.QueueTimeout).
	QueueTimeout time.Duration

	// DataDir, when non-empty, makes every preloaded graph durable: each
	// gets a write-ahead log plus snapshots under DataDir/<name>/, mutate
	// answers 200 only once the epoch's record is fsynced, and a restart
	// recovers the graph from disk — the -preload source then only seeds
	// the very first boot.
	DataDir string
	// SnapshotEpochs and SnapshotBytes tune when a durable graph's log is
	// compacted into a fresh snapshot (0 = the wal package defaults of
	// 128 epochs / 4 MiB; negative disables that trigger).
	SnapshotEpochs int
	SnapshotBytes  int64

	// PprofAddr, when non-empty, serves the net/http/pprof handlers on a
	// separate listener at that address — off by default so production
	// deployments never expose profiling endpoints by accident.
	PprofAddr string
}

// BuildServer resolves the preload specs and constructs the HTTP service.
// `.kwcsr` preloads open through the zero-copy mmap path: the CSR arrays
// alias the page cache, so a multi-gigabyte snapshot is serving in
// milliseconds. The server takes ownership of every mapping and WAL the
// build opens — Server.Close (run by the caller's cleanup after the drain)
// releases them; the returned cleanup only covers construction failures
// after partial progress.
//
// With cfg.DataDir set, each preload recovers from (or initializes)
// DataDir/<name>/: an existing snapshot+log chain wins over the -preload
// source, which then only seeds the first boot.
func BuildServer(cfg ServeConfig) (*server.Server, func(), error) {
	preloads := make(map[string]server.Preload, len(cfg.Preload))
	var opened []io.Closer
	cleanup := func() {
		for _, c := range opened {
			c.Close()
		}
	}
	for _, entry := range cfg.Preload {
		name, src, ok := strings.Cut(entry, "=")
		if !ok || name == "" || src == "" {
			cleanup()
			return nil, nil, fmt.Errorf("bad -preload %q (want name=file or name=gen:spec)", entry)
		}
		if _, dup := preloads[name]; dup {
			cleanup()
			return nil, nil, fmt.Errorf("duplicate -preload name %q", name)
		}
		if cfg.DataDir != "" && (strings.ContainsAny(name, `/\`) || name == "." || name == "..") {
			// The name becomes a directory component under -data-dir.
			cleanup()
			return nil, nil, fmt.Errorf("preload name %q is not usable with -data-dir (no path separators)", name)
		}
		var g *graph.Graph
		var srcMapped *graphio.MappedGraph
		if strings.HasSuffix(src, ".kwcsr") {
			m, err := graphio.OpenMapped(src)
			if err != nil {
				cleanup()
				return nil, nil, fmt.Errorf("preload %q: %w", name, err)
			}
			opened = append(opened, m)
			// One bandwidth pass at startup, so a structurally corrupt
			// container is refused here instead of panicking a solve. The
			// digest stays unverified — operator-provided files, the same
			// trust ReadBinaryCSRTrusted extends.
			if err := m.VerifyStructure(); err != nil {
				cleanup()
				return nil, nil, fmt.Errorf("preload %q: %w", name, err)
			}
			g, srcMapped = m.Graph(), m
		} else {
			var err error
			g, err = LoadGraph(src, nil)
			if err != nil {
				cleanup()
				return nil, nil, fmt.Errorf("preload %q: %w", name, err)
			}
		}
		if cfg.DataDir == "" {
			preloads[name] = server.Preload{Dyn: dyngraph.New(g), Mapped: srcMapped}
			continue
		}
		rec, err := wal.Open(filepath.Join(cfg.DataDir, name), g, nil, wal.Options{
			SnapshotEveryEpochs: cfg.SnapshotEpochs,
			SnapshotEveryBytes:  cfg.SnapshotBytes,
		})
		if err != nil {
			cleanup()
			return nil, nil, fmt.Errorf("preload %q: %w", name, err)
		}
		opened = append(opened, rec.Log)
		pl := server.Preload{Dyn: rec.Dyn, Log: rec.Log}
		if rec.Mapped != nil {
			// Recovered from disk: the durable chain superseded the
			// -preload source, whose mapping (if any) is now redundant.
			pl.Mapped = rec.Mapped
			opened = append(opened, rec.Mapped)
			if srcMapped != nil {
				srcMapped.Close()
			}
		} else {
			// First boot: the engine's base graph is the source itself.
			pl.Mapped = srcMapped
		}
		preloads[name] = pl
	}
	srv := server.New(server.Config{
		Workers:      cfg.Workers,
		CacheEntries: cfg.CacheEntries,
		Preloads:     preloads,
		MaxQueue:     cfg.MaxQueue,
		QueueTimeout: cfg.QueueTimeout,
	})
	// Everything in `opened` now belongs to the server; Close is
	// idempotent, so the caller's deferred cleanup composes with it.
	return srv, func() { srv.Close() }, nil
}

// RunServe builds the configured service and blocks serving on cfg.Addr
// until SIGTERM or SIGINT, then drains gracefully: the listener closes,
// in-flight solves (including any still waiting for a worker slot) complete
// and are answered, and RunServe returns nil so the process exits 0. ready,
// when non-nil, receives the bound address once the listener is up (tests
// use it with addr ":0").
func RunServe(cfg ServeConfig, ready chan<- string) error {
	srv, cleanup, err := BuildServer(cfg)
	if err != nil {
		return err
	}
	defer cleanup()
	if cfg.PprofAddr != "" {
		pln, err := net.Listen("tcp", cfg.PprofAddr)
		if err != nil {
			return fmt.Errorf("pprof listener: %w", err)
		}
		defer pln.Close()
		mux := http.NewServeMux()
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		go http.Serve(pln, mux) //nolint:errcheck // dies with the process
	}
	ln, err := net.Listen("tcp", cfg.Addr)
	if err != nil {
		return err
	}
	if ready != nil {
		ready <- ln.Addr().String()
	}
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGTERM, os.Interrupt)
	defer signal.Stop(sig)
	stop := make(chan struct{})
	done := make(chan struct{})
	defer close(done)
	go func() {
		select {
		case <-sig:
			close(stop)
		case <-done:
		}
	}()
	return server.Graceful(ln, srv.Handler(), stop, 30*time.Second)
}
