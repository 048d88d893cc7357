// Command portald serves the cluster computing portal: the web interface,
// the job distributor and the simulated teaching cluster, in one process.
//
// Usage:
//
//	portald [-config portal.json] [-addr :8080] [-policy pack|spread]
//	        [-backfill] [-log info] [-admin user:password] [-pprof :6060]
package main

import (
	"flag"
	"fmt"
	"net/http"
	_ "net/http/pprof"
	"os"
	"os/signal"
	"syscall"

	ccportal "repro"
)

func main() {
	var (
		configPath = flag.String("config", "", "path to a JSON config file (defaults to the paper's cluster)")
		addr       = flag.String("addr", "", "listen address override, e.g. :8080")
		policy     = flag.String("policy", "pack", "node placement policy: pack or spread")
		backfill   = flag.Bool("backfill", false, "let small jobs run past a blocked queue head")
		collective = flag.String("collectives", "", "MPI collective algorithm: linear, tree or hier")
		logLevel   = flag.String("log", "info", "log level: debug, info, warn, error, off")
		admin      = flag.String("admin", "", "bootstrap an admin account, as user:password")
		dataDir    = flag.String("data-dir", "", "enable the durable data provider (WAL + snapshots) in this directory")
		fsync      = flag.String("fsync", "", "WAL fsync policy override: always or never")
		pprofAddr  = flag.String("pprof", "", "serve net/http/pprof on this address (e.g. :6060); empty disables")
	)
	flag.Parse()

	if err := run(*configPath, *addr, *policy, *logLevel, *admin, *dataDir, *fsync, *pprofAddr, *collective, *backfill); err != nil {
		fmt.Fprintln(os.Stderr, "portald:", err)
		os.Exit(1)
	}
}

func run(configPath, addr, policy, logLevel, admin, dataDir, fsync, pprofAddr, collective string, backfill bool) error {
	cfg := ccportal.DefaultConfig()
	if configPath != "" {
		loaded, err := ccportal.LoadConfig(configPath)
		if err != nil {
			return err
		}
		cfg = loaded
	}
	if addr != "" {
		cfg.Portal.ListenAddr = addr
	}
	if dataDir != "" {
		cfg.Persistence.Mode = "durable"
		cfg.Persistence.Dir = dataDir
	}
	if fsync != "" {
		cfg.Persistence.Fsync = fsync
	}
	if collective != "" {
		cfg.MPI.Collectives = collective
	}
	logger, err := ccportal.NewLogger(logLevel)
	if err != nil {
		return err
	}
	sys, err := ccportal.New(cfg, ccportal.Options{
		Policy:   policy,
		Backfill: backfill,
		Logger:   logger,
	})
	if err != nil {
		return err
	}
	// Crash recovery: replay the provider's snapshot and WAL, then arm
	// journaling. With the memory provider this finds nothing and costs
	// nothing.
	stats, err := sys.Recover()
	if err != nil {
		return fmt.Errorf("recovering from %s: %w", cfg.Persistence.Dir, err)
	}
	if cfg.Persistence.Mode == "durable" {
		logger.Infof("recovered in %v: %d snapshot bytes, %d WAL records replayed, %d jobs requeued",
			stats.Elapsed, stats.SnapshotBytes, stats.Records, stats.Requeued)
	}
	if admin != "" {
		user, pass, ok := splitColon(admin)
		if !ok {
			return fmt.Errorf("-admin needs user:password, got %q", admin)
		}
		if err := sys.Bootstrap(user, pass, ccportal.RoleAdmin); err != nil {
			// A restored state may already contain the account.
			logger.Warnf("bootstrap admin: %v", err)
		} else {
			logger.Infof("bootstrapped admin account %q", user)
		}
	}
	// Graceful shutdown: on SIGINT/SIGTERM drain the scheduler — in-flight
	// jobs get the drain timeout to finish before they are cancelled — then
	// fold the WAL into a snapshot (when durable) and exit.
	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-stop
		logger.Infof("shutting down: draining in-flight jobs")
		sys.Stop()
		if cfg.Persistence.Mode == "durable" {
			// Fold the WAL into a final snapshot, then release the provider.
			if _, err := sys.SnapshotNow(); err != nil {
				logger.Errorf("final snapshot: %v", err)
			}
			if err := sys.Provider.Close(); err != nil {
				logger.Errorf("closing data provider: %v", err)
			}
		}
		os.Exit(0)
	}()
	if pprofAddr != "" {
		// The profiler rides its own listener so it is never exposed on the
		// portal's public address. http.DefaultServeMux carries the pprof
		// routes registered by the blank import; the portal handler does not
		// use it.
		go func() {
			logger.Infof("pprof listening on %s", pprofAddr)
			if err := http.ListenAndServe(pprofAddr, nil); err != nil {
				logger.Errorf("pprof server: %v", err)
			}
		}()
	}
	defer sys.Stop()
	return sys.ListenAndServe()
}

func splitColon(s string) (a, b string, ok bool) {
	for i := 0; i < len(s); i++ {
		if s[i] == ':' {
			return s[:i], s[i+1:], s[:i] != "" && s[i+1:] != ""
		}
	}
	return "", "", false
}
