// Command aprofd is the resilient trace-ingestion daemon: it accepts APT2
// trace streams over TCP (one profiling session per connection, keyed by a
// client-chosen session id) and serves the finished profiles over the
// debug HTTP endpoint.
//
// Usage:
//
//	aprofd -addr localhost:7071 [-checkpoint-dir DIR] [-result-dir DIR] [-store DIR]
//	       [-debug-addr localhost:6060] [-max-sessions N] [-metric drms|rms|external-only]
//	aprofd -addr HOST:PORT -replicate-peers HOST:PORT,... [-store DIR] [-replica-dir DIR]
//	       [-cluster-peers HOST:PORT,...] [-sync-every D] [-replicas R] ...
//
// Sessions are panic-isolated and deadline-guarded; beyond -max-sessions
// the daemon sheds load with an explicit busy response instead of
// queueing. With -checkpoint-dir every session is durable: the node keeps
// its sessions' checkpoints in a checkpoint store in that directory, the
// same store a cluster member keeps under -replica-dir, interrupted
// uploads resume from the last checkpoint, and SIGINT/SIGTERM drains
// gracefully — stop accepting, checkpoint everything in flight, exit — so
// a restarted daemon loses nothing. A single node acks every batch. A
// second signal aborts hard.
//
// With -store, completed profiles are persisted into a content-addressed
// profile repository (one SHA-256-addressed blob per profile, checksummed,
// crash-safe) and /profiles/ serves sessions from it across restarts.
// Manage the store with the aprofstore command.
//
// A cluster member runs with -replicate-peers (the full membership's
// ingest addresses, this node included); the cluster needs no shared disk.
// Each node keeps every checkpoint it holds in one checkpoint store under
// -replica-dir (default <store>/replica): its own sessions' checkpoints
// and the copies it holds for its peers. Each session's checkpoint is
// stored there and pushed to its ring successors before any batch is
// acknowledged, so acks come at checkpoint boundaries; failover nodes
// recover checkpoints from the replica set, and the profile store
// anti-entropy loop (-sync-every) pulls every peer's missing blobs so
// /profiles/ serves every acked session even after a node's disk is lost.
// Replication shares the -addr port; -checkpoint-dir is for a single node
// and is refused with it.
// -cluster-peers lists the other members' debug HTTP addresses: /profiles/
// then serves the merged cluster-wide view instead of only this node's
// share.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"time"

	"aprof"
	"aprof/internal/cluster"
	"aprof/internal/obs"
	"aprof/internal/replica"
	"aprof/internal/repo"
	"aprof/internal/repo/backend"
	"aprof/internal/server"
)

func main() {
	var (
		addr      = flag.String("addr", "localhost:7071", "TCP address to accept trace streams on")
		debugAddr = flag.String("debug-addr", "", "serve metrics, pprof and /profiles/ on this HTTP address")
		ckptDir   = flag.String("checkpoint-dir", "", "checkpoint store directory of a single node, one <session>.rck log per session (enables resume and drain durability; not with -replicate-peers, whose store is -replica-dir)")
		resultDir = flag.String("result-dir", "", "directory to write completed profiles to as <session>.json")
		storeDir  = flag.String("store", "", "profile repository directory (content-addressed, deduplicated, crash-safe); created if missing")
		metric    = flag.String("metric", "drms", "input metric: drms, rms, or external-only")

		maxSessions = flag.Int("max-sessions", server.DefaultMaxSessions, "concurrent session cap; excess connections are shed with a busy response. With -store, also the number of completed profiles kept in memory (older ones are served from the store)")
		idle        = flag.Duration("idle-timeout", server.DefaultIdleTimeout, "per-read client deadline; stalled clients are cut off")
		writeT      = flag.Duration("write-timeout", server.DefaultWriteTimeout, "per-write client deadline")
		maxBytes    = flag.Int64("max-conn-bytes", 0, "per-connection byte cap (0 = unlimited)")
		maxEvents   = flag.Uint64("max-session-events", 0, "per-session delivered-event cap (0 = unlimited)")
		batch       = flag.Int("batch", 0, "pipeline batch size (0 = default)")
		ckptEvery   = flag.Int("checkpoint-every", 0, "events between periodic checkpoints (0 = default)")
		drainT      = flag.Duration("drain-timeout", 30*time.Second, "graceful drain budget before in-flight connections are force-closed")

		clusterPeers = flag.String("cluster-peers", "", "comma-separated debug HTTP addresses of the other cluster nodes; /profiles/ serves the merged cluster view (with -replicate-peers)")
		replPeers    = flag.String("replicate-peers", "", "comma-separated ingest addresses of ALL cluster members (this node included); enables peer-to-peer checkpoint replication and store sync — no shared disk needed")
		replSelf     = flag.String("replicate-self", "", "this node's own address within -replicate-peers (default -addr)")
		replicas     = flag.Int("replicas", replica.DefaultReplicas, "checkpoint copies per session, this node's included (with -replicate-peers)")
		replicaDir   = flag.String("replica-dir", "", "checkpoint store directory: this node's session checkpoints and those received from peers (default <store>/replica; with -replicate-peers)")
		syncEvery    = flag.Duration("sync-every", 30*time.Second, "store anti-entropy interval: pull missing blobs from every replication peer (0 disables; with -replicate-peers and -store)")
	)
	flag.Parse()

	cfg, err := configFor(*metric)
	if err != nil {
		fatal(err)
	}
	// Replication-dependent flags without replication are a configuration
	// mistake, not a silent default. A cluster member recovers sessions
	// only from the replica set, and a replicating node keeps its
	// checkpoints in its replica store, never in a checkpoint dir.
	switch {
	case *replPeers == "" && (*replSelf != "" || *replicaDir != ""):
		fatal(fmt.Errorf("-replicate-self/-replica-dir need -replicate-peers"))
	case *replPeers == "" && *clusterPeers != "":
		fatal(fmt.Errorf("-cluster-peers needs -replicate-peers: a cluster member recovers failed-over sessions from its peers' checkpoint replicas"))
	case *replPeers != "" && *ckptDir != "":
		fatal(fmt.Errorf("-checkpoint-dir cannot be used with -replicate-peers: a replicating node keeps its checkpoints in its replica store (-replica-dir, default <store>/replica)"))
	}
	for _, dir := range []string{*ckptDir, *resultDir} {
		if dir != "" {
			if err := os.MkdirAll(dir, 0o755); err != nil {
				fatal(err)
			}
		}
	}

	// Signals are taken before any server announces its address: a SIGTERM
	// sent as soon as "listening on" is printed must drain, not kill.
	sigs := make(chan os.Signal, 2)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)

	reg := obs.NewRegistry()
	// Sessions report their core, shadow and profio metrics here too, so
	// -debug-addr's /debug/obs shows them next to the server's.
	cfg.Obs = reg
	logger := log.New(os.Stderr, "", log.LstdFlags)

	var store *repo.Repository
	var storeBackend backend.Backend
	if *storeDir != "" {
		be, err := backend.OpenLocal(*storeDir)
		if err != nil {
			fatal(err)
		}
		storeBackend = be
		store, err = repo.OpenOrInit(be, repo.Options{Obs: reg, Logf: logger.Printf})
		if err != nil {
			fatal(err)
		}
		defer store.Close()
		logger.Printf("aprofd: profile store at %s", *storeDir)
	}

	var replicaNode *replica.Node
	var replPeerList []string
	var replSelfAddr string
	if *replPeers != "" {
		peers := splitAddrs(*replPeers)
		self := *replSelf
		if self == "" {
			self = *addr
		}
		replPeerList, replSelfAddr = peers, self
		dir := *replicaDir
		if dir == "" && *storeDir != "" {
			dir = filepath.Join(*storeDir, "replica")
		}
		if dir == "" {
			logger.Printf("aprofd: warning: no -replica-dir and no -store; this node's checkpoints, its own sessions' and its peers', are held in memory only")
		}
		node, err := replica.NewNode(replica.Options{
			Self:     self,
			Peers:    peers,
			Replicas: *replicas,
			Dir:      dir,
			Backend:  storeBackend,
			Obs:      reg,
			Logf:     logger.Printf,
		})
		if err != nil {
			fatal(err)
		}
		defer node.Close()
		replicaNode = node
		logger.Printf("aprofd: replicating checkpoints to %d-node ring as %s (R=%d)", len(peers), self, *replicas)
	}

	srvOpts := server.Options{
		MaxSessions:      *maxSessions,
		IdleTimeout:      *idle,
		WriteTimeout:     *writeT,
		MaxConnBytes:     *maxBytes,
		MaxSessionEvents: *maxEvents,
		CheckpointDir:    *ckptDir,
		ResultDir:        *resultDir,
		Store:            store,
		Config:           cfg,
		BatchSize:        *batch,
		CheckpointEvery:  *ckptEvery,
		Obs:              reg,
		Logf:             logger.Printf,
	}
	if replicaNode != nil {
		// Assigned conditionally so a nil *Node never becomes a non-nil
		// ReplicaService interface.
		srvOpts.Replica = replicaNode
	}
	s := server.New(srvOpts)

	if *debugAddr != "" {
		// With peers, /profiles/ fans out to the whole cluster; the merged
		// document is a superset of the single-node shape, so consumers need
		// not care which node they asked.
		var profiles http.Handler = s.ProfilesHandler()
		if *clusterPeers != "" {
			peers := strings.Split(*clusterPeers, ",")
			for i := range peers {
				peers[i] = strings.TrimSpace(peers[i])
			}
			profiles = cluster.NewFanout(s, peers, 0).Handler()
			logger.Printf("aprofd: cluster fan-out over %d peers", len(peers))
		}
		dbg, err := obs.ServeDebugMux(*debugAddr, reg, func(mux *http.ServeMux) {
			mux.Handle("/profiles/", profiles)
		})
		if err != nil {
			fatal(err)
		}
		defer dbg.Close()
		logger.Printf("aprofd: debug server on http://%s/profiles/", dbg.Addr())
	}

	if err := s.Start(*addr); err != nil {
		fatal(err)
	}
	logger.Printf("aprofd: listening on %s", s.Addr())

	if replicaNode != nil && store != nil && *syncEvery > 0 {
		stop := startSyncLoop(store, replSelfAddr, replPeerList, *syncEvery, logger.Printf)
		defer stop()
		logger.Printf("aprofd: store anti-entropy every %v", *syncEvery)
	}

	sig := <-sigs
	logger.Printf("aprofd: %v: draining (checkpointing in-flight sessions, %v budget; signal again to abort)", sig, *drainT)

	drainDone := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), *drainT)
		defer cancel()
		drainDone <- s.Shutdown(ctx)
	}()
	select {
	case err := <-drainDone:
		if err != nil {
			logger.Printf("aprofd: drain incomplete, connections force-closed: %v", err)
			os.Exit(1)
		}
		logger.Printf("aprofd: drained cleanly")
	case sig = <-sigs:
		logger.Printf("aprofd: %v: aborting", sig)
		s.Abort()
		s.Wait()
		os.Exit(1)
	}
}

// startSyncLoop runs store anti-entropy in the background: every interval,
// pull whatever blobs and sessions each replication peer has that this
// store lacks. Pull-only, so a partition mid-sync degrades to "retry next
// round" — never corruption. The returned stop func waits for the loop to
// exit and closes the peer connections.
func startSyncLoop(store *repo.Repository, self string, peers []string, every time.Duration, logf func(string, ...any)) func() {
	remotes := make([]*backend.Peer, 0, len(peers))
	for _, p := range peers {
		if p == self {
			continue
		}
		remotes = append(remotes, backend.NewPeer(p, backend.PeerOptions{}))
	}
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		t := time.NewTicker(every)
		defer t.Stop()
		for {
			select {
			case <-done:
				return
			case <-t.C:
			}
			for _, r := range remotes {
				stats, err := store.Sync(r)
				if err != nil {
					logf("aprofd: sync from %s: %v", r.Addr(), err)
					continue
				}
				if stats.PacksPulled > 0 || stats.RootWritten {
					logf("aprofd: sync from %s: %s", r.Addr(), stats)
				}
			}
		}
	}()
	return func() {
		close(done)
		wg.Wait()
		for _, r := range remotes {
			r.Close()
		}
	}
}

// splitAddrs splits a comma-separated address list, trimming whitespace
// and dropping empties.
func splitAddrs(s string) []string {
	var out []string
	for _, p := range strings.Split(s, ",") {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}

func configFor(metric string) (aprof.Config, error) {
	switch strings.ToLower(metric) {
	case "drms":
		return aprof.DefaultConfig(), nil
	case "rms":
		return aprof.RMSOnlyConfig(), nil
	case "external-only", "external":
		return aprof.ExternalOnlyConfig(), nil
	default:
		return aprof.Config{}, fmt.Errorf("unknown metric %q (want drms, rms, or external-only)", metric)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "aprofd:", err)
	os.Exit(1)
}
