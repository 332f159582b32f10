// Command aprofsend uploads a saved APT2 trace to an aprofd daemon,
// reconnecting with capped exponential backoff and resuming from the
// server's checkpoint when the connection — or the daemon — dies mid-way.
//
// Usage:
//
//	aprofsend -addr localhost:7071 -session build-42 trace.bin
//	aprofsend -cluster host1:7071,host2:7071,host3:7071 -session build-42 trace.bin
//
// With -cluster the session id picks its node on the consistent-hash
// ring, and the upload fails over to the ring successor when the chosen
// node refuses connections, sheds the session as busy, or keeps dying
// mid-stream — resuming from the server-acked offset either way.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"aprof/internal/server"
	"aprof/internal/server/client"
)

func main() {
	var (
		addr     = flag.String("addr", "localhost:7071", "aprofd address")
		clusterN = flag.String("cluster", "", "comma-separated aprofd node addresses; routes by session id with ring-successor failover (overrides -addr)")
		session  = flag.String("session", "", "session id (required; names the profile on the server)")
		lenient  = flag.Bool("lenient", false, "ask the server to skip corrupt APT2 frames instead of aborting")
		attempts = flag.Int("attempts", client.DefaultMaxAttempts, "consecutive failed attempts tolerated (progress resets the count)")
		backoff  = flag.Duration("backoff", client.DefaultBackoff, "base reconnect backoff (doubles per consecutive failure)")
		jitter   = flag.Float64("jitter", 0.2, "reconnect backoff jitter fraction")
		verbose  = flag.Bool("v", false, "log reconnect attempts to stderr")
	)
	flag.Parse()
	if flag.NArg() != 1 || *session == "" {
		fmt.Fprintln(os.Stderr, "usage: aprofsend -addr HOST:PORT -session ID trace.bin")
		flag.Usage()
		os.Exit(2)
	}
	if !server.ValidSessionID(*session) {
		fatal(fmt.Errorf("invalid session id %q (want [A-Za-z0-9._-]+, at most 64 chars)", *session))
	}
	path := flag.Arg(0)
	if _, err := os.Stat(path); err != nil {
		fatal(err)
	}

	// Ctrl-C stops the upload cleanly; the server keeps its checkpoint, so
	// a later aprofsend with the same session id resumes where this left off.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	opts := client.Options{
		Addr:        *addr,
		SessionID:   *session,
		Lenient:     *lenient,
		Open:        func() (io.ReadCloser, error) { return os.Open(path) },
		MaxAttempts: *attempts,
		Backoff:     *backoff,
		Jitter:      *jitter,
		Seed:        time.Now().UnixNano(),
	}
	if *verbose {
		opts.Logf = func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, format+"\n", args...)
		}
	}
	if *clusterN != "" {
		nodes := strings.Split(*clusterN, ",")
		for i := range nodes {
			nodes[i] = strings.TrimSpace(nodes[i])
		}
		dialer, err := client.NewClusterDialer(client.ClusterOptions{
			Nodes:     nodes,
			SessionID: *session,
			Logf:      opts.Logf,
		})
		if err != nil {
			fatal(err)
		}
		opts.Addr = ""
		opts.Dialer = dialer
	}

	res, err := client.Run(ctx, opts)
	if err != nil {
		if ctx.Err() != nil {
			fmt.Fprintf(os.Stderr, "aprofsend: interrupted after %d delivered events; rerun to resume session %q\n",
				res.Delivered, *session)
			os.Exit(130)
		}
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "aprofsend: session %q complete: %d events delivered (%d acks, %d reconnects",
		*session, res.Delivered, res.Acks, res.Reconnects)
	if res.ResumedFrom > 0 {
		fmt.Fprintf(os.Stderr, ", resumed from event %d", res.ResumedFrom)
	}
	fmt.Fprintln(os.Stderr, ")")
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "aprofsend:", err)
	os.Exit(1)
}
