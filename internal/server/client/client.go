// Package client implements the aprofd trace-upload client: it streams an
// APT2 trace to a daemon and survives the network not cooperating. A torn
// connection, a busy server, or a draining server all lead to the same
// place — reconnect with capped exponential backoff and deterministic
// jitter, learn the server's checkpointed resume offset from the
// handshake, and resend; the server skips the acknowledged prefix, so the
// upload finishes exactly once no matter how many times the link dies.
package client

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"time"

	"aprof/internal/server"
)

// Defaults for Options fields left zero.
const (
	DefaultMaxAttempts = 8
	DefaultBackoff     = 100 * time.Millisecond
	// DefaultBusyAttemptFactor scales MaxAttempts into the default busy
	// budget: busy-shed is the server working as designed under load, so
	// it deserves a much longer leash than genuine failures.
	DefaultBusyAttemptFactor = 4
)

// ErrPermanent wraps server rejections that reconnecting cannot fix (bad
// handshake, event limit, config mismatch). Run gives up immediately.
var ErrPermanent = errors.New("client: permanent server error")

// ErrBusy marks a shed connection: the server is at its MaxSessions cap,
// the session id is already active, or the daemon is draining. Busy is
// transient by construction — the daemon shed exactly so that a later (or
// differently-routed) attempt can succeed — so Run retries it under its
// own MaxBusyAttempts budget with capped backoff instead of burning the
// failure budget, and a ClusterDialer fails the session over to the ring
// successor.
var ErrBusy = errors.New("client: server busy")

// Options configures one upload.
type Options struct {
	// Addr is the daemon's TCP address (ignored when Dial is set).
	Addr string
	// SessionID names the session; the server keys checkpoints, resume
	// state, and results by it. Must satisfy server.ValidSessionID.
	SessionID string
	// Lenient asks the server to decode the trace leniently.
	Lenient bool
	// Open returns a fresh reader over the trace from byte zero. It is
	// called once per connection attempt: resume-by-resend needs a
	// restartable source, not a one-shot stream.
	Open func() (io.ReadCloser, error)
	// MaxAttempts bounds consecutive failed attempts (default 8). Any
	// acknowledged progress resets the counter — a link that keeps dying
	// but keeps advancing is slow, not down. Busy-shed responses do not
	// count here; they have their own MaxBusyAttempts budget.
	MaxAttempts int
	// MaxBusyAttempts bounds consecutive busy-shed attempts (default
	// DefaultBusyAttemptFactor x MaxAttempts). A busy answer means the
	// server is healthy but full (or draining): it used to share — and
	// routinely exhaust — the failure budget, turning a transient overload
	// into a permanent-looking client error. Progress resets this counter
	// too.
	MaxBusyAttempts int
	// Backoff is the base of the capped exponential retry schedule:
	// consecutive failure k waits Backoff*2^(k-1) (default 100ms).
	Backoff time.Duration
	// MaxBackoff caps the delay (default 32*Backoff).
	MaxBackoff time.Duration
	// Jitter spreads each delay by ±Jitter (fraction in [0,1]) of nominal,
	// drawn deterministically from Seed.
	Jitter float64
	// Seed seeds the jitter stream.
	Seed int64
	// Dial replaces the default TCP dial — the chaos harness's injection
	// point for misbehaving connections. Takes precedence over Dialer.
	Dial func(ctx context.Context) (net.Conn, error)
	// Dialer, when non-nil (and Dial is nil), supplies connections from a
	// stateful source — a ClusterDialer routing by session id. If it also
	// implements AttemptObserver, Run reports every attempt's classified
	// outcome back to it, which is how failover decisions (busy → ring
	// successor, repeated resets → give the node up) are made.
	Dialer ConnDialer
	// Logf logs attempt-level events (nil discards).
	Logf func(format string, args ...any)
}

// Result summarizes a completed upload.
type Result struct {
	// Delivered is the server's final cumulative delivered-event count.
	Delivered uint64
	// Acks counts batch acknowledgements received across all connections.
	Acks int
	// Reconnects counts connection attempts after the first.
	Reconnects int
	// ResumedFrom is the largest checkpoint offset the server reported
	// resuming from (0 if every attempt started fresh).
	ResumedFrom uint64
}

// ConnDialer is a stateful connection source (see Options.Dialer).
type ConnDialer interface {
	DialContext(ctx context.Context) (net.Conn, error)
}

// AttemptObserver is optionally implemented by a ConnDialer that wants
// attempt feedback. Run calls AttemptResult after every connection
// attempt with nil on session completion, or the attempt's error —
// ErrBusy for a shed handshake, an error wrapping ErrPermanent for a
// rejection, anything else for a transient failure. A routing dialer uses
// the classification to decide whether the next DialContext should target
// the same node or its ring successor.
type AttemptObserver interface {
	AttemptResult(err error)
}

// Run uploads the trace, reconnecting until the server reports the session
// complete, ctx is cancelled, the relevant attempt budget is exhausted, or
// the server rejects the session permanently.
func Run(ctx context.Context, opts Options) (Result, error) {
	var res Result
	if opts.Open == nil {
		return res, errors.New("client: Options.Open is required")
	}
	if !server.ValidSessionID(opts.SessionID) {
		return res, fmt.Errorf("%w: invalid session id %q", ErrPermanent, opts.SessionID)
	}
	if opts.MaxAttempts <= 0 {
		opts.MaxAttempts = DefaultMaxAttempts
	}
	if opts.MaxBusyAttempts <= 0 {
		opts.MaxBusyAttempts = DefaultBusyAttemptFactor * opts.MaxAttempts
	}
	if opts.Backoff <= 0 {
		opts.Backoff = DefaultBackoff
	}
	if opts.MaxBackoff <= 0 {
		opts.MaxBackoff = 32 * opts.Backoff
	}
	if opts.Dial == nil {
		if opts.Dialer != nil {
			opts.Dial = opts.Dialer.DialContext
		} else {
			opts.Dial = func(ctx context.Context) (net.Conn, error) {
				var d net.Dialer
				return d.DialContext(ctx, "tcp", opts.Addr)
			}
		}
	}
	var observe func(error)
	if obs, ok := opts.Dialer.(AttemptObserver); ok {
		observe = obs.AttemptResult
	} else {
		observe = func(error) {}
	}
	logf := opts.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}
	rng := rand.New(rand.NewSource(opts.Seed))

	failures, busy := 0, 0
	var lastErr error
	for attempt := 0; ; attempt++ {
		if attempt > 0 {
			res.Reconnects++
			if err := backoffWait(ctx, rng, opts, failures+busy); err != nil {
				return res, errors.Join(err, lastErr)
			}
		}
		if err := ctx.Err(); err != nil {
			return res, errors.Join(err, lastErr)
		}

		progressed, done, err := attemptOnce(ctx, opts, &res)
		if done {
			observe(nil)
			return res, nil
		}
		observe(err)
		if errors.Is(err, ErrPermanent) {
			return res, err
		}
		lastErr = err
		if progressed {
			// The server acknowledged new batches this attempt: the link is
			// lossy, not dead. Start both budgets over.
			failures, busy = 0, 0
		}
		if errors.Is(err, ErrBusy) {
			// Shed, not broken: the server chose to turn this attempt
			// away. Retry on the dedicated busy budget so
			// sustained-but-finite overload cannot exhaust the failure
			// budget meant for real breakage.
			busy++
			logf("aprof client: attempt %d shed (%d consecutive busy): %v", attempt+1, busy, err)
			if busy >= opts.MaxBusyAttempts {
				return res, fmt.Errorf("client: shed %d consecutive times: %w", busy, lastErr)
			}
			continue
		}
		failures++
		logf("aprof client: attempt %d failed (%d consecutive): %v", attempt+1, failures, err)
		if failures >= opts.MaxAttempts {
			return res, fmt.Errorf("client: %d consecutive attempts failed: %w", failures, lastErr)
		}
	}
}

// backoffWait sleeps the jittered exponential delay for the given count of
// consecutive failures, interruptibly.
func backoffWait(ctx context.Context, rng *rand.Rand, opts Options, failures int) error {
	d := opts.Backoff
	for i := 1; i < failures && d < opts.MaxBackoff; i++ {
		d *= 2
	}
	if d > opts.MaxBackoff {
		d = opts.MaxBackoff
	}
	if opts.Jitter > 0 {
		frac := (rng.Float64()*2 - 1) * opts.Jitter
		d += time.Duration(float64(d) * frac)
		if d < 0 {
			d = 0
		}
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// attemptOnce runs one full connection attempt. progressed reports whether
// the server acknowledged new events; done reports session completion.
func attemptOnce(ctx context.Context, opts Options, res *Result) (progressed, done bool, err error) {
	conn, err := opts.Dial(ctx)
	if err != nil {
		return false, false, fmt.Errorf("client: dial: %w", err)
	}
	defer conn.Close()
	// Cancellation must interrupt blocked reads/writes on this conn, not
	// just be noticed between them.
	stopCancel := context.AfterFunc(ctx, func() { conn.Close() })
	defer stopCancel()

	if _, err := conn.Write(server.AppendHandshake(nil, opts.SessionID, opts.Lenient)); err != nil {
		return false, false, fmt.Errorf("client: sending handshake: %w", err)
	}
	br := bufio.NewReader(conn)
	resp, err := server.ReadResponse(br)
	if err != nil {
		return false, false, fmt.Errorf("client: reading handshake response: %w", err)
	}
	switch {
	case resp.Status == server.StatusBusy:
		return false, false, fmt.Errorf("%w: %s", ErrBusy, resp.Msg)
	case resp.Status == server.StatusError:
		return false, false, fmt.Errorf("%w: handshake rejected: %s", ErrPermanent, resp.Msg)
	case resp.Status == server.StatusResume:
		if resp.ResumeOffset > res.ResumedFrom {
			res.ResumedFrom = resp.ResumeOffset
		}
	}

	src, err := opts.Open()
	if err != nil {
		return false, false, fmt.Errorf("%w: opening trace source: %v", ErrPermanent, err)
	}
	defer src.Close()

	// The trace streams up while records stream down. The sender's error is
	// secondary: if the server failed, the record loop learns why; if the
	// link died, both sides fail and the record error is as good.
	sendDone := make(chan error, 1)
	go func() {
		_, err := io.Copy(conn, src)
		if err == nil {
			// Half-close tells the server the trace is complete while
			// leaving the record stream open.
			type closeWriter interface{ CloseWrite() error }
			if cw, ok := conn.(closeWriter); ok {
				cw.CloseWrite()
			}
		}
		sendDone <- err
	}()
	defer func() { <-sendDone }() // conn.Close above unblocks the sender

	for {
		rec, rerr := server.ReadRecord(br)
		if rerr != nil {
			if ctx.Err() != nil {
				return progressed, false, ctx.Err()
			}
			return progressed, false, fmt.Errorf("client: connection lost: %w", rerr)
		}
		switch rec.Kind {
		case server.RecAck:
			res.Acks++
			if rec.Delivered > res.Delivered {
				res.Delivered = rec.Delivered
				progressed = true
			}
		case server.RecFinal:
			if rec.Delivered > res.Delivered {
				res.Delivered = rec.Delivered
			}
			return progressed, true, nil
		case server.RecError:
			if rec.Transient {
				return progressed, false, fmt.Errorf("client: server error (transient): %s", rec.Msg)
			}
			return progressed, false, fmt.Errorf("%w: %s", ErrPermanent, rec.Msg)
		}
	}
}
