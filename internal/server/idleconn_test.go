package server

import (
	"errors"
	"net"
	"os"
	"sync/atomic"
	"testing"
	"time"
)

// TestIdleConnReadObservesDrain: a Read that arms its idle deadline after
// Shutdown's nudge must still return promptly. With the drain flag already
// set and an hour-long idle timeout, a Read on a silent peer has to fail
// with a timeout instead of blocking.
func TestIdleConnReadObservesDrain(t *testing.T) {
	srv, cli := net.Pipe()
	defer srv.Close()
	defer cli.Close()
	var draining atomic.Bool
	draining.Store(true)
	c := &idleConn{Conn: srv, idle: time.Hour, draining: &draining}

	done := make(chan error, 1)
	go func() {
		_, err := c.Read(make([]byte, 1))
		done <- err
	}()
	select {
	case err := <-done:
		if !errors.Is(err, os.ErrDeadlineExceeded) {
			t.Fatalf("Read while draining = %v, want a deadline error", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Read while draining blocked on the idle deadline")
	}
}
