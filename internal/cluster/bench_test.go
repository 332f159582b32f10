package cluster_test

// Multi-node ingest throughput: concurrent sessions routed by the ring
// across 1 vs 3 loopback nodes. On a multi-core host the 3-node cluster
// decodes and profiles sessions on distinct cores and should approach a
// linear win; on a 1-core container the nodes time-slice one CPU, so the
// numbers measure routing + connection overhead, not scaling.

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"testing"

	"aprof/internal/core"
	"aprof/internal/server"
	"aprof/internal/server/client"
	"aprof/internal/trace"
)

func BenchmarkClusterIngest(b *testing.B) {
	tr := trace.Random(trace.RandomConfig{Seed: 50, Ops: 2000, Threads: 3})
	var buf bytes.Buffer
	if err := trace.WriteBinary(&buf, tr); err != nil {
		b.Fatal(err)
	}
	enc := buf.Bytes()
	const sessions = 4

	for _, nNodes := range []int{1, 3} {
		b.Run(fmt.Sprintf("nodes=%d", nNodes), func(b *testing.B) {
			addrs := make([]string, nNodes)
			for i := range addrs {
				s := server.New(server.Options{
					Config:      core.DefaultConfig(),
					MaxSessions: sessions,
					Logf:        func(string, ...any) {},
				})
				if err := s.Start("127.0.0.1:0"); err != nil {
					b.Fatal(err)
				}
				defer func() {
					s.Abort()
					s.Wait()
				}()
				addrs[i] = s.Addr()
			}

			b.ReportAllocs()
			b.SetBytes(int64(len(enc)) * sessions)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				errs := make(chan error, sessions)
				for sess := 0; sess < sessions; sess++ {
					id := fmt.Sprintf("ingest-%d-%d", i, sess)
					go func() {
						cd, err := client.NewClusterDialer(client.ClusterOptions{
							Nodes: addrs, SessionID: id,
						})
						if err != nil {
							errs <- err
							return
						}
						_, err = client.Run(context.Background(), client.Options{
							SessionID: id,
							Open: func() (io.ReadCloser, error) {
								return io.NopCloser(bytes.NewReader(enc)), nil
							},
							Dialer: cd,
						})
						errs <- err
					}()
				}
				for sess := 0; sess < sessions; sess++ {
					if err := <-errs; err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}
