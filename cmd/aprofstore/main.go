// Command aprofstore manages an aprofd profile repository: the
// content-addressed, deduplicated, checksummed store that `aprofd -store`
// persists completed profiles into.
//
// Usage:
//
//	aprofstore init DIR     initialize a new repository
//	aprofstore ls DIR       list stored sessions
//	aprofstore stats DIR    population and dedup statistics
//	aprofstore gc DIR       delete unreferenced data, repack, refresh index
//	aprofstore check DIR    verify every pack, blob and snapshot (exit 1 on damage)
//
// check re-reads everything from disk and trusts nothing cached: framing,
// header CRCs, every blob's CRC-32 and SHA-256, and that every referenced
// profile is servable. A store of another version is refused by every
// command with an error naming both versions. Warnings (quarantined wreckage, stale
// index caches) do not fail it; a lost or unservable referenced blob does.
//
// The store keeps one profile per session, its head. gc frees the profiles
// that re-saves superseded, along with any other unreferenced data.
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"

	"aprof/internal/repo"
	"aprof/internal/repo/backend"
)

func main() {
	flag.Usage = usage
	flag.Parse()
	if flag.NArg() < 1 {
		usage()
		os.Exit(2)
	}
	cmd, rest := flag.Arg(0), flag.Args()[1:]
	oneDir := func() string {
		if len(rest) != 1 {
			usage()
			os.Exit(2)
		}
		return rest[0]
	}

	var err error
	switch cmd {
	case "init":
		err = runInit(oneDir())
	case "ls":
		err = withRepo(oneDir(), runLs)
	case "stats":
		err = withRepo(oneDir(), runStats)
	case "gc":
		err = withRepo(oneDir(), runGC)
	case "check":
		err = withRepo(oneDir(), runCheck)
	default:
		fmt.Fprintf(os.Stderr, "aprofstore: unknown command %q\n\n", cmd)
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "aprofstore:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprint(os.Stderr, `usage: aprofstore COMMAND DIR

Commands:
  init    initialize a new profile repository in DIR
  ls      list stored sessions
  stats   population and dedup statistics
  gc      delete unreferenced data (superseded profiles included),
          repack partially-live packs
  check   full integrity verification (exit 1 on damage)
`)
}

func runInit(dir string) error {
	be, err := backend.OpenLocal(dir)
	if err != nil {
		return err
	}
	if err := repo.Init(be); err != nil {
		return err
	}
	fmt.Printf("initialized empty profile repository in %s\n", dir)
	return nil
}

func withRepo(dir string, fn func(*repo.Repository) error) error {
	be, err := backend.OpenLocal(dir)
	if err != nil {
		return err
	}
	r, err := repo.Open(be, repo.Options{Logf: logf})
	if err != nil {
		return err
	}
	if err := fn(r); err != nil {
		return err
	}
	return r.Close()
}

func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
}

func runLs(r *repo.Repository) error {
	ids := r.SessionIDs()
	sort.Strings(ids)
	for _, id := range ids {
		data, err := r.GetSession(id)
		if err != nil {
			return fmt.Errorf("session %q: %w", id, err)
		}
		fmt.Printf("%-32s %10d bytes\n", id, len(data))
	}
	if len(ids) == 0 {
		fmt.Println("(no sessions)")
	}
	return nil
}

func runStats(r *repo.Repository) error {
	s, err := r.Stats()
	if err != nil {
		return err
	}
	fmt.Printf("sessions:       %d\n", s.Sessions)
	fmt.Printf("snapshots:      %d\n", s.Snapshots)
	fmt.Printf("packs:          %d\n", s.Packs)
	fmt.Printf("blobs:          %d (%d referenced profiles)\n", s.Blobs, s.Profiles)
	fmt.Printf("stored bytes:   %d\n", s.StoredBytes)
	fmt.Printf("live bytes:     %d\n", s.LiveBytes)
	fmt.Printf("dead bytes:     %d (reclaimable by gc)\n", s.DeadBytes)
	fmt.Printf("logical bytes:  %d\n", s.LogicalBytes)
	fmt.Printf("dedup factor:   %.2fx\n", s.DedupFactor())
	if s.DamagedPacks > 0 {
		fmt.Printf("damaged packs:  %d (quarantined; gc removes them)\n", s.DamagedPacks)
	}
	return nil
}

func runGC(r *repo.Repository) error {
	stats, err := r.GC()
	if err != nil {
		return err
	}
	fmt.Println(stats.String())
	return nil
}

func runCheck(r *repo.Repository) error {
	rep := r.Check()
	fmt.Printf("checked %d packs, %d blobs, %d snapshots, %d sessions\n",
		rep.Packs, rep.Blobs, rep.Snapshots, rep.Sessions)
	for _, w := range rep.Warnings {
		fmt.Printf("warning: %s\n", w)
	}
	for _, e := range rep.Errors {
		fmt.Printf("error: %s\n", e)
	}
	if !rep.OK() {
		return fmt.Errorf("check failed: %d error(s)", len(rep.Errors))
	}
	fmt.Println("no errors")
	return nil
}
