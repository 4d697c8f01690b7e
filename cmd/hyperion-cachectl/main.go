// Command hyperion-cachectl administers the packed result cache that
// hyperion-sweep -cache and hyperion-server -cache share: offline
// compaction, end-to-end verification, and a stats summary.
//
// Operations run in a fixed order when combined: -compact, then
// -verify, then -stats.
//
// Usage:
//
//	hyperion-cachectl -store DIR -stats
//	hyperion-cachectl -store DIR -compact -verify
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/sweep"
	"repro/internal/version"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "hyperion-cachectl:", err)
		os.Exit(1)
	}
}

// run is the testable body of the command.
func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("hyperion-cachectl", flag.ContinueOnError)
	storeDir := fs.String("store", "", "packed result cache directory (required)")
	compact := fs.Bool("compact", false, "rewrite the store's segments, dropping superseded and stale-version records")
	verify := fs.Bool("verify", false, "check segment framing, checksums, and every live entry's decode/version/key")
	statsF := fs.Bool("stats", false, "print the store's shape: segments, live/stale records, torn tails, size")
	showVersion := fs.Bool("version", false, "print build version and exit")
	if err := fs.Parse(args); err != nil {
		if err == flag.ErrHelp {
			return nil // usage printed; -h is success
		}
		return err
	}
	if *showVersion {
		fmt.Fprintln(stdout, version.String())
		return nil
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected arguments %q", fs.Args())
	}
	if *storeDir == "" {
		return fmt.Errorf("-store is required")
	}
	if !*compact && !*verify && !*statsF {
		return fmt.Errorf("nothing to do: pass -compact, -verify and/or -stats")
	}

	cache, err := sweep.OpenCache(*storeDir)
	if err != nil {
		return err
	}
	defer cache.Close()

	if *compact {
		before := cache.Store().Stats()
		if err := cache.Store().Compact(); err != nil {
			return err
		}
		after := cache.Store().Stats()
		fmt.Fprintf(stdout, "compacted: %d -> %d segments, %d stale records dropped, %d -> %d bytes\n",
			before.Segments, after.Segments, before.StaleRecords, before.SizeBytes, after.SizeBytes)
	}
	if *verify {
		n, err := cache.Verify()
		if err != nil {
			return fmt.Errorf("verify: %w", err)
		}
		fmt.Fprintf(stdout, "verified: %d entries intact\n", n)
	}
	if *statsF {
		st := cache.Store().Stats()
		fmt.Fprintf(stdout, "segments:      %d\n", st.Segments)
		fmt.Fprintf(stdout, "live records:  %d\n", st.LiveRecords)
		fmt.Fprintf(stdout, "stale records: %d\n", st.StaleRecords)
		fmt.Fprintf(stdout, "torn tails:    %d\n", st.TornTails)
		fmt.Fprintf(stdout, "size bytes:    %d\n", st.SizeBytes)
	}
	return nil
}
