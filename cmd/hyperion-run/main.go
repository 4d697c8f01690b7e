// Command hyperion-run executes one of the paper's benchmark programs on
// one simulated cluster configuration and reports the virtual execution
// time, the validation outcome and the protocol event counters.
//
// Usage:
//
//	hyperion-run -app jacobi -cluster myrinet -nodes 8 -protocol java_pf
//	hyperion-run -app asp -cluster sci -nodes 6 -protocol java_ic -paperscale
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/pagestats"
	"repro/internal/sweep"
	"repro/internal/trace"
	"repro/internal/version"

	hyperion "repro"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "hyperion-run:", err)
		os.Exit(1)
	}
}

// run is the testable body of the command: parse args, run one
// benchmark, print the report to stdout.
func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("hyperion-run", flag.ContinueOnError)
	appName := fs.String("app", "jacobi", "benchmark: "+strings.Join(hyperion.AppNames(), ", "))
	clusterName := fs.String("cluster", "myrinet", "platform: myrinet (200MHz/BIP), sci (450MHz/SISCI), tcp (450MHz/FastEthernet)")
	nodes := fs.Int("nodes", 4, "number of cluster nodes")
	protocol := fs.String("protocol", "java_pf", "consistency protocol: "+strings.Join(hyperion.Protocols(), ", "))
	threadsPerNode := fs.Int("threads-per-node", 1, "application threads per node (paper uses 1; >1 is its future-work experiment)")
	paperScale := fs.Bool("paperscale", false, "use the paper's full §4.1 problem sizes (much slower)")
	traceOut := fs.String("trace", "", "record protocol events and write a Perfetto (Chrome trace-event) JSON file")
	traceDump := fs.Int("trace-dump", 0, "record protocol events and dump the first N as text (0 = off)")
	pageStatsOut := fs.String("pagestats", "", "profile per-page sharing and write the classified report as JSON")
	pageStatsCSV := fs.String("pagestats-csv", "", "with or without -pagestats: write the per-page table as CSV")
	counters := fs.Bool("counters", false, "print the engine's per-node counter breakdown")
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

	cl, err := sweep.ClusterByName(*clusterName)
	if err != nil {
		return err
	}
	app, err := hyperion.NewApp(*appName, *paperScale)
	if err != nil {
		return err
	}

	cfg := harness.RunConfig{
		Cluster:        cl,
		Nodes:          *nodes,
		Protocol:       *protocol,
		ThreadsPerNode: *threadsPerNode,
	}
	var tracer *trace.Buffer
	if *traceOut != "" || *traceDump > 0 {
		tracer = trace.NewBuffer(1 << 20)
		cfg.Tracer = tracer
	}
	if *pageStatsOut != "" || *pageStatsCSV != "" {
		cfg.PageProfiler = pagestats.New()
	}
	res, err := hyperion.RunBenchmark(app, cfg)
	if err != nil {
		return err
	}

	fmt.Fprintf(stdout, "app:        %s\n", res.App)
	fmt.Fprintf(stdout, "platform:   %s, %d node(s), %d thread(s)\n", res.Cluster, res.Nodes, res.Workers)
	fmt.Fprintf(stdout, "protocol:   %s\n", res.Protocol)
	fmt.Fprintf(stdout, "exec time:  %.6f s (virtual)\n", res.Seconds())
	fmt.Fprintf(stdout, "validation: %s (valid=%v)\n", res.Check.Summary, res.Check.Valid)
	fmt.Fprintf(stdout, "network:    %d messages, %d bytes\n", res.Messages, res.Bytes)
	fmt.Fprintf(stdout, "events:     %s\n", res.Stats)
	if *counters {
		fmt.Fprintf(stdout, "\nengine counters (total over %d node(s)):\n", res.Nodes)
		for _, name := range core.NodeStatNames() {
			v, _ := res.RunStats.Total.Get(name)
			fmt.Fprintf(stdout, "  %-20s %d\n", name, v)
		}
	}
	if r := res.PageStats; r != nil {
		fmt.Fprintf(stdout, "\npage profile (%d page(s), page size %d):\n", r.PagesTracked, r.PageSize)
		for _, name := range pagestats.ClassNames() {
			fmt.Fprintf(stdout, "  %-18s %d\n", name, r.Classes[name])
		}
		if hot := r.Hot(8); len(hot) > 0 {
			fmt.Fprintf(stdout, "hot pages (top %d by faults+fetches+invalidations):\n", len(hot))
			fmt.Fprintf(stdout, "  %8s %4s %-18s %7s %7s %7s %10s\n", "page", "home", "class", "faults", "fetch", "inval", "diff_bytes")
			for _, s := range hot {
				fmt.Fprintf(stdout, "  %8d %4d %-18s %7d %7d %7d %10d\n",
					s.Page, s.Home, s.Class, s.Faults, s.Fetches, s.Invalidations, s.DiffBytes)
			}
		}
		if *pageStatsOut != "" {
			blob, err := json.MarshalIndent(r, "", "  ")
			if err != nil {
				return err
			}
			blob = append(blob, '\n')
			if err := os.WriteFile(*pageStatsOut, blob, 0o644); err != nil {
				return err
			}
			fmt.Fprintf(stdout, "pagestats:  %d page(s) -> %s\n", r.PagesTracked, *pageStatsOut)
		}
		if *pageStatsCSV != "" {
			f, err := os.Create(*pageStatsCSV)
			if err != nil {
				return err
			}
			werr := r.WriteCSV(f)
			if cerr := f.Close(); werr == nil {
				werr = cerr
			}
			if werr != nil {
				return fmt.Errorf("writing pagestats csv %s: %w", *pageStatsCSV, werr)
			}
			fmt.Fprintf(stdout, "pagestats:  per-page table -> %s\n", *pageStatsCSV)
		}
	}
	if *traceDump > 0 {
		fmt.Fprintf(stdout, "\ntrace summary:\n%s\nfirst %d events:\n%s", tracer.Summary(), *traceDump, tracer.Dump(*traceDump))
	}
	if *traceOut != "" {
		f, err := os.Create(*traceOut)
		if err != nil {
			return err
		}
		var werr error
		if r := res.PageStats; r != nil {
			// Profiled + traced: add per-page cumulative counter tracks
			// for the hottest pages so the Perfetto timeline shows when
			// each hot page took its faults and fetches.
			hot := make([]int64, 0, 8)
			for _, s := range r.Hot(8) {
				hot = append(hot, int64(s.Page))
			}
			werr = tracer.WritePerfettoHot(f, hot)
		} else {
			werr = tracer.WritePerfetto(f)
		}
		if cerr := f.Close(); werr == nil {
			werr = cerr
		}
		if werr != nil {
			return fmt.Errorf("writing trace %s: %w", *traceOut, werr)
		}
		fmt.Fprintf(stdout, "\ntrace:      %d event(s) -> %s (load in ui.perfetto.dev)\n", tracer.Len(), *traceOut)
	}
	if !res.Check.Valid {
		return fmt.Errorf("validation failed: %s", res.Check.Summary)
	}
	return nil
}
