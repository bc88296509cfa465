// Command risobench regenerates the Risotto paper's evaluation figures on
// the simulated testbed.
//
// Usage:
//
//	risobench fig12 [-threads N] [-scale N] [-kernels a,b,c]
//	risobench fig13 [-calls N]
//	risobench fig14 [-calls N]
//	risobench fig15 [-ops N]
//	risobench all
//
// The §3 translation errors and the §5.4 Theorem-1 sweep are litmusctl's
// errors and verify. The -tierup flags apply to every translated run of
// every figure; -metrics and -trace dump the observability snapshot and
// span trace of those runs after the tables. With -csv DIR, each figure
// also writes its raw results as CSV into DIR.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/bench"
	"repro/internal/cliflags"
	"repro/internal/core"
)

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	cmd := os.Args[1]
	fs := flag.NewFlagSet(cmd, flag.ExitOnError)
	threads := fs.Int("threads", 4, "guest thread count (fig12)")
	scale := fs.Int("scale", 1, "problem-size multiplier (fig12)")
	kernels := fs.String("kernels", "", "comma-separated kernel subset (fig12)")
	calls := fs.Int("calls", 0, "library invocation count (fig13/fig14; 0 = defaults)")
	ops := fs.Int("ops", 0, "CAS ops per thread (fig15; 0 = default)")
	csvDir := fs.String("csv", "", "also write raw results as CSV into this directory")
	cf := cliflags.Register(fs)
	cf.AddTierUp(fs)
	if err := fs.Parse(os.Args[2:]); err != nil {
		os.Exit(2)
	}
	check(cf.Check())
	opts := []core.Option{core.WithObs(cf.Scope()), core.WithTierUp(cf.TierUp)}

	run := func(name string) {
		switch name {
		case "fig12":
			var names []string
			if *kernels != "" {
				names = strings.Split(*kernels, ",")
			}
			rows, err := bench.Fig12(*threads, *scale, names, opts...)
			check(err)
			fmt.Println(bench.RenderFig12(rows))
			if *csvDir != "" {
				check(bench.WriteFig12CSV(*csvDir, rows))
			}
		case "fig13":
			rows, err := bench.Fig13(*calls, opts...)
			check(err)
			fmt.Println(bench.RenderLinkRows("Figure 13: OpenSSL and sqlite via the dynamic host linker", rows, "ops/s"))
			if *csvDir != "" {
				check(bench.WriteLinkCSV(*csvDir, "fig13.csv", rows))
			}
		case "fig14":
			rows, err := bench.Fig14(*calls, opts...)
			check(err)
			fmt.Println(bench.RenderLinkRows("Figure 14: math library via the dynamic host linker", rows, "ops/ms"))
			if *csvDir != "" {
				check(bench.WriteLinkCSV(*csvDir, "fig14.csv", rows))
			}
		case "fig15":
			rows, err := bench.Fig15(*ops, opts...)
			check(err)
			fmt.Println(bench.RenderFig15(rows))
			if *csvDir != "" {
				check(bench.WriteFig15CSV(*csvDir, rows))
			}
		default:
			usage()
		}
	}

	if cmd == "all" {
		for _, name := range []string{"fig12", "fig13", "fig14", "fig15"} {
			run(name)
		}
	} else {
		run(cmd)
	}
	check(cf.Finish(os.Stdout))
}

func check(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "risobench:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: risobench {fig12|fig13|fig14|fig15|all} [flags]")
	os.Exit(2)
}
