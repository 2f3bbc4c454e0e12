// Command predbench regenerates the paper's evaluation tables and figures
// (see EXPERIMENTS.md for the paper-vs-measured record).
//
//	predbench -experiment table1
//	predbench -experiment fig2
//	predbench -experiment all
package main

import (
	"flag"
	"fmt"
	"os"
	"slices"
	"strings"

	"predator/internal/eval"
	"predator/internal/harness"
	"predator/internal/obs"
	"predator/internal/obs/agent"

	_ "predator/internal/workloads/apps"
	_ "predator/internal/workloads/parsec"
	_ "predator/internal/workloads/phoenix"
	_ "predator/internal/workloads/stack"
	_ "predator/internal/workloads/synthetic"
)

func main() {
	var (
		experiment = flag.String("experiment", "all", strings.Join(experiments, " | "))
		threads    = flag.Int("threads", 8, "worker thread count")
		scale      = flag.Int("scale", 1, "workload size multiplier")
		repeats    = flag.Int("repeats", 3, "timing repetitions (median is reported)")
		heartbeat  = flag.Duration("heartbeat", 0, "heartbeat interval for periodic metric snapshots (0 = off)")
		benchJSON  = flag.String("bench-json", "", "write machine-readable benchmark results (workload x mode medians, throughput, detector stats) to this file")
		benchWork  = flag.String("bench-workloads", "", "comma-separated workloads for -bench-json (default: all evaluated workloads)")
		benchDet   = flag.Bool("bench-deterministic", false, "run evaluations under the deterministic scheduler, so finding counts repeat exactly from run to run")
		elidePath  = flag.String("elide", "", "static elision manifest: empty binds the built-in one for the in-tree workloads, \"off\" disables elision, a path loads a predlint -elide-out file, applied to every detection run")
		version    = flag.Bool("version", false, "print build version and exit")
	)
	exports := agent.RegisterFlags(flag.CommandLine)
	flag.Parse()

	if *version {
		fmt.Println("predbench " + obs.GetBuildInfo().String())
		return
	}

	// -bench-json alone runs only the bench sweep; an explicit -experiment
	// keeps its usual meaning alongside it.
	expSet := false
	flag.Visit(func(f *flag.Flag) {
		if f.Name == "experiment" {
			expSet = true
		}
	})
	bench := *benchJSON != ""
	if *benchWork != "" && !bench {
		fmt.Fprintln(os.Stderr, "predbench: -bench-workloads needs -bench-json (usage: predbench -bench-json FILE -bench-workloads NAME[,NAME...])")
		os.Exit(2)
	}
	if bench && !expSet {
		*experiment = "bench"
	}
	if !bench && !slices.Contains(experiments, *experiment) {
		fmt.Fprintf(os.Stderr, "predbench: unknown experiment %q (want %s)\n",
			*experiment, strings.Join(experiments, " | "))
		os.Exit(2)
	}

	cfg := eval.Default()
	cfg.Threads = *threads
	cfg.Scale = *scale
	cfg.Repeats = *repeats
	cfg.Deterministic = *benchDet
	manifest, err := harness.ElideFlag(*elidePath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "predbench: -elide: %v\n", err)
		os.Exit(2)
	}
	cfg.Elide = manifest

	// One session aggregates every run the experiments do: its OnRuntime
	// hook (set only when an export reads the runtime) follows each
	// successive runtime, and every detection run hangs its eval.detect
	// subtree off the cli.run root span.
	sess, err := exports.Start(agent.Config{
		Tool:          "predbench",
		Labels:        map[string]string{"experiment": *experiment},
		Deterministic: *benchDet,
		Heartbeat:     *heartbeat,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "predbench: %v\n", err)
		os.Exit(1)
	}
	defer sess.Close()
	cfg.Observer, cfg.Span, cfg.OnRuntime = sess.Observer, sess.Span, sess.OnRuntime

	run := func(name string, fn func() error) {
		fmt.Printf("==== %s ====\n", name)
		if err := fn(); err != nil {
			sess.Fail(fmt.Errorf("%s: %w", name, err))
		}
		fmt.Println()
	}

	want := func(name string) bool { return *experiment == "all" || *experiment == name }

	if bench {
		run("Bench: workload x mode sweep (machine-readable)", func() error {
			workloads := eval.AllWorkloads()
			if *benchWork != "" {
				workloads = strings.Split(*benchWork, ",")
			}
			doc, err := eval.Bench(cfg, workloads)
			if err != nil {
				return err
			}
			if err := doc.WriteJSONFile(*benchJSON); err != nil {
				return err
			}
			fmt.Printf("wrote %d records (%d workloads x %d modes) to %s\n",
				len(doc.Records), len(workloads), 3, *benchJSON)
			return nil
		})
	}

	if want("table1") {
		run("Table 1: false sharing in Phoenix and PARSEC", func() error {
			rows, err := eval.Table1(cfg)
			if err != nil {
				return err
			}
			fmt.Print(eval.RenderTable1(rows))
			return nil
		})
	}
	if want("fig2") {
		run("Figure 2: linear_regression object alignment sensitivity", func() error {
			points, err := eval.Figure2(cfg)
			if err != nil {
				return err
			}
			fmt.Print(eval.RenderFigure2(points))
			return nil
		})
	}
	if want("fig5") {
		run("Figure 5: example PREDATOR report (linear_regression)", func() error {
			out, err := eval.Figure5(cfg)
			if err != nil {
				return err
			}
			fmt.Print(out)
			return nil
		})
	}
	if want("fig7") {
		run("Figure 7: execution time overhead", func() error {
			rows, err := eval.Figure7(cfg, eval.AllWorkloads())
			if err != nil {
				return err
			}
			fmt.Print(eval.RenderFigure7(rows))
			return nil
		})
	}
	if want("fig8") || want("fig9") {
		run("Figures 8 & 9: memory overhead", func() error {
			rows, err := eval.Figure8(cfg, eval.AllWorkloads())
			if err != nil {
				return err
			}
			fmt.Println("Figure 8 (absolute):")
			fmt.Print(eval.RenderFigure8(rows))
			fmt.Println("\nFigure 9 (relative):")
			fmt.Print(eval.RenderFigure9(rows))
			return nil
		})
	}
	if want("fig10") {
		run("Figure 10: sampling rate sensitivity", func() error {
			rows, err := eval.Figure10(cfg)
			if err != nil {
				return err
			}
			fmt.Print(eval.RenderFigure10(rows))
			return nil
		})
	}
	if want("apps") {
		run("Real applications (paper 4.1.2)", func() error {
			rows, err := eval.Apps(cfg)
			if err != nil {
				return err
			}
			fmt.Print(eval.RenderApps(rows))
			return nil
		})
	}
	if want("ablation") {
		run("Ablations: instrumentation policy / tracking threshold / interleaving grain", func() error {
			policy, err := eval.PolicyAblation(cfg)
			if err != nil {
				return err
			}
			fmt.Println("Instrumentation policy (SHERIFF-style writes-only vs full):")
			fmt.Print(eval.RenderPolicyAblation(policy))
			thresholds, err := eval.ThresholdAblation(cfg)
			if err != nil {
				return err
			}
			fmt.Println("\nTrackingThreshold sweep (histogram):")
			fmt.Print(eval.RenderThresholdAblation(thresholds))
			grains, err := eval.GrainAblation(cfg)
			if err != nil {
				return err
			}
			fmt.Println("\nDeterministic interleaving grain (ww_share):")
			fmt.Print(eval.RenderGrainAblation(grains))
			return nil
		})
	}
	if want("scaling") {
		run("Scaling: false sharing penalty vs thread count (model cycles)", func() error {
			for _, workload := range []string{"mysql", "ww_share"} {
				rows, err := eval.Scaling(cfg, workload, []int{2, 4, 8, 16})
				if err != nil {
					return err
				}
				fmt.Print(eval.RenderScaling(workload, rows))
				fmt.Println()
			}
			return nil
		})
	}
	if err := sess.Finish(nil); err != nil {
		sess.Fail(err)
	}
}

// experiments are the -experiment values besides the bench sweep.
var experiments = []string{"table1", "fig2", "fig5", "fig7", "fig8", "fig9", "fig10", "apps", "ablation", "scaling", "all"}
