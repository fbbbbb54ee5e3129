// Command experiments regenerates the evaluation's tables and figures
// (DESIGN.md §4) and optionally writes them as CSV files.
//
// Usage:
//
//	experiments                 # run everything at full fidelity
//	experiments -quick          # fast smoke sweep
//	experiments -run F3-accuracy
//	experiments -csv results/   # also write one CSV per experiment
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/experiment"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	var (
		only   = fs.String("run", "", "run a single experiment by ID (empty = all)")
		quick  = fs.Bool("quick", false, "shrink sweeps for a fast smoke run")
		trials = fs.Int("trials", 0, "override trials per parameter point")
		seed   = fs.Int64("seed", 1, "base seed")
		csvDir = fs.String("csv", "", "directory to write per-experiment CSV files")
		list   = fs.Bool("list", false, "list experiment IDs and exit")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *list {
		for _, e := range experiment.All() {
			fmt.Printf("%-16s %s\n", e.ID, e.Title)
		}
		return nil
	}
	var todo []experiment.Experiment
	if *only != "" {
		e, ok := experiment.Lookup(*only)
		if !ok {
			return fmt.Errorf("unknown experiment %q (use -list)", *only)
		}
		todo = []experiment.Experiment{e}
	} else {
		todo = experiment.All()
	}
	cfg := experiment.RunConfig{Quick: *quick, Trials: *trials, Seed: *seed}
	for _, e := range todo {
		start := time.Now()
		res, err := e.Run(cfg)
		if err != nil {
			return fmt.Errorf("%s: %w", e.ID, err)
		}
		fmt.Println(res.Render())
		fmt.Printf("   (%s in %.1fs)\n\n", e.ID, time.Since(start).Seconds())
		if *csvDir != "" {
			if err := os.MkdirAll(*csvDir, 0o755); err != nil {
				return err
			}
			path := filepath.Join(*csvDir, e.ID+".csv")
			if err := os.WriteFile(path, []byte(res.CSV()), 0o644); err != nil {
				return err
			}
		}
	}
	return nil
}
