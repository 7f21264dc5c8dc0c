// Command benchmark is the repository's one benchmark: named workloads
// that push real manifests down the paths a user takes — the library path
// in-process, and the service path through the real roadrunnerd binary —
// and report a few end-to-end metrics plus, in a separate traced run, a
// per-layer budget. BENCHMARK.json declares every workload and metric;
// README.md explains them.
//
// Usage:
//
//	go run ./benchmark [-workload name|all] [-seed n] [-seconds s] [-trace 0|1]
//	                   [-size full|smoke] [-workdir dir] [-out dir]
//	go run ./benchmark -check base.json candidate.json
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	err := run(ctx, os.Args[1:], os.Stdout)
	stop()
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, args []string, out io.Writer) error {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	workloadName := fs.String("workload", "all", "workload to run: one name, or all for every workload of BENCHMARK.json")
	seed := fs.Uint64("seed", 1, "first seed of every manifest's seed list")
	seconds := fs.Float64("seconds", 0, "measurement window per run in seconds (0 = run_seconds of BENCHMARK.json)")
	traceMode := fs.Int("trace", 0, "1 = traced run printing the per-layer metrics; 0 = end-to-end metrics")
	size := fs.String("size", "full", "input sizes: full, or smoke for a seconds-long self-test")
	workdir := fs.String("workdir", "", "scratch directory on a real filesystem (default .bench_build/work)")
	outDir := fs.String("out", "", "directory to write report.json and <workload>.trace.json into")
	checkMode := fs.Bool("check", false, "compare two reports: -check base.json candidate.json")
	if err := fs.Parse(args); err != nil {
		return err
	}
	root, err := findRoot()
	if err != nil {
		return err
	}
	spec, err := loadSpec(root)
	if err != nil {
		return err
	}
	if *checkMode {
		return runCheck(out, spec, fs.Args())
	}

	var sz sizes
	switch *size {
	case "full":
		sz = fullSizes
	case "smoke":
		sz = smokeSizes
	default:
		return fmt.Errorf("unknown -size %q", *size)
	}
	if *traceMode != 0 && *traceMode != 1 {
		return fmt.Errorf("-trace takes 0 or 1")
	}
	if *seconds == 0 {
		*seconds = float64(spec.RunSeconds)
	}
	if *seconds <= 0 {
		return fmt.Errorf("-seconds must be positive")
	}
	var names []string
	if *workloadName == "all" {
		for _, w := range spec.Workloads {
			names = append(names, w.Name)
		}
	} else if spec.workload(*workloadName) {
		names = []string{*workloadName}
	} else {
		return fmt.Errorf("unknown workload %q (BENCHMARK.json and the README list the names)", *workloadName)
	}

	build := filepath.Join(root, ".bench_build")
	if *workdir == "" {
		*workdir = filepath.Join(build, "work")
	}
	if err := os.MkdirAll(*workdir, 0o755); err != nil {
		return err
	}
	fsName, err := fsType(*workdir)
	if err != nil {
		return err
	}
	if memoryBacked(fsName) {
		return fmt.Errorf("workdir %s is on %s, where fsync is free: pass -workdir on a disk-backed filesystem", *workdir, fsName)
	}
	runDir, err := os.MkdirTemp(*workdir, "run-")
	if err != nil {
		return err
	}
	defer func() { _ = os.RemoveAll(runDir) }()
	if *outDir != "" {
		if err := os.MkdirAll(*outDir, 0o755); err != nil {
			return err
		}
	}

	// The service workloads run the real binary, built once up front.
	bin, buildS, err := buildDaemon(ctx, root, filepath.Join(build, "bin"))
	if err != nil {
		return err
	}
	rep := &report{Header: newHeader(root, *workdir, *size, sz, *seconds)}
	rep.Header.BuildS = buildS
	printHeader(out, rep.Header)

	for _, name := range names {
		e := &benchEnv{
			bin: bin, workdir: runDir, seed: *seed, sz: sz,
			traced: *traceMode == 1, tally: &tally{},
			layer: make(map[string]float64), facts: make(map[string]string),
		}
		res, err := runWorkload(ctx, spec, e, name, *seconds, *outDir)
		if err != nil {
			return err
		}
		rep.Results = append(rep.Results, res)
		if err := printResult(out, spec, res); err != nil {
			return err
		}
	}
	if err := crossCheck(rep); err != nil {
		return err
	}
	if *outDir == "" {
		return nil
	}
	// Runs accumulate: invoking the benchmark again with the same -out,
	// on another seed, adds to the report, so -check sees the spread.
	path := filepath.Join(*outDir, "report.json")
	if prev, err := readReport(path); err == nil {
		rep.Results = append(prev.Results, rep.Results...)
	}
	return writeReport(path, rep)
}

// crossCheck compares the library path with the service path: when
// fig4-sim and cluster-fig4 merged the same seeds in one invocation, the
// two artifacts must be the same bytes.
func crossCheck(rep *report) error {
	merged := make(map[string]string) // seed, seeds -> hash
	for _, res := range rep.Results {
		if res.Workload != "fig4-sim" && res.Workload != "cluster-fig4" {
			continue
		}
		key := fmt.Sprint(res.Seed, " ", res.Facts["merged_seeds"])
		hash := res.Facts["merged_sha256"]
		if prev, ok := merged[key]; ok && prev != hash {
			return fmt.Errorf("fig4-sim and cluster-fig4 merged seeds %s to different bytes: %s vs %s", res.Facts["merged_seeds"], prev, hash)
		}
		merged[key] = hash
	}
	return nil
}

func runCheck(out io.Writer, spec *benchSpec, paths []string) error {
	if len(paths) != 2 {
		return fmt.Errorf("-check takes two report files: base.json candidate.json")
	}
	base, err := readReport(paths[0])
	if err != nil {
		return err
	}
	cand, err := readReport(paths[1])
	if err != nil {
		return err
	}
	if !check(out, spec, base, cand) {
		return fmt.Errorf("candidate is not within the bounds of BENCHMARK.json")
	}
	return nil
}
