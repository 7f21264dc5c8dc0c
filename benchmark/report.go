package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strings"
)

// header records where and how a report was measured.
type header struct {
	Commit     string  `json:"commit"`
	GoVersion  string  `json:"go_version"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	NProc      int     `json:"nproc"`
	Kernel     string  `json:"kernel"`
	FSType     string  `json:"fs_type"`
	BuildS     float64 `json:"build_s"`
	Size       string  `json:"size"`
	Sizes      sizes   `json:"sizes"`
	Seconds    float64 `json:"seconds"`
}

// report is the one JSON document a benchmark invocation writes with -out:
// every run of every workload it made.
type report struct {
	Header  header            `json:"header"`
	Results []*workloadResult `json:"results"`
}

func newHeader(root, workdir, size string, sz sizes, seconds float64) header {
	h := header{
		Commit: "unknown", GoVersion: runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0), NProc: runtime.NumCPU(),
		Size: size, Sizes: sz, Seconds: seconds,
	}
	// The driver's checkout is not a git repository; "unknown" stands.
	cmd := exec.Command("git", "rev-parse", "--short", "HEAD")
	cmd.Dir = root
	if out, err := cmd.Output(); err == nil {
		h.Commit = strings.TrimSpace(string(out))
	}
	if data, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		h.Kernel = strings.TrimSpace(string(data))
	}
	h.FSType, _ = fsType(workdir)
	return h
}

func writeReport(path string, r *report) error {
	data, err := json.MarshalIndent(r, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func readReport(path string) (*report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r report
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

func printHeader(w io.Writer, h header) {
	fmt.Fprintf(w, "# commit %s  %s  GOMAXPROCS %d  nproc %d  kernel %s  fs %s  build_s %.2f  size %s  seconds %g\n",
		h.Commit, h.GoVersion, h.GOMAXPROCS, h.NProc, h.Kernel, h.FSType, h.BuildS, h.Size, h.Seconds)
}

// printResult prints one workload run as an aligned table, then the
// contract's result line: one JSON object, last on standard output.
func printResult(w io.Writer, spec *benchSpec, r *workloadResult) error {
	mode, decls := "end-to-end", spec.EndToEnd
	if r.Traced {
		mode, decls = "per-layer (traced)", spec.PerLayer
	}
	fmt.Fprintf(w, "\n== %s  seed %d  %s  ops %d\n", r.Workload, r.Seed, mode, r.OpS.N)
	for _, d := range decls {
		v := r.Metrics[d.Name]
		bound := ""
		if d.Bound > 0 {
			bound = fmt.Sprintf("  bound %g%%", 100*d.Bound)
		}
		fmt.Fprintf(w, "  %-42s %16.6g %-6s %s is better%s\n", d.Name, v.Value, d.Unit, d.Better, bound)
	}
	if !r.Traced {
		fmt.Fprintf(w, "  operation time: n %d, p50 %.4f s", r.OpS.N, r.OpS.P50)
		if r.OpS.HighPct > 0 {
			fmt.Fprintf(w, ", p%g %.4f s", r.OpS.HighPct, r.OpS.HighS)
		}
		fmt.Fprintf(w, "; set-ups: n %d, max %.3f s\n", r.OpS.SetupN, r.OpS.SetupMax)
	}
	fmt.Fprintf(w, "  operations attempted %d, failed %d, failed_share %g\n", r.Attempted, r.Failed, float64(r.Failed)/float64(max(r.Attempted, 1)))
	for _, k := range sortedKeys(r.Facts) {
		fmt.Fprintf(w, "  %s = %s\n", k, r.Facts[k])
	}
	for _, n := range r.Notes {
		fmt.Fprintf(w, "  FAILED: %s\n", n)
	}
	line, err := json.Marshal(struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, r.Metrics})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

func sortedKeys(m map[string]string) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// verdict is the outcome of comparing one (workload, metric) pair.
type verdict string

const (
	within     verdict = "within"
	regressed  verdict = "regressed"
	unresolved verdict = "unresolved"
)

// judge applies a metric's bound to the runs of a baseline and a
// candidate. The candidate regressed when its median is worse than the
// baseline's by more than the bound. When either side's own run-to-run
// spread is wider than the bound the pair is unresolved, not unchanged —
// unless every candidate run reads better than every baseline run.
func judge(d metricDecl, base, cand []float64) (verdict, float64) {
	mb, mc := median(base), median(cand)
	worse := (mc - mb) / math.Abs(mb)
	if d.Better == "higher" {
		worse = -worse
	}
	if spread(base) > d.Bound || spread(cand) > d.Bound {
		if !allBetter(d, base, cand) {
			return unresolved, worse
		}
	}
	if worse > d.Bound {
		return regressed, worse
	}
	return within, worse
}

func allBetter(d metricDecl, base, cand []float64) bool {
	sb, sc := sorted(base), sorted(cand)
	if d.Better == "higher" {
		return sc[0] > sb[len(sb)-1]
	}
	return sc[len(sc)-1] < sb[0]
}

// untraced collects each end-to-end metric's values per workload.
func (r *report) untraced() map[string]map[string][]float64 {
	out := make(map[string]map[string][]float64)
	for _, res := range r.Results {
		if res.Traced {
			continue
		}
		if out[res.Workload] == nil {
			out[res.Workload] = make(map[string][]float64)
		}
		for name, v := range res.Metrics {
			out[res.Workload][name] = append(out[res.Workload][name], v.Value)
		}
	}
	return out
}

// failedRuns counts results with a failed operation.
func (r *report) failedRuns() int {
	n := 0
	for _, res := range r.Results {
		if res.Failed > 0 || !res.Correct {
			n++
		}
	}
	return n
}

// check prints one row per (workload, end-to-end metric) and reports
// whether every pair stayed within its bound with nothing failing.
func check(w io.Writer, spec *benchSpec, base, cand *report) bool {
	bv, cv := base.untraced(), cand.untraced()
	ok := true
	fmt.Fprintf(w, "%-14s %-16s %14s %8s %14s %8s %8s  %s\n", "workload", "metric", "base p50", "spread", "cand p50", "spread", "worse", "verdict")
	for _, wl := range spec.every() {
		for _, d := range spec.EndToEnd {
			b, c := bv[wl.Name][d.Name], cv[wl.Name][d.Name]
			if len(b) == 0 || len(c) == 0 {
				continue
			}
			v, worse := judge(d, b, c)
			if v != within {
				ok = false
			}
			fmt.Fprintf(w, "%-14s %-16s %14.6g %7.1f%% %14.6g %7.1f%% %+7.1f%%  %s\n",
				wl.Name, d.Name, median(b), 100*spread(b), median(c), 100*spread(c), 100*worse, v)
		}
	}
	if n := base.failedRuns() + cand.failedRuns(); n > 0 {
		fmt.Fprintf(w, "%d run(s) had failed operations: failed_share may not rise above 0\n", n)
		ok = false
	}
	return ok
}
