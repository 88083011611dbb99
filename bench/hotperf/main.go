// Command hotperf is the repository benchmark. It generates a dataset from
// its seed, trains and publishes the serving fixture in-process, builds and
// drives the real cmd/hotserve (or, for the sweep workload, the in-process
// evaluation sweep), checks the answers against an in-process
// recomputation, audits the server's counters, and prints every metric by
// name with its unit. See bench/README.md for the workloads and metrics.
//
// Usage, from the repository root:
//
//	bash bench/run.sh --workload serve-hot --seed 1 --seconds 12 --trace 0
//	bash bench/run.sh -seed 1 -runs 5 -o base.json   # every workload, 5 runs each
//	bash bench/run.sh compare -base base.json -head head.json
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. Without -trace the metrics are
// the end_to_end list of BENCHMARK.json, with -trace 1 its per_layer list.
// A failed correctness check or counter audit exits non-zero.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"sort"
	"strconv"
	"strings"
	"syscall"
)

// workloadNames lists the workloads in the order -workload all runs them.
var workloadNames = []string{"serve-hot", "serve-history", "serve-reload", "sweep"}

// fixtureSectors is the generated size of the serving fixture (about 583
// survive the >50%-missing filter); the sweep uses half.
const fixtureSectors = 600

// options is one run's configuration, shared by every workload.
type options struct {
	repo    string // repository root
	work    string // per-process scratch directory under .bench_build
	seed    uint64
	seconds int // measured seconds per run
	trace   bool
	sectors int    // generated sectors of the serving fixture: fixtureSectors, smaller in tests
	bin     string // hotserve binary; built from the repository when empty
}

// metric is one measured value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// phaseInfo is one load phase as the result document records it.
type phaseInfo struct {
	Name      string  `json:"name"`
	Seconds   float64 `json:"seconds"`
	Attempted int64   `json:"ops_attempted"`
	Failed    int64   `json:"ops_failed"`
}

// artifactInfo is one served artifact as /healthz reports it.
type artifactInfo struct {
	Model     string `json:"model"`
	Target    string `json:"target"`
	Version   int    `json:"version"`
	Descent   string `json:"descent,omitempty"`
	MmapBytes int64  `json:"mmap_bytes,omitempty"`
}

// provenance records the context behind a run's numbers.
type provenance struct {
	CPU               string         `json:"cpu"`
	NProc             int            `json:"nproc"`
	HotperfGOMAXPROCS int            `json:"hotperf_gomaxprocs"`
	ServerGOMAXPROCS  int            `json:"server_gomaxprocs,omitempty"`
	GoVersion         string         `json:"go_version"`
	Commit            string         `json:"commit"`
	Dirty             bool           `json:"dirty"`
	Seed              uint64         `json:"seed"`
	Seconds           int            `json:"seconds"`
	Sectors           int            `json:"sectors_after_filter"`
	Artifacts         []artifactInfo `json:"artifacts,omitempty"`
	Phases            []phaseInfo    `json:"phases"`
}

// result is one workload run.
type result struct {
	Workload   string            `json:"workload"`
	Traced     bool              `json:"traced"`
	Correct    bool              `json:"correct"`
	Attempted  int64             `json:"attempted"`
	Failed     int64             `json:"failed"`
	Provenance provenance        `json:"provenance"`
	Metrics    map[string]metric `json:"metrics"`
	// checkErr is the first failed correctness check or counter audit.
	checkErr error
}

// set records a metric, refusing NaN and infinities, which JSON cannot hold.
func (r *result) set(name, unit string, v float64) {
	if v != v || v > 1e300 || v < -1e300 {
		v = 0
	}
	r.Metrics[name] = metric{Value: v, Unit: unit}
}

// addPhase folds a phase's counts into the run totals.
func (r *result) addPhase(p *phase) {
	r.Provenance.Phases = append(r.Provenance.Phases, phaseInfo{
		Name: p.name, Seconds: p.elapsed.Seconds(), Attempted: p.attempted, Failed: p.failed})
	r.Attempted += p.attempted
	r.Failed += p.failed
}

// fail records a correctness or audit failure; the first one is reported.
func (r *result) fail(err error) {
	if err != nil && r.checkErr == nil {
		r.checkErr = err
		r.Correct = false
	}
}

// document is the file -o writes and compare reads.
type document struct {
	Runs []*result `json:"runs"`
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("hotperf: ")
	if err := run(os.Args[1:], os.Stdout); err != nil {
		log.Fatal(err)
	}
}

func run(args []string, out io.Writer) error {
	if len(args) > 0 && args[0] == "compare" {
		return compare(args[1:], out)
	}
	fs := flag.NewFlagSet("hotperf", flag.ContinueOnError)
	workload := fs.String("workload", "all", "serve-hot, serve-history, serve-reload, sweep or all")
	seed := fs.Uint64("seed", 1, "workload seed: the dataset, arrival times and query mix derive from it")
	seconds := fs.Int("seconds", 12, "measured seconds per workload run")
	trace := fs.Int("trace", 0, "1 adds the per-layer metrics, the span file and the trace overhead")
	runs := fs.Int("runs", 1, "runs per workload, seeded seed, seed+1, ...")
	outPath := fs.String("o", "", "write the result document (provenance and every metric of every run) to this file")
	repo := fs.String("repo", "", "repository root (default: the current directory, or its parent when that holds cmd/hotserve)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected argument %q (the compare subcommand comes first)", fs.Arg(0))
	}
	if *seconds < 1 || *runs < 1 || (*trace != 0 && *trace != 1) {
		return fmt.Errorf("need -seconds >= 1, -runs >= 1 and -trace 0 or 1")
	}
	selected := workloadNames
	if *workload != "all" {
		if !slices.Contains(workloadNames, *workload) {
			return fmt.Errorf("unknown workload %q (want one of %s or all)", *workload, strings.Join(workloadNames, ", "))
		}
		selected = []string{*workload}
	}
	root, err := findRepo(*repo)
	if err != nil {
		return err
	}
	spec, err := readSpec(root)
	if err != nil {
		return err
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	o := &options{repo: root, seed: *seed, seconds: *seconds, trace: *trace == 1, sectors: fixtureSectors}
	var doc document
	if len(selected) == 1 && *runs == 1 {
		res, err := runWorkload(ctx, o, selected[0], out)
		if err != nil {
			return err
		}
		doc.Runs = append(doc.Runs, res)
	} else {
		// Each run gets a fresh process, exactly as a single-run invocation
		// does: memory peaks, caches and GC state never carry across runs.
		for r := 0; r < *runs; r++ {
			for _, w := range selected {
				res, err := runChild(ctx, root, w, *seed+uint64(r), *seconds, *trace, out)
				if err != nil {
					return err
				}
				doc.Runs = append(doc.Runs, res)
			}
		}
	}
	if *outPath != "" {
		if err := writeJSON(*outPath, &doc); err != nil {
			return err
		}
		fmt.Fprintf(out, "wrote %s\n", *outPath)
	}
	return printSummary(out, spec, &doc)
}

// runWorkload runs one workload in this process and prints its metrics.
func runWorkload(ctx context.Context, o *options, name string, out io.Writer) (*result, error) {
	build := filepath.Join(o.repo, ".bench_build")
	if err := os.MkdirAll(build, 0o755); err != nil {
		return nil, err
	}
	work, err := os.MkdirTemp(build, "hotperf-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(work)
	run := *o
	run.work = work
	res := &result{Workload: name, Traced: o.trace, Correct: true, Metrics: map[string]metric{},
		Provenance: newProvenance(o)}
	tr := newTracer()
	fmt.Fprintf(out, "== %s seed %d, %d s, trace %t\n", name, o.seed, o.seconds, o.trace)
	if name == "sweep" {
		err = runSweep(ctx, &run, res, tr, out)
	} else {
		err = runServing(ctx, &run, name, res, tr, out)
	}
	if err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	if o.trace {
		path := filepath.Join(build, fmt.Sprintf("trace-%s-seed%d.json", name, o.seed))
		if err := tr.write(path); err != nil {
			return nil, err
		}
		fmt.Fprintf(out, "spans: %s\n", path)
	}
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(out, "%-34s %14.4f %s\n", n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
	fmt.Fprintf(out, "ops attempted %d, failed %d, correct %t\n", res.Attempted, res.Failed, res.Correct)
	if res.checkErr != nil {
		fmt.Fprintf(out, "CHECK FAILED: %v\n", res.checkErr)
	}
	return res, nil
}

// runChild runs one workload in a fresh hotperf process and returns the
// run it recorded; the child's output streams through.
func runChild(ctx context.Context, root, workload string, seed uint64, seconds, trace int, out io.Writer) (*result, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(filepath.Join(root, ".bench_build"), 0o755); err != nil {
		return nil, err
	}
	f, err := os.CreateTemp(filepath.Join(root, ".bench_build"), "child-*.json")
	if err != nil {
		return nil, err
	}
	f.Close()
	defer os.Remove(f.Name())
	cmd := exec.CommandContext(ctx, self, "-workload", workload, "-seed", strconv.FormatUint(seed, 10),
		"-seconds", strconv.Itoa(seconds), "-trace", strconv.Itoa(trace), "-repo", root, "-o", f.Name())
	cmd.Stdout, cmd.Stderr = out, os.Stderr
	// The child's own failure (non-zero exit) is judged from its document:
	// a failed check still records the run.
	runErr := cmd.Run()
	var doc document
	if err := readJSON(f.Name(), &doc); err != nil || len(doc.Runs) != 1 {
		if runErr != nil {
			return nil, fmt.Errorf("%s seed %d: %w", workload, seed, runErr)
		}
		return nil, fmt.Errorf("%s seed %d: no result recorded", workload, seed)
	}
	return doc.Runs[0], nil
}

// printSummary prints the result line: correct, attempted, failed and the
// declared metrics. A single run reports plain names; several runs report
// "<workload>.<name>" medians across that workload's runs.
func printSummary(out io.Writer, spec *benchSpec, doc *document) error {
	sum := struct {
		Correct   bool              `json:"correct"`
		Attempted int64             `json:"attempted"`
		Failed    int64             `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{Correct: true, Metrics: map[string]metric{}}
	values := map[string][]float64{}
	var order []string
	var failed error
	for _, r := range doc.Runs {
		sum.Correct = sum.Correct && r.Correct
		sum.Attempted += r.Attempted
		sum.Failed += r.Failed
		if !r.Correct && failed == nil {
			failed = fmt.Errorf("%s seed %d failed its correctness checks", r.Workload, r.Provenance.Seed)
		}
		for _, m := range spec.declared(r.Traced) {
			got, ok := r.Metrics[m.Name]
			if !ok {
				return fmt.Errorf("%s did not measure %s, which BENCHMARK.json declares", r.Workload, m.Name)
			}
			if got.Unit != m.Unit {
				return fmt.Errorf("%s measured %s in %s, BENCHMARK.json says %s", r.Workload, m.Name, got.Unit, m.Unit)
			}
			key := m.Name
			if len(doc.Runs) > 1 {
				key = r.Workload + "." + m.Name
			}
			if _, seen := values[key]; !seen {
				order = append(order, key)
			}
			values[key] = append(values[key], got.Value)
			sum.Metrics[key] = metric{Unit: m.Unit}
		}
	}
	for _, key := range order {
		sum.Metrics[key] = metric{Value: median(values[key]), Unit: sum.Metrics[key].Unit}
	}
	line, err := json.Marshal(sum)
	if err != nil {
		return err
	}
	fmt.Fprintln(out, string(line))
	return failed
}

// findRepo resolves the repository root: the flag when given, else the
// current directory or its parent, whichever holds cmd/hotserve.
func findRepo(flagVal string) (string, error) {
	cands := []string{flagVal}
	if flagVal == "" {
		cands = []string{".", ".."}
	}
	for _, c := range cands {
		if st, err := os.Stat(filepath.Join(c, "cmd", "hotserve")); err == nil && st.IsDir() {
			return filepath.Abs(c)
		}
	}
	return "", fmt.Errorf("no repository root with cmd/hotserve found (pass -repo)")
}

// newProvenance fills the machine and build part of the provenance block.
func newProvenance(o *options) provenance {
	p := provenance{CPU: cpuModel(), NProc: runtime.NumCPU(), HotperfGOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), Commit: "unknown", Seed: o.seed, Seconds: o.seconds}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				p.Commit = s.Value
			case "vcs.modified":
				p.Dirty = s.Value == "true"
			}
		}
	}
	return p
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func readJSON(path string, v any) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(b, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}
