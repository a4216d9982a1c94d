// Command bench is the store's benchmark: five workloads driven through
// the public papyruskv API, end-to-end metrics from an untraced run, and
// per-layer metrics from a traced run that measures every layer from
// outside. See README.md in this directory.
//
//	bash bench/run.sh [-workload NAME|all] [-seed N] [-seconds S] [-trace 0|1]
//	                  [-scale F] [-runs N] [-out DIR]
//	bash bench/run.sh -compare a.json b.json
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
)

// defaultSeconds is BENCHMARK.json's run_seconds.
const defaultSeconds = 12

// runResult is one workload run with one seed.
type runResult struct {
	Workload  string            `json:"workload"`
	Seed      uint64            `json:"seed"`
	Seconds   float64           `json:"seconds"`
	Scale     float64           `json:"scale"`
	Traced    bool              `json:"traced"`
	Correct   bool              `json:"correct"`
	Attempted uint64            `json:"attempted"`
	Failed    uint64            `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// resultFile is bench/out/result.json, and bench/baseline.json.
type resultFile struct {
	Env  envBlock    `json:"env"`
	Runs []runResult `json:"runs"`
}

// envBlock records where a result was measured.
type envBlock struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	CPUModel   string `json:"cpu_model"`
	DataDirFS  string `json:"data_dir_fs"`
	Commit     string `json:"commit"`
}

func readEnv(dataDir string) envBlock {
	e := envBlock{
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		CPUModel: "unknown", DataDirFS: "unknown", Commit: "unknown",
	}
	if raw, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(raw), "\n") {
			if name, ok := strings.CutPrefix(line, "model name"); ok {
				e.CPUModel = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(name), ":"))
				break
			}
		}
	}
	var st syscall.Statfs_t
	if err := syscall.Statfs(dataDir, &st); err == nil {
		e.DataDirFS = fmt.Sprintf("0x%x", st.Type)
	}
	// The commit is read from .git directly: the benchmark starts no
	// process, and a checkout without .git reports "unknown".
	for dir := dataDir; ; dir = filepath.Dir(dir) {
		if head, err := os.ReadFile(filepath.Join(dir, ".git", "HEAD")); err == nil {
			e.Commit = strings.TrimSpace(string(head))
			if ref, ok := strings.CutPrefix(e.Commit, "ref: "); ok {
				if sha, err := os.ReadFile(filepath.Join(dir, ".git", ref)); err == nil {
					e.Commit = strings.TrimSpace(string(sha))
				}
			}
			break
		}
		if dir == filepath.Dir(dir) {
			break
		}
	}
	return e
}

// runWorkload performs one run: sp.reps untraced repetitions for the
// end-to-end metrics, or — traced — one untraced and one traced repetition
// of the same length plus the layer probes for the per-layer metrics.
func runWorkload(sp *spec, cfg runCfg, traced bool, outDir string, report io.Writer) (runResult, error) {
	res := runResult{Workload: sp.name, Seed: cfg.seed, Seconds: cfg.seconds, Scale: cfg.scale, Traced: traced}
	n := sp.reps
	if traced {
		n = 2
	}
	var reps []*repStats
	for r := 0; r < n; r++ {
		rs, err := runRep(sp, cfg, cfg.seed*uint64(sp.reps)+uint64(r), traced && r == n-1)
		if err != nil {
			return res, err
		}
		reps = append(reps, rs)
		t := rs.totals(sp)
		res.Attempted += t.attempted
		res.Failed += t.failed
	}
	res.Correct = res.Failed == 0
	if !traced {
		res.Metrics = endToEnd(sp, reps)
		return res, nil
	}
	probeDir, err := os.MkdirTemp(cfg.dir, "probe-")
	if err != nil {
		return res, err
	}
	defer os.RemoveAll(probeDir)
	pr, err := runProbes(sp, probeDir, cfg.seed, cfg.scale)
	if err != nil {
		return res, err
	}
	last := reps[len(reps)-1]
	tf := buildTrace(sp, cfg.seed, last)
	tf.Counters = last.totals(sp).db
	res.Metrics = perLayer(sp, reps[0], last, tf, pr)
	printAttribution(report, sp.name, tf.Attribution)
	return res, tf.write(outDir)
}

// printMetrics writes one line per metric: workload metric value unit n=samples.
func printMetrics(w io.Writer, res runResult) {
	names := make([]string, 0, len(res.Metrics))
	for name := range res.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := res.Metrics[name]
		fmt.Fprintf(w, "%s %s %.6g %s n=%d\n", res.Workload, name, m.Value, m.Unit, m.N)
	}
	fmt.Fprintf(w, "%s error_rate %.6g ratio n=%d\n", res.Workload, ratio(float64(res.Failed), float64(res.Attempted)), res.Attempted)
}

// summaryLine is the last line of standard output when one workload runs.
func summaryLine(res runResult) string {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	ms := map[string]value{}
	for name, m := range res.Metrics {
		ms[name] = value{m.Value, m.Unit}
	}
	raw, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted uint64           `json:"attempted"`
		Failed    uint64           `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, ms})
	if err != nil {
		panic(err) // plain numbers and strings always marshal
	}
	return string(raw)
}

func main() {
	if err := mainErr(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// errIncorrect is returned when a run finished but an op or the read-back
// check failed.
var errIncorrect = errors.New("outputs incorrect")

func mainErr(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	workload := fs.String("workload", "all", "workload to run: "+strings.Join(workloadNames(), ", ")+" or all")
	seed := fs.Int64("seed", 1, "selects keys and op order")
	seconds := fs.Float64("seconds", defaultSeconds, "measured seconds per run, split over the repetitions")
	trace := fs.Int("trace", 0, "1 = traced run reporting the per-layer metrics, 0 = untraced run reporting the end-to-end metrics")
	scale := fs.Float64("scale", 1, "shrinks preload sizes, measured seconds and the quiescence window (tests use 0.01)")
	runs := fs.Int("runs", 1, "independent runs per workload, with seeds seed, seed+1, ...")
	out := fs.String("out", filepath.Join("bench", "out"), "directory for result.json, the trace files and the store's data")
	compare := fs.Bool("compare", false, "compare two result files given as arguments instead of running")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *compare {
		if fs.NArg() != 2 {
			return errors.New("-compare takes two result files")
		}
		return compareFiles(stdout, fs.Arg(0), fs.Arg(1))
	}
	if *seconds <= 0 || *scale <= 0 || *runs < 1 || fs.NArg() != 0 {
		return errors.New("need -seconds > 0, -scale > 0, -runs >= 1 and no positional arguments")
	}
	selected := specs
	if *workload != "all" {
		sp := specByName(*workload)
		if sp == nil {
			return fmt.Errorf("unknown workload %q", *workload)
		}
		selected = []*spec{sp}
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		return err
	}
	dataDir, err := os.MkdirTemp(*out, "data-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dataDir)

	file := resultFile{Env: readEnv(dataDir)}
	for run := 0; run < *runs; run++ {
		for _, sp := range selected {
			cfg := runCfg{seed: uint64(*seed) + uint64(run), seconds: *seconds, scale: *scale, dir: dataDir}
			res, err := runWorkload(sp, cfg, *trace != 0, *out, stdout)
			if err != nil {
				return err
			}
			printMetrics(stdout, res)
			file.Runs = append(file.Runs, res)
		}
	}
	raw, err := json.MarshalIndent(file, "", " ")
	if err != nil {
		return err
	}
	name := "result.json"
	if *trace != 0 {
		name = "result-traced.json"
	}
	if err := os.WriteFile(filepath.Join(*out, name), raw, 0o644); err != nil {
		return err
	}
	if len(file.Runs) == 1 {
		fmt.Fprintln(stdout, summaryLine(file.Runs[0]))
	}
	return verdict(file.Runs)
}

// verdict is errIncorrect if any run had a failed op or read-back check.
func verdict(runs []runResult) error {
	for _, res := range runs {
		if !res.Correct {
			return fmt.Errorf("%s seed %d: %d of %d ops failed: %w", res.Workload, res.Seed, res.Failed, res.Attempted, errIncorrect)
		}
	}
	return nil
}

func workloadNames() []string {
	names := make([]string, len(specs))
	for i, sp := range specs {
		names[i] = sp.name
	}
	return names
}
