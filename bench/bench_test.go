package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"papyruskv"
	"papyruskv/internal/workload"
)

// benchmarkJSON is the part of ../BENCHMARK.json the code must agree with.
type benchmarkJSON struct {
	RunSeconds float64 `json:"run_seconds"`
	Workloads  []struct{ Name, Why string }
	EndToEnd   []benchDef `json:"end_to_end"`
	PerLayer   []benchDef `json:"per_layer"`
}

type benchDef struct {
	Name, Unit, Better string
	Bound              float64
}

func loadBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	if err := json.Unmarshal(raw, &bj); err != nil {
		t.Fatal(err)
	}
	return bj
}

func TestBenchmarkJSONMatchesCode(t *testing.T) {
	bj := loadBenchmarkJSON(t)
	if bj.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds = %v, code default is %v", bj.RunSeconds, defaultSeconds)
	}
	if len(bj.Workloads) != len(specs) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in code", len(bj.Workloads), len(specs))
	}
	for i, w := range bj.Workloads {
		if w.Name != specs[i].name || w.Why != specs[i].why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), code has %q (%q)", i, w.Name, w.Why, specs[i].name, specs[i].why)
		}
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	check := func(kind string, got []benchDef, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: %d metrics in BENCHMARK.json, %d in code", kind, len(got), len(want))
			return
		}
		for i, g := range got {
			w := want[i]
			if g.Name != w.name || g.Unit != w.unit || g.Better != w.better || g.Bound != w.bound {
				t.Errorf("%s %d: BENCHMARK.json has %+v, code has %+v", kind, i, g, w)
			}
		}
	}
	check("end_to_end", bj.EndToEnd, endToEndDefs)
	check("per_layer", bj.PerLayer, perLayerDefs)
}

// TestWorkloadsSmallScale runs every workload, untraced and traced, at a
// hundredth of its size, so a refactor of internal/* cannot silently break
// the benchmark.
func TestWorkloadsSmallScale(t *testing.T) {
	bj := loadBenchmarkJSON(t)
	for _, traced := range []bool{false, true} {
		want := bj.EndToEnd
		if traced {
			want = bj.PerLayer
		}
		for _, sp := range specs {
			out := t.TempDir()
			cfg := runCfg{seed: 7, seconds: defaultSeconds, scale: 0.01, dir: out}
			res, err := runWorkload(sp, cfg, traced, out, io.Discard)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", sp.name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s traced=%v: correct=%v failed=%d attempted=%d", sp.name, traced, res.Correct, res.Failed, res.Attempted)
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics emitted, BENCHMARK.json names %d", sp.name, traced, len(res.Metrics), len(want))
			}
			for _, d := range want {
				m, ok := res.Metrics[d.Name]
				if !ok {
					t.Errorf("%s traced=%v: metric %s not emitted", sp.name, traced, d.Name)
				} else if !traced && m.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, must be positive", sp.name, d.Name, m.Value)
				}
			}
			if traced {
				raw, err := os.ReadFile(filepath.Join(out, "trace-"+sp.name+".json"))
				if err != nil {
					t.Fatal(err)
				}
				var tf traceFile
				if err := json.Unmarshal(raw, &tf); err != nil {
					t.Fatal(err)
				}
				if len(tf.Spans) == 0 || len(tf.Aggregates) == 0 || len(tf.Attribution) == 0 {
					t.Errorf("%s: trace file has %d spans, %d aggregates, %d attribution rows", sp.name, len(tf.Spans), len(tf.Aggregates), len(tf.Attribution))
				}
				if last := tf.Attribution[len(tf.Attribution)-2]; last.Layer != "unattributed" {
					t.Errorf("%s: attribution table lacks its unattributed row", sp.name)
				}
			}
		}
	}
}

// TestCommandLine drives the flags the benchmark driver passes and checks
// the summary line it reads.
func TestCommandLine(t *testing.T) {
	var stdout bytes.Buffer
	out := t.TempDir()
	args := []string{"--workload", "ycsb_b", "--seed", "3", "--seconds", "9", "--trace", "0", "-scale", "0.01", "-out", out}
	if err := mainErr(args, &stdout); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var sum struct {
		Correct           *bool
		Attempted, Failed *uint64
		Metrics           map[string]struct {
			Value float64
			Unit  string
		}
	}
	dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&sum); err != nil {
		t.Fatalf("last line is not the summary object: %v\n%s", err, lines[len(lines)-1])
	}
	if sum.Correct == nil || !*sum.Correct || sum.Failed == nil || *sum.Failed != 0 || sum.Attempted == nil || *sum.Attempted < 1 {
		t.Errorf("summary %s", lines[len(lines)-1])
	}
	if len(sum.Metrics) != len(endToEndDefs) {
		t.Errorf("summary carries %d metrics, want the %d end-to-end ones", len(sum.Metrics), len(endToEndDefs))
	}
	if !strings.HasPrefix(lines[0], "ycsb_b ") || !strings.Contains(lines[0], " n=") {
		t.Errorf("metric line %q is not `workload metric value unit n=samples`", lines[0])
	}
	var file resultFile
	raw, err := os.ReadFile(filepath.Join(out, "result.json"))
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(raw, &file); err != nil {
		t.Fatal(err)
	}
	if len(file.Runs) != 1 || file.Runs[0].Seed != 3 || len(file.Runs[0].Metrics["setup_s"].Reps) != specByName("ycsb_b").reps || file.Env.GoVersion == "" {
		t.Errorf("result.json lacks the run, its raw repetitions or the env block: %+v", file)
	}
	if left, _ := filepath.Glob(filepath.Join(out, "data-*")); len(left) != 0 {
		t.Errorf("store data left behind: %v", left)
	}
	if err := mainErr([]string{"-workload", "nope"}, io.Discard); err == nil {
		t.Error("unknown workload accepted")
	}
}

// TestReadBackDetectsCorruption: the read-back check must fail when a
// stored value is not the one its key generates, and a failed check must
// make the command exit non-zero.
func TestReadBackDetectsCorruption(t *testing.T) {
	const n, size = 200, 128
	keys := workload.Keys(11, keyLen, n)
	idxs := make([]int, n)
	cl, err := papyruskv.NewCluster(papyruskv.ClusterConfig{Ranks: 1, Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	err = cl.Run(func(ctx *papyruskv.Context) error {
		db, err := ctx.Open("rb", nil)
		if err != nil {
			return err
		}
		val := newValuer(size)
		for i := range keys {
			idxs[i] = i
			if err := db.Put(keys[i], val.fill(nil, i)); err != nil {
				return err
			}
		}
		if failed := readBack(db, keys, idxs, size); failed != 0 {
			t.Errorf("clean store: %d read-back failures", failed)
		}
		bad := val.fill(nil, 17)
		bad[size-1] ^= 1
		if err := db.Put(keys[17], bad); err != nil {
			return err
		}
		if err := db.Delete(keys[42]); err != nil {
			return err
		}
		if failed := readBack(db, keys, idxs, size); failed != 2 {
			t.Errorf("one flipped bit and one lost key: %d read-back failures, want 2", failed)
		}
		return db.Close()
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := verdict([]runResult{{Correct: true}, {Correct: false, Failed: 2}}); !errors.Is(err, errIncorrect) {
		t.Errorf("verdict on a failed run = %v, want errIncorrect", err)
	}
	if err := verdict([]runResult{{Correct: true}}); err != nil {
		t.Errorf("verdict on a clean run = %v", err)
	}
}

func TestCompare(t *testing.T) {
	mk := func(kops ...float64) string {
		var f resultFile
		for _, k := range kops {
			f.Runs = append(f.Runs, runResult{Workload: "load", Metrics: map[string]metric{
				"throughput_kops": {Value: k, Unit: "kops/s"},
				"op_p50_us":       {Value: 1000 / k, Unit: "us"},
			}})
		}
		raw, err := json.Marshal(f)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(t.TempDir(), "r.json")
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base := mk(100, 101, 99, 100)
	for _, tc := range []struct {
		name    string
		other   string
		verdict string
		err     error
	}{
		{"same", mk(99, 100, 101, 100.5), "ok", nil},
		{"faster", mk(150, 151, 149, 150), "ok", nil},
		{"slower", mk(60, 61, 59, 60), "regressed", errRegressed},
		{"slower but noisy", mk(20, 110, 60, 40, 90), "unresolved", nil},
	} {
		var out bytes.Buffer
		err := compareFiles(&out, base, tc.other)
		if !errors.Is(err, tc.err) || (tc.err == nil && err != nil) {
			t.Errorf("%s: err = %v, want %v", tc.name, err, tc.err)
		}
		if !strings.Contains(out.String(), tc.verdict) {
			t.Errorf("%s: no %q verdict in\n%s", tc.name, tc.verdict, out.String())
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1, 2, 4, 7, 11, 16, 22, 29, 37, 46], n=4) == [3.5, 13.5, 31.0]
	q1, q3 := quartiles([]float64{1, 2, 4, 7, 11, 16, 22, 29, 37, 46})
	if q1 != 3.5 || q3 != 31 {
		t.Errorf("quartiles = %v, %v; want 3.5, 31", q1, q3)
	}
}

func TestHistQuantiles(t *testing.T) {
	var h hist
	rng := newRNG(5, 0, 0)
	vals := make([]float64, 200000)
	for i := range vals {
		v := int64(rng.ExpFloat64() * 20000)
		vals[i] = float64(v)
		h.add(v)
	}
	sort.Float64s(vals)
	for _, q := range []float64{0.5, 0.95, 0.99, 0.999} {
		exact := vals[int(q*float64(len(vals)))]
		if got := h.quantile(q); got < exact*0.99 || got > exact*1.01 {
			t.Errorf("q%.3f = %.0f, exact %.0f: off by more than 1 %%", q, got, exact)
		}
	}
	if h.n != uint64(len(vals)) || float64(h.max) != vals[len(vals)-1] {
		t.Errorf("n = %d, max = %d", h.n, h.max)
	}
	var big hist
	big.add(1 << 62)
	if got := big.quantile(0.5); got <= 0 {
		t.Errorf("overflow bucket quantile = %v", got)
	}
}
