package main

import (
	"encoding/json"
	"os"
	"path/filepath"
)

// Tracing is done from outside the store: a span is recorded around each
// public DB call, in memory, and written out when the run ends. Spans
// inside core are a later change (ROADMAP item 2).

type spanKind uint8

const (
	spPutLocal spanKind = iota
	spPutRemote
	spGetLocal
	spGetRemote
	spGetMiss
	spScan
	spFence
	spBarrierSST
	spOpen
	spClose
	spPhase // the whole repetition: every other span's parent
	numSpanKinds
)

var spanNames = [numSpanKinds]string{
	"put_local", "put_remote", "get_local", "get_remote", "get_miss",
	"scan", "fence", "barrier_sst", "open", "close", "phase",
}

// span is one public call. Rank, client and op id are not stored: they are
// the slice the span sits in and its position there.
type span struct {
	start int64 // ns since the repetition began
	dur   int64
	kind  spanKind
}

// spanAgg summarises every span of one kind.
type spanAgg struct {
	Count  uint64  `json:"count"`
	SumUS  float64 `json:"sum_us"`
	MeanUS float64 `json:"mean_us"`
	P50US  float64 `json:"p50_us"`
	P99US  float64 `json:"p99_us"`
	MaxUS  float64 `json:"max_us"`
}

type spanJSON struct {
	Name    string  `json:"name"`
	StartUS float64 `json:"start_us"`
	DurUS   float64 `json:"dur_us"`
	Rank    int     `json:"rank"`
	Client  int     `json:"client"`
	Op      int     `json:"op"`
	Parent  string  `json:"parent"`
}

// traceFile is bench/out/trace-<workload>.json.
type traceFile struct {
	Workload    string             `json:"workload"`
	Seed        uint64             `json:"seed"`
	Aggregates  map[string]spanAgg `json:"aggregates"`
	Counters    map[string]uint64  `json:"counters"` // store counters over the measured phase, summed over ranks
	Attribution []attributionRow   `json:"attribution"`
	SampleEvery int                `json:"sample_every"`
	Spans       []spanJSON         `json:"spans"`
	hists       map[spanKind]*hist
}

const traceSampleEvery = 100

// buildTrace aggregates a traced repetition's spans and keeps every
// hundredth for the file.
func buildTrace(sp *spec, seed uint64, rs *repStats) *traceFile {
	tf := &traceFile{
		Workload: sp.name, Seed: seed, SampleEvery: traceSampleEvery,
		Aggregates: map[string]spanAgg{}, hists: map[spanKind]*hist{},
	}
	for rank := range rs.ranks {
		for client, spans := range rs.ranks[rank].spans {
			for i, s := range spans {
				h := tf.hists[s.kind]
				if h == nil {
					h = &hist{}
					tf.hists[s.kind] = h
				}
				h.add(s.dur)
				if i%traceSampleEvery == 0 {
					parent := spanNames[spPhase]
					if s.kind == spPhase {
						parent = ""
					}
					tf.Spans = append(tf.Spans, spanJSON{
						Name: spanNames[s.kind], StartUS: float64(s.start) / 1e3, DurUS: float64(s.dur) / 1e3,
						Rank: rank, Client: client, Op: i, Parent: parent,
					})
				}
			}
		}
	}
	for k, h := range tf.hists {
		tf.Aggregates[spanNames[k]] = spanAgg{
			Count: h.n, SumUS: float64(h.sum) / 1e3, MeanUS: h.mean() / 1e3,
			P50US: h.quantile(0.5) / 1e3, P99US: h.quantile(0.99) / 1e3, MaxUS: float64(h.max) / 1e3,
		}
	}
	return tf
}

func (tf *traceFile) write(outDir string) error {
	raw, err := json.MarshalIndent(tf, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(outDir, "trace-"+tf.Workload+".json"), raw, 0o644)
}

// meanUS is the mean duration of one span kind, 0 when there were none.
func (tf *traceFile) meanUS(k spanKind) float64 {
	if h := tf.hists[k]; h != nil {
		return h.mean() / 1e3
	}
	return 0
}
