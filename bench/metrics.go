package main

import (
	"fmt"
	"io"
	"strings"

	"papyruskv/internal/nvm"
	"papyruskv/internal/simnet"
)

// metricDef names one metric; BENCHMARK.json repeats this catalogue and
// TestBenchmarkJSONMatchesCode keeps the two in step.
type metricDef struct {
	name   string
	unit   string
	better string
	bound  float64 // end-to-end only: the share of the parent's median it may worsen by
}

// endToEndDefs are what a user of the store sees, on every workload.
// op_* is the latency of the workload's primary op: put on load, get on
// read_sst, ycsb_b and ycsb_a_2r, scan on scan_2r. Each bound is at least
// three times the widest run-to-run spread (interquartile range over
// median, ten seeds) the metric showed on the 2-core reference box.
var endToEndDefs = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"throughput_kops", "kops/s", "higher", 0.25},
	{"op_p50_us", "us", "lower", 0.25},
	{"op_p99_us", "us", "lower", 0.25},
	{"write_amp", "ratio", "lower", 0.15},
	{"heap_mb", "MB", "lower", 0.25},
}

// perLayerDefs are reported by the traced run. Source A is a counter delta
// over the measured phase, B a layer probe, C a span around a public call.
var perLayerDefs = []metricDef{
	// core, C: mean span per public call, split by db.Owner(key).
	{"core.put_local_us", "us", "lower", 0}, {"core.put_remote_us", "us", "lower", 0},
	{"core.get_local_us", "us", "lower", 0}, {"core.get_remote_us", "us", "lower", 0},
	{"core.get_miss_us", "us", "lower", 0}, {"core.fence_us", "us", "lower", 0},
	{"core.barrier_sst_ms", "ms", "lower", 0}, {"core.open_ms", "ms", "lower", 0}, {"core.close_ms", "ms", "lower", 0},
	// core, per-op-type latency of the traced run's measured phase.
	{"core.put_p50_us", "us", "lower", 0}, {"core.put_p99_us", "us", "lower", 0}, {"core.put_p999_us", "us", "lower", 0},
	{"core.get_p50_us", "us", "lower", 0}, {"core.get_p99_us", "us", "lower", 0}, {"core.get_p999_us", "us", "lower", 0},
	{"core.scan_p50_us", "us", "lower", 0}, {"core.scan_p95_us", "us", "lower", 0},
	{"core.op_max_us", "us", "lower", 0}, {"core.error_rate", "ratio", "lower", 0},
	// core, A.
	{"core.allocs_per_op", "count", "lower", 0}, {"core.alloc_bytes_per_op", "B", "lower", 0},
	{"core.peak_heap_mb", "MB", "lower", 0},
	{"core.probes_per_get", "count", "lower", 0},
	{"core.local_cache_hit_ratio", "ratio", "higher", 0}, {"core.memtable_hit_ratio", "ratio", "higher", 0},
	{"core.flushes", "count", "lower", 0}, {"core.compactions", "count", "lower", 0},
	{"core.compaction_bytes_per_user_byte", "ratio", "lower", 0},
	{"core.stall_us_per_kop", "us", "lower", 0}, {"core.puts_shed", "count", "lower", 0},
	{"core.pairs_per_migration", "count", "higher", 0}, {"core.retries_per_kop", "count", "lower", 0},
	{"core.scan_pages_per_scan", "count", "lower", 0},
	// memtable / rbtree, B.
	{"memtable.put_ns", "ns", "lower", 0}, {"memtable.get_ns", "ns", "lower", 0},
	{"memtable.encode_ns_per_entry", "ns", "lower", 0}, {"memtable.decode_ns_per_entry", "ns", "lower", 0},
	{"memtable.cursor_ns_per_entry", "ns", "lower", 0},
	{"rbtree.put_ns", "ns", "lower", 0}, {"rbtree.get_ns", "ns", "lower", 0},
	// wal, B then A.
	{"wal.append_ns", "ns", "lower", 0}, {"wal.commit_us", "us", "lower", 0},
	{"wal.bytes_per_user_byte", "ratio", "lower", 0}, {"wal.fsyncs_per_kop", "count", "lower", 0},
	{"wal.records_per_commit", "count", "higher", 0},
	// sstable / bloom, B then A.
	{"sstable.get_hot_us", "us", "lower", 0}, {"sstable.get_cold_us", "us", "lower", 0}, {"sstable.get_absent_us", "us", "lower", 0},
	{"sstable.write_ns_per_entry", "ns", "lower", 0}, {"sstable.merge_ns_per_entry", "ns", "lower", 0},
	{"sstable.scan_ns_per_entry", "ns", "lower", 0}, {"sstable.seek_us", "us", "lower", 0},
	{"sstable.reader_cache_hit_ratio", "ratio", "higher", 0}, {"sstable.reader_cache_evictions", "count", "lower", 0},
	{"bloom.probe_ns", "ns", "lower", 0}, {"bloom.add_ns", "ns", "lower", 0},
	// lru / hashfn / fifo / manifest, B then A.
	{"lru.get_ns", "ns", "lower", 0}, {"lru.put_ns", "ns", "lower", 0},
	{"hashfn.default_ns", "ns", "lower", 0}, {"fifo.enq_deq_ns", "ns", "lower", 0},
	{"manifest.apply_us", "us", "lower", 0}, {"manifest.edits", "count", "lower", 0},
	// nvm, A then B; modelled_us_per_op is computed, never slept.
	{"nvm.reads_per_get", "count", "lower", 0}, {"nvm.read_bytes_per_get", "B", "lower", 0},
	{"nvm.writes_per_kput", "count", "lower", 0}, {"nvm.opens_per_op", "count", "lower", 0},
	{"nvm.space_amp", "ratio", "lower", 0},
	{"nvm.readat_us", "us", "lower", 0}, {"nvm.append_us", "us", "lower", 0}, {"nvm.sync_us", "us", "lower", 0},
	{"nvm.modelled_us_per_op", "us", "lower", 0},
	// mpi / simnet, B then A.
	{"mpi.pingpong_us", "us", "lower", 0}, {"mpi.barrier_us", "us", "lower", 0},
	{"simnet.msgs_per_op", "count", "lower", 0}, {"simnet.bytes_per_op", "B", "lower", 0},
	{"simnet.modelled_us_per_op", "us", "lower", 0},
	// traced against untraced throughput_kops of the same invocation.
	{"tracing_overhead_pct", "%", "lower", 0},
	{"unattributed_pct", "%", "lower", 0},
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	// N is the sample count behind the value: timed ops for a percentile,
	// repetitions or slices for everything else.
	N    uint64    `json:"n"`
	Reps []float64 `json:"reps,omitempty"` // the per-repetition or per-slice values Value is the median of
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// totals sums one repetition over its ranks.
type totals struct {
	lat                 [numOpKinds]hist
	ops, gets, puts     uint64
	reads               uint64 // gets and scans
	attempted, failed   uint64
	db                  map[string]uint64
	dev, devTotal       nvm.Stats
	devSetup            nvm.Stats
	slices              []slice
	setupBytes          uint64 // key+value bytes put during set-up
	userBytes           uint64 // key+value bytes put, Open through Close
	liveBytes, onDevice uint64
	measuredPutBytes    uint64
}

func (rs *repStats) totals(sp *spec) *totals {
	t := &totals{db: map[string]uint64{}}
	for i := range rs.ranks {
		r := &rs.ranks[i]
		mergeLat(&t.lat, &r.lat)
		t.slices = mergeSlices(t.slices, r.slices)
		t.ops += r.ops
		t.attempted += r.attempted
		t.failed += r.failed
		for k, v := range r.dbDelta {
			t.db[k] += v
		}
		t.dev = addStats(t.dev, r.devDelta)
		t.devTotal = addStats(t.devTotal, r.devTotal)
		t.devSetup = addStats(t.devSetup, r.devSetup)
		t.setupBytes += r.setupBytes
		t.userBytes += r.userBytes
		t.liveBytes += r.liveBytes
		t.onDevice += r.onDevice
	}
	t.gets = t.lat[opGet].n + t.lat[opAbsent].n
	t.puts = t.lat[opUpdate].n + t.lat[opInsert].n
	t.reads = t.gets + t.lat[opScan].n
	t.measuredPutBytes = t.puts * uint64(keyLen+sp.value)
	return t
}

// tailQuantile is the tail reported for the primary op: p99, except for
// scans, whose few hundred samples per repetition support only p95.
func tailQuantile(k opKind) float64 {
	if k == opScan {
		return 0.95
	}
	return 0.99
}

// endToEnd reduces the untraced repetitions to the end-to-end metrics, each
// the median (heap_mb: the mean) of its per-repetition values — or, for throughput and the
// primary op's percentiles on a time-bound workload, of its per-slice
// values over every repetition.
func endToEnd(sp *spec, reps []*repStats) map[string]metric {
	vals := map[string][]float64{}
	add := func(name string, v float64) { vals[name] = append(vals[name], v) }
	var primaryN uint64
	for _, rs := range reps {
		t := rs.totals(sp)
		primaryN += t.lat[sp.primary].n
		add("setup_s", rs.setupS)
		add("heap_mb", float64(rs.meanHeap)/(1<<20))
		if t.setupBytes > 0 {
			add("write_amp", ratio(float64(t.devSetup.BytesWritten), float64(t.setupBytes)))
		} else {
			add("write_amp", ratio(float64(t.devTotal.BytesWritten), float64(t.userBytes)))
		}
		for i := range t.slices {
			sl := &t.slices[i]
			if rs.sliceS > 0 {
				add("throughput_kops", float64(sl.ops)/rs.sliceS/1e3)
			} else {
				add("throughput_kops", ratio(float64(t.ops), rs.wallS)/1e3)
			}
			if sl.lat.n > 0 {
				add("op_p50_us", sl.lat.quantile(0.5)/1e3)
				add("op_p99_us", sl.lat.quantile(tailQuantile(sp.primary))/1e3)
			}
		}
	}
	out := map[string]metric{}
	for _, d := range endToEndDefs {
		m := metric{Value: median(vals[d.name]), Unit: d.unit, N: uint64(len(vals[d.name])), Reps: vals[d.name]}
		if strings.HasPrefix(d.name, "op_") {
			m.N = primaryN
		}
		out[d.name] = m
	}
	// A repetition's heap settles on one of a few levels some 12 % apart
	// (110, 123 or 135 MB on read_sst), whichever way the preload left the
	// store, so the median of three repetitions jumps between levels from
	// run to run where their mean moves by a third of that.
	heap := out["heap_mb"]
	heap.Value = mean(heap.Reps)
	out["heap_mb"] = heap
	return out
}

// attributionRow is one line of the attribution table: how often an op
// calls into a layer (counters), what a call costs (probes), and so what
// the layer is estimated to cost per op. Spans inside core will later
// replace the estimates.
type attributionRow struct {
	Layer      string  `json:"layer"`
	CallsPerOp float64 `json:"calls_per_op"`
	UnitUS     float64 `json:"unit_us"`
	EstUS      float64 `json:"est_us_per_op"`
	Share      float64 `json:"share"`
}

// perLayer derives every per-layer metric from one untraced repetition
// (the tracing-overhead base), one traced repetition and the probes.
func perLayer(sp *spec, base, traced *repStats, tf *traceFile, pr *probeResults) map[string]metric {
	t := traced.totals(sp)
	db := func(k string) float64 { return float64(t.db[k]) }
	ops, gets, puts, reads := float64(t.ops), float64(t.gets), float64(t.puts), float64(t.reads)
	kops := ops / 1e3
	v := map[string]float64{}
	for name, x := range pr.m {
		v[name] = x
	}

	// C: spans.
	v["core.put_local_us"] = tf.meanUS(spPutLocal)
	v["core.put_remote_us"] = tf.meanUS(spPutRemote)
	v["core.get_local_us"] = tf.meanUS(spGetLocal)
	v["core.get_remote_us"] = tf.meanUS(spGetRemote)
	v["core.get_miss_us"] = tf.meanUS(spGetMiss)
	v["core.fence_us"] = tf.meanUS(spFence)
	v["core.barrier_sst_ms"] = tf.meanUS(spBarrierSST) / 1e3
	v["core.open_ms"] = tf.meanUS(spOpen) / 1e3
	v["core.close_ms"] = tf.meanUS(spClose) / 1e3

	var put, all hist
	put.merge(&t.lat[opUpdate])
	put.merge(&t.lat[opInsert])
	for k := range t.lat {
		all.merge(&t.lat[k])
	}
	samples := map[string]uint64{} // timed ops behind each percentile
	quantiles := func(prefix string, h *hist, qs map[string]float64) {
		for suffix, q := range qs {
			v[prefix+suffix] = h.quantile(q) / 1e3
			samples[prefix+suffix] = h.n
		}
	}
	quantiles("core.put_", &put, map[string]float64{"p50_us": 0.5, "p99_us": 0.99, "p999_us": 0.999})
	quantiles("core.get_", &t.lat[opGet], map[string]float64{"p50_us": 0.5, "p99_us": 0.99, "p999_us": 0.999})
	quantiles("core.scan_", &t.lat[opScan], map[string]float64{"p50_us": 0.5, "p95_us": 0.95})
	v["core.op_max_us"] = float64(all.max) / 1e3
	v["core.error_rate"] = ratio(float64(t.failed), float64(t.attempted))

	// A: counters over the measured phase.
	v["core.allocs_per_op"] = ratio(float64(traced.allocObjs), ops)
	v["core.alloc_bytes_per_op"] = ratio(float64(traced.allocBytes), ops)
	v["core.peak_heap_mb"] = float64(traced.peakHeap) / (1 << 20)
	v["core.probes_per_get"] = ratio(db("sstable_probes"), gets)
	v["core.local_cache_hit_ratio"] = ratio(db("local_cache_hits"), gets)
	v["core.memtable_hit_ratio"] = ratio(db("memtable_hits"), gets)
	v["core.flushes"] = db("flushes")
	v["core.compactions"] = db("compactions")
	v["core.compaction_bytes_per_user_byte"] = ratio(db("compaction_bytes_written"), float64(t.measuredPutBytes))
	v["core.stall_us_per_kop"] = ratio(db("stall_ns_total")/1e3, kops)
	v["core.puts_shed"] = db("puts_shed")
	v["core.pairs_per_migration"] = ratio(db("migrated_pairs"), db("migrations"))
	v["core.retries_per_kop"] = ratio(db("migration_retries")+db("put_sync_retries")+db("get_retries")+db("scan_retries"), kops)
	v["core.scan_pages_per_scan"] = ratio(db("scan_pages"), float64(t.lat[opScan].n))
	v["wal.bytes_per_user_byte"] = ratio(db("wal_bytes_appended"), float64(t.measuredPutBytes))
	v["wal.fsyncs_per_kop"] = ratio(db("wal_fsyncs"), kops)
	v["wal.records_per_commit"] = ratio(db("wal_records_appended"), db("wal_group_commits"))
	v["sstable.reader_cache_hit_ratio"] = ratio(db("reader_cache_hits"), db("reader_cache_hits")+db("reader_cache_misses"))
	v["sstable.reader_cache_evictions"] = db("reader_cache_evictions")
	v["manifest.edits"] = db("manifest_edits")
	v["nvm.reads_per_get"] = ratio(float64(t.dev.Reads), reads)
	v["nvm.read_bytes_per_get"] = ratio(float64(t.dev.BytesRead), reads)
	v["nvm.writes_per_kput"] = ratio(float64(t.dev.Writes), puts/1e3)
	v["nvm.opens_per_op"] = ratio(float64(t.dev.Opens), ops)
	v["nvm.space_amp"] = ratio(float64(t.onDevice), float64(t.liveBytes))
	model := nvm.NVMe
	modelledNs := float64(t.dev.Reads)*float64(model.ReadLatency) + float64(t.dev.BytesRead)/model.ReadBandwidth*1e9 +
		float64(t.dev.Writes)*float64(model.WriteLatency) + float64(t.dev.BytesWritten)/model.WriteBandwidth*1e9 +
		float64(t.dev.Opens)*float64(model.OpenLatency)
	v["nvm.modelled_us_per_op"] = ratio(modelledNs/1e3, ops)
	msgs, netBytes := float64(traced.msgs), float64(traced.netBytes)
	v["simnet.msgs_per_op"] = ratio(msgs, ops)
	v["simnet.bytes_per_op"] = ratio(netBytes, ops)
	fabric := simnet.EDRInfiniBand
	v["simnet.modelled_us_per_op"] = ratio((msgs*float64(fabric.Latency)+netBytes/fabric.Bandwidth*1e9)/1e3, ops)

	baseKops := endToEnd(sp, []*repStats{base})["throughput_kops"].Value
	tracedKops := endToEnd(sp, []*repStats{traced})["throughput_kops"].Value
	v["tracing_overhead_pct"] = 100 * ratio(baseKops-tracedKops, baseKops)

	// Attribution: calls per op (A) x unit cost (B) against the measured
	// time a client spent inside the store per op (C).
	var busyNs float64
	for k := spPutLocal; k <= spBarrierSST; k++ {
		if h := tf.hists[k]; h != nil {
			busyNs += float64(h.sum)
		}
	}
	measuredUS := ratio(busyNs/1e3, ops)
	sstSelfUS := max(v["sstable.get_hot_us"]-pr.hotGetReads*v["nvm.readat_us"], 0)
	rows := []attributionRow{
		{Layer: "hashfn", CallsPerOp: ratio(gets+puts, ops), UnitUS: v["hashfn.default_ns"] / 1e3},
		{Layer: "memtable.put", CallsPerOp: ratio(puts+db("migrated_pairs"), ops), UnitUS: v["memtable.put_ns"] / 1e3},
		{Layer: "memtable.get", CallsPerOp: ratio(gets, ops), UnitUS: v["memtable.get_ns"] / 1e3},
		{Layer: "memtable.codec", CallsPerOp: ratio(db("migrated_pairs"), ops), UnitUS: (v["memtable.encode_ns_per_entry"] + v["memtable.decode_ns_per_entry"]) / 1e3},
		{Layer: "wal.append", CallsPerOp: ratio(db("wal_records_appended"), ops), UnitUS: v["wal.append_ns"] / 1e3},
		{Layer: "lru.get", CallsPerOp: ratio(gets-db("memtable_hits"), ops), UnitUS: v["lru.get_ns"] / 1e3},
		{Layer: "lru.put", CallsPerOp: ratio(db("sstable_hits"), ops), UnitUS: v["lru.put_ns"] / 1e3},
		{Layer: "sstable.get found", CallsPerOp: ratio(db("sstable_hits"), ops), UnitUS: sstSelfUS},
		{Layer: "sstable.get absent", CallsPerOp: ratio(db("sstable_probes")-db("sstable_hits"), ops), UnitUS: v["sstable.get_absent_us"]},
		{Layer: "nvm.readat", CallsPerOp: ratio(float64(t.dev.Reads), ops), UnitUS: v["nvm.readat_us"]},
		{Layer: "mpi", CallsPerOp: ratio(msgs, ops), UnitUS: v["mpi.pingpong_us"] / 2},
		{Layer: "fifo", CallsPerOp: ratio(msgs, ops), UnitUS: v["fifo.enq_deq_ns"] / 1e3},
	}
	var attributed float64
	for i := range rows {
		rows[i].EstUS = rows[i].CallsPerOp * rows[i].UnitUS
		rows[i].Share = ratio(rows[i].EstUS, measuredUS)
		attributed += rows[i].EstUS
	}
	rows = append(rows,
		attributionRow{Layer: "unattributed", EstUS: measuredUS - attributed, Share: ratio(measuredUS-attributed, measuredUS)},
		attributionRow{Layer: "measured", EstUS: measuredUS, Share: 1})
	tf.Attribution = rows
	v["unattributed_pct"] = 100 * ratio(measuredUS-attributed, measuredUS)

	out := map[string]metric{}
	for _, d := range perLayerDefs {
		out[d.name] = metric{Value: v[d.name], Unit: d.unit, N: max(samples[d.name], 1)}
	}
	return out
}

// printAttribution writes the table. Reading it: calls/op times unit cost
// is the layer's estimated share of the time a client spent inside the
// store per op; what no row explains is on the unattributed line.
func printAttribution(w io.Writer, workload string, rows []attributionRow) {
	fmt.Fprintf(w, "attribution %s\n", workload)
	fmt.Fprintf(w, "  %-20s %12s %12s %14s %8s\n", "layer", "calls/op", "unit us", "est us/op", "share")
	for _, r := range rows {
		fmt.Fprintf(w, "  %-20s %12.4f %12.4f %14.4f %7.1f%%\n", r.Layer, r.CallsPerOp, r.UnitUS, r.EstUS, 100*r.Share)
	}
}
