// Package nvm provides the storage substrate of PapyrusKV: file-backed
// devices accessed through a POSIX-style interface, each governed by a
// performance model of a real NVM or parallel-file-system target.
//
// The paper evaluates four storage classes — node-local NVMe (Summitdev),
// node-local SATA SSD (Stampede), a dedicated burst buffer (Cori), and the
// Lustre parallel file system — whose *relative* characteristics drive every
// result: NVM's fast random reads make SSTable binary search profitable
// (Fig. 8) and gets orders-of-magnitude faster than Lustre (Fig. 6), while
// Lustre's striping across OSTs gives it competitive large sequential
// writes. The PerfModel encodes per-operation latency, per-stream bandwidth,
// stripe-limited aggregate bandwidth, and file-open (metadata) cost; real
// bytes land in real files under a directory so persistence, zero-copy
// reopen, and checkpoint file movement are genuine.
//
// A published, immutable file opened for random access is a File: a
// read-only mapping that SSTable gets and scans decode in place, each view
// of it charged to the model as one read of its bytes, as a pread was. A
// fault on a cold page blocks its thread outside the Go scheduler, where a
// pread would release its P, and the package needs a unix mmap.
package nvm

import (
	"sync/atomic"
	"time"

	"papyruskv/internal/simnet"
)

// PerfModel describes one storage device class.
type PerfModel struct {
	// Name identifies the profile in logs and experiment output.
	Name string
	// OpenLatency is charged per file open/create (metadata cost; large
	// for Lustre's metadata server round trip).
	OpenLatency time.Duration
	// ReadLatency / WriteLatency are charged per I/O operation.
	ReadLatency  time.Duration
	WriteLatency time.Duration
	// ReadBandwidth / WriteBandwidth are per-stream bandwidths in
	// bytes/second. Zero means infinite.
	ReadBandwidth  float64
	WriteBandwidth float64
	// Stripes is the number of independent targets (Lustre OSTs, burst
	// buffer nodes). Aggregate bandwidth is per-stream bandwidth times
	// Stripes; concurrent streams beyond Stripes share it.
	Stripes int
	// TimeScale multiplies every delay; zero disables the model.
	TimeScale float64
}

// Scaled returns a copy of m with TimeScale set to s. The benchmark harness
// uses it to shrink all device times uniformly.
func (m PerfModel) Scaled(s float64) PerfModel {
	m.TimeScale = s
	return m
}

// Published-order-of-magnitude profiles for the paper's storage classes.
// The absolute values matter less than their ratios (see DESIGN.md).
var (
	// NVMe models Summitdev's 800GB node-local NVMe drives: ~3GB/s read /
	// 2GB/s write aggregate with deep internal parallelism and fast
	// random access.
	NVMe = PerfModel{
		Name: "nvme", OpenLatency: 15 * time.Microsecond,
		ReadLatency: 90 * time.Microsecond, WriteLatency: 30 * time.Microsecond,
		ReadBandwidth: 0.75e9, WriteBandwidth: 0.5e9, Stripes: 4, TimeScale: 1,
	}
	// SATASSD models Stampede's 112GB node-local SSDs: ~0.5GB/s read /
	// 0.4GB/s write aggregate.
	SATASSD = PerfModel{
		Name: "ssd", OpenLatency: 25 * time.Microsecond,
		ReadLatency: 130 * time.Microsecond, WriteLatency: 60 * time.Microsecond,
		ReadBandwidth: 0.25e9, WriteBandwidth: 0.2e9, Stripes: 2, TimeScale: 1,
	}
	// BurstBuffer models Cori's dedicated burst buffer nodes: SSD speeds
	// plus a network hop, striped across several BB nodes so aggregate
	// bandwidth is high (~8GB/s) — this is why Cori's barriers in Fig. 6
	// outrun the node-local systems at large values.
	BurstBuffer = PerfModel{
		Name: "burstbuffer", OpenLatency: 120 * time.Microsecond,
		ReadLatency: 450 * time.Microsecond, WriteLatency: 350 * time.Microsecond,
		ReadBandwidth: 1.0e9, WriteBandwidth: 1.0e9, Stripes: 8, TimeScale: 1,
	}
	// Lustre models a Lustre scratch file system seen from one client
	// node: expensive metadata operations (MDS round trip per open), high
	// random-read latency and poor aggregate client read bandwidth
	// (~0.6GB/s), but OST-striped writes that aggregate well (~2.4GB/s) —
	// reproducing Fig. 6's "Lustre barriers catch up at large values
	// while gets stay orders of magnitude behind NVM".
	Lustre = PerfModel{
		Name: "lustre", OpenLatency: 2500 * time.Microsecond,
		ReadLatency: 3 * time.Millisecond, WriteLatency: 900 * time.Microsecond,
		ReadBandwidth: 0.15e9, WriteBandwidth: 1.0e9, Stripes: 4, TimeScale: 1,
	}
	// DRAM is an unthrottled profile for unit tests and as a tmpfs stand-in.
	DRAM = PerfModel{Name: "dram"}
)

// throttle tracks concurrent streams against a model and converts operation
// shapes into delays.
type throttle struct {
	model    PerfModel
	inflight atomic.Int64
}

// delay charges one operation of n bytes using latency lat and per-stream
// bandwidth bw.
func (t *throttle) delay(n int, lat time.Duration, bw float64) {
	if t.model.TimeScale <= 0 {
		return
	}
	concurrent := t.inflight.Add(1)
	defer t.inflight.Add(-1)
	d := float64(lat)
	if bw > 0 && n > 0 {
		effBW := bw
		stripes := int64(t.model.Stripes)
		if stripes < 1 {
			stripes = 1
		}
		if concurrent > stripes {
			// Streams beyond the stripe count share aggregate bandwidth.
			effBW = bw * float64(stripes) / float64(concurrent)
		}
		d += float64(n) / effBW * float64(time.Second)
	}
	simnet.Sleep(time.Duration(d * t.model.TimeScale))
}

func (t *throttle) read(n int)  { t.delay(n, t.model.ReadLatency, t.model.ReadBandwidth) }
func (t *throttle) write(n int) { t.delay(n, t.model.WriteLatency, t.model.WriteBandwidth) }
func (t *throttle) open()       { t.delay(0, t.model.OpenLatency, 0) }
