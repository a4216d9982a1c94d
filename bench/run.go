package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime/metrics"
	"sort"
	"sync"
	"time"

	"papyruskv"
	"papyruskv/internal/core"
	"papyruskv/internal/mpi"
	"papyruskv/internal/nvm"
	"papyruskv/internal/simnet"
	"papyruskv/internal/workload"
)

// runCfg is what the command line fixes for one run.
type runCfg struct {
	seed    uint64
	seconds float64 // measured time of the whole run, split over the workload's repetitions
	scale   float64 // multiplies preload sizes, seconds and the quiescence window
	dir     string  // data directory; each repetition works in a fresh subdirectory
}

// quiesceWindow is how long compactions and device bytes written must stay
// unchanged before a preloaded store counts as settled. Without the wait a
// read phase races the tail of the preload's compactions and
// sstable_probes per get drifts between identical runs.
const quiesceWindow = 500 * time.Millisecond

// A time-bound measured phase is cut into up to maxSlices slices of at least
// sliceTarget each. Throughput and the primary op's percentiles are taken
// per slice and the run reports their medians over every slice of every
// repetition: on a shared two-core box interference only ever slows a
// slice down, and the median of two dozen slices shrugs off the disturbed
// ones where one figure over the whole phase averages them in.
const (
	sliceTarget = 500 * time.Millisecond
	maxSlices   = 8
)

// slice is what one client (then one rank, then the run) did in one slice.
type slice struct {
	ops uint64
	lat hist // primary op only
}

// mergeSlices adds src to dst slice by slice, allocating dst on first use.
func mergeSlices(dst, src []slice) []slice {
	if dst == nil {
		dst = make([]slice, len(src))
	}
	for i := range src {
		dst[i].ops += src[i].ops
		dst[i].lat.merge(&src[i].lat)
	}
	return dst
}

func mergeLat(dst, src *[numOpKinds]hist) {
	for k := range src {
		dst[k].merge(&src[k])
	}
}

// inputs is everything generated from the seed before the store is opened.
type inputs struct {
	// keys holds the preloaded keys of every rank (rank r's slice is
	// [r*preload, (r+1)*preload)), then one insert block per client. A
	// key's index is the idx its value is built from, so any value read
	// back names the key it must belong to.
	keys     [][]byte
	nPre     int
	perRank  int
	block    int      // insert block length
	absent   [][]byte // keys never written
	sorted   []int32  // preloaded key indices in key order (scan workloads)
	loadOps  int      // count-bound workloads: inserts per client
	duration time.Duration
	warmup   time.Duration // unmeasured run-in before a time-bound measured phase
	slices   int           // equal time slices the measured phase is cut into
}

func (in *inputs) blockBase(sp *spec, rank, client int) int {
	return in.nPre + (rank*sp.clients+client)*in.block
}

func genInputs(sp *spec, cfg runCfg, seed uint64) *inputs {
	in := &inputs{
		perRank:  max(int(float64(sp.preload)*cfg.scale), 0),
		block:    insertBlock,
		duration: time.Duration(cfg.seconds * cfg.scale / float64(sp.reps) * float64(time.Second)),
	}
	if sp.preload > 0 {
		in.perRank = max(in.perRank, 4*scanLen)
	}
	in.slices = min(max(int(in.duration/sliceTarget), 1), maxSlices)
	in.warmup = in.duration / 2
	if sp.countBound() {
		in.warmup = 0 // a fresh, cold store is what the bulk load measures
		in.loadOps = max(int(float64(sp.insertsPerSecond)*in.duration.Seconds())/sp.clients, 1)
		in.block = in.loadOps
		in.slices = 1
	}
	if sp.mix.insert == 0 {
		in.block = 0
	}
	in.nPre = in.perRank * sp.ranks
	streams := sp.ranks + sp.ranks*sp.clients
	in.keys = make([][]byte, 0, in.nPre+sp.ranks*sp.clients*in.block)
	for s := 0; s < streams; s++ {
		n := in.perRank
		if s >= sp.ranks {
			n = in.block
		}
		in.keys = append(in.keys, workload.Keys(int64(seed)*64+int64(s), keyLen, n)...)
	}
	if sp.mix.absent > 0 {
		in.absent = workload.Keys(^int64(seed), keyLen, absentKeys)
	}
	if sp.mix.scan > 0 {
		in.sorted = make([]int32, in.nPre)
		for i := range in.sorted {
			in.sorted[i] = int32(i)
		}
		sort.Slice(in.sorted, func(a, b int) bool {
			return bytes.Compare(in.keys[in.sorted[a]], in.keys[in.sorted[b]]) < 0
		})
	}
	return in
}

// rankCtx is one rank's view of the SPMD world, whichever way it was built.
type rankCtx struct {
	rank, size int
	open       func(name string, opt papyruskv.Options) (*papyruskv.DB, error)
	barrier    func() error
}

// world runs one function per rank. fabrics is empty for a Cluster, which
// does not expose its interconnect.
type world struct {
	run     func(func(rankCtx) error) error
	fabrics []*simnet.Fabric
}

// clusterWorld is the public API's world: what an application gets.
func clusterWorld(ranks int, dir string) (*world, error) {
	cl, err := papyruskv.NewCluster(papyruskv.ClusterConfig{Ranks: ranks, Dir: dir})
	if err != nil {
		return nil, err
	}
	return &world{run: func(fn func(rankCtx) error) error {
		return cl.Run(func(ctx *papyruskv.Context) error {
			return fn(rankCtx{
				rank: ctx.Rank(), size: ctx.Size(),
				open:    func(name string, opt papyruskv.Options) (*papyruskv.DB, error) { return ctx.Open(name, &opt) },
				barrier: ctx.Barrier,
			})
		})
	}}, nil
}

// tracedWorld assembles what NewCluster + Cluster.Run assemble for the same
// ClusterConfig — one unthrottled device per rank, every rank on one node,
// no modelled delays — from the same constructors, so the traced run can
// hold the fabric handles and count messages.
func tracedWorld(ranks int, dir string) (*world, error) {
	pfs, err := nvm.Open(filepath.Join(dir, "pfs"), nvm.DRAM)
	if err != nil {
		return nil, err
	}
	devs := make([]*nvm.Device, ranks)
	for r := range devs {
		if devs[r], err = nvm.Open(filepath.Join(dir, fmt.Sprintf("nvm-g%d", r)), nvm.DRAM); err != nil {
			return nil, err
		}
	}
	net := simnet.EDRInfiniBand
	net.TimeScale = 0
	topo := mpi.Topology{
		Net: simnet.New(net),
		Shm: simnet.New(simnet.Config{Latency: 300, Bandwidth: 40e9, CongestionFactor: 0.02}),
	}
	w := mpi.NewWorld(ranks, topo)
	return &world{
		fabrics: []*simnet.Fabric{topo.Net, topo.Shm},
		run: func(fn func(rankCtx) error) error {
			return w.Run(func(c *mpi.Comm) error {
				rt, err := core.NewRuntime(core.Config{
					Comm: c, Device: devs[c.Rank()], PFS: pfs,
					GroupOf: func(r int) int { return r },
				})
				if err != nil {
					return err
				}
				return fn(rankCtx{rank: rt.Rank(), size: rt.Size(), open: rt.Open, barrier: c.Barrier})
			})
		},
	}, nil
}

// rankStats is what one rank measured in one repetition.
type rankStats struct {
	start, end time.Time // measured phase
	lat        [numOpKinds]hist
	slices     []slice
	ops        uint64 // measured operations completed
	attempted  uint64 // measured operations plus read-back gets
	failed     uint64
	dbDelta    map[string]uint64 // DB.Metrics().Snapshot() over the measured phase
	devDelta   nvm.Stats         // device activity over the measured phase
	devSetup   nvm.Stats         // device activity Open through the end of set-up
	devTotal   nvm.Stats         // device activity Open through Close
	onDevice   uint64            // bytes in the rank's device directory after Close
	setupBytes uint64            // key+value bytes put during set-up
	userBytes  uint64            // key+value bytes put, Open through Close
	liveBytes  uint64            // key+value bytes of distinct keys written
	openNs     int64
	spans      [][]span
}

// repStats is one repetition: one set-up, one measured phase, one read-back.
type repStats struct {
	setupS     float64
	wallS      float64
	sliceS     float64 // length of one time slice; 0 on a count-bound workload
	ranks      []rankStats
	meanHeap   uint64 // mean and peak of the heap-in-use samples
	peakHeap   uint64
	allocObjs  uint64
	allocBytes uint64
	msgs       uint64 // fabric messages over the measured phase (traced world only)
	netBytes   uint64
}

// rep is one repetition in progress: what every rank of it shares.
type rep struct {
	sp      *spec
	in      *inputs
	w       *world
	seed    uint64
	traced  bool
	quiesce time.Duration
	epoch   time.Time // set-up began; span times count from here
	stats   *repStats
}

// runRep performs one repetition of sp in a fresh directory.
func runRep(sp *spec, cfg runCfg, seed uint64, traced bool) (*repStats, error) {
	r := &rep{
		sp: sp, seed: seed, traced: traced, epoch: time.Now(),
		quiesce: time.Duration(float64(quiesceWindow) * min(cfg.scale, 1)),
		stats:   &repStats{ranks: make([]rankStats, sp.ranks)},
	}
	r.in = genInputs(sp, cfg, seed)
	dir, err := os.MkdirTemp(cfg.dir, sp.name+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	newWorld := clusterWorld
	if traced {
		newWorld = tracedWorld
	}
	if r.w, err = newWorld(sp.ranks, dir); err != nil {
		return nil, err
	}
	rs := r.stats
	if !sp.countBound() {
		rs.sliceS = r.in.duration.Seconds() / float64(r.in.slices)
	}
	if err := r.w.run(r.rankMain); err != nil {
		return nil, fmt.Errorf("%s: %w", sp.name, err)
	}
	first, last := rs.ranks[0].start, rs.ranks[0].end
	for i := range rs.ranks {
		st := &rs.ranks[i]
		if st.start.Before(first) {
			first = st.start
		}
		if st.end.After(last) {
			last = st.end
		}
		st.onDevice = dirBytes(filepath.Join(dir, fmt.Sprintf("nvm-g%d", i)))
	}
	rs.wallS = last.Sub(first).Seconds()
	return rs, nil
}

// dirBytes sums the sizes of the regular files under root.
func dirBytes(root string) (n uint64) {
	_ = filepath.WalkDir(root, func(_ string, d fs.DirEntry, err error) error {
		if err == nil && d.Type().IsRegular() {
			if info, err := d.Info(); err == nil {
				n += uint64(info.Size())
			}
		}
		return nil
	})
	return n
}

// rankMain is the SPMD program: set-up, measured phase, read-back, close.
// Every rank runs it; process-wide readings are taken by rank 0.
func (r *rep) rankMain(rc rankCtx) error {
	sp, in, rs, w, seed, traced, setupStart := r.sp, r.in, r.stats, r.w, r.seed, r.traced, r.epoch
	st := &rs.ranks[rc.rank]
	opt := papyruskv.DefaultOptions()
	opt.MemTableCapacity = memTableCapacity
	if sp.localCache > 0 {
		opt.LocalCacheCapacity = sp.localCache
	}
	t := time.Now()
	db, err := rc.open("bench", opt)
	if err != nil {
		return err
	}
	st.openNs = time.Since(t).Nanoseconds()
	dev := db.Runtime().Device()
	pairBytes := uint64(keyLen + sp.value)

	if in.perRank > 0 {
		if err := preload(sp, in, db, rc.rank); err != nil {
			return err
		}
		st.setupBytes = uint64(in.perRank) * pairBytes
		st.userBytes, st.liveBytes = st.setupBytes, st.setupBytes
		if err := db.Barrier(papyruskv.SSTableLevel); err != nil {
			return err
		}
		if err := waitQuiescent(db, r.quiesce); err != nil {
			return err
		}
	}
	if err := rc.barrier(); err != nil {
		return err
	}
	if rc.rank == 0 {
		rs.setupS = time.Since(setupStart).Seconds()
	}

	clients := make([]*client, sp.clients)
	for c := range clients {
		clients[c] = newClient(sp, in, db, rc.rank, c, seed, traced)
	}
	st.devSetup = dev.Stats()
	var wg sync.WaitGroup
	if in.warmup > 0 {
		deadline := time.Now().Add(in.warmup)
		for _, c := range clients {
			wg.Add(1)
			go func() {
				defer wg.Done()
				c.warm(deadline)
			}()
		}
		wg.Wait()
	}
	dbBefore, devBefore := db.Metrics().Snapshot(), dev.Stats()
	var proc *procSampler
	if rc.rank == 0 {
		proc = startProcSampler()
		for _, f := range w.fabrics {
			f.ResetStats()
		}
	}
	if err := rc.barrier(); err != nil {
		return err
	}
	st.start = time.Now()
	for _, c := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c.run(st.start, setupStart)
		}()
	}
	wg.Wait()
	// A put is done when its owner holds it: the count-bound workload
	// runs through its final SSTable barrier, the others through a fence
	// that delivers what relaxed mode still has staged.
	t = time.Now()
	kind := spFence
	if sp.countBound() {
		kind = spBarrierSST
		err = db.Barrier(papyruskv.SSTableLevel)
	} else {
		err = db.Fence()
	}
	st.end = time.Now()
	if err != nil {
		return err
	}
	if traced {
		clients[0].spans = append(clients[0].spans, span{start: t.Sub(setupStart).Nanoseconds(), dur: st.end.Sub(t).Nanoseconds(), kind: kind})
	}
	if err := rc.barrier(); err != nil {
		return err
	}
	if rc.rank == 0 {
		rs.meanHeap, rs.peakHeap, rs.allocObjs, rs.allocBytes = proc.stop()
		for _, f := range w.fabrics {
			m, b := f.Stats()
			rs.msgs += m
			rs.netBytes += b
		}
	}
	st.dbDelta = deltaMap(dbBefore, db.Metrics().Snapshot())
	st.devDelta = deltaStats(devBefore, dev.Stats())
	var inserted []int // per client: keys of its insert block now in the store
	for _, c := range clients {
		mergeLat(&st.lat, &c.lat)
		st.slices = mergeSlices(st.slices, c.slices)
		st.ops += c.ops
		st.attempted += c.ops + c.warmed
		st.failed += c.failed
		st.userBytes += c.puts * pairBytes
		inserted = append(inserted, min(c.gen.inserted, in.block))
		st.liveBytes += uint64(inserted[len(inserted)-1]) * pairBytes
		st.spans = append(st.spans, c.spans)
	}

	// Read-back: after a collective fence every rank must see every
	// written pair, whoever owns it.
	if err := db.Barrier(papyruskv.MemTableLevel); err != nil {
		return err
	}
	idxs := sampleWritten(sp, in, inserted, rc.rank, newRNG(seed, rc.rank, 1<<20))
	st.attempted += uint64(len(idxs))
	st.failed += uint64(readBack(db, in.keys, idxs, sp.value))

	t = time.Now()
	err = db.Close()
	st.devTotal = dev.Stats()
	if traced && rc.rank == 0 {
		st.spans = append(st.spans, []span{
			{start: 0, dur: time.Since(setupStart).Nanoseconds(), kind: spPhase},
			{start: t.Sub(setupStart).Nanoseconds(), dur: time.Since(t).Nanoseconds(), kind: spClose},
			{dur: st.openNs, kind: spOpen},
		})
	}
	return err
}

// preload writes one rank's slice of the preloaded keys with the
// workload's client count.
func preload(sp *spec, in *inputs, db *papyruskv.DB, rank int) error {
	errs := make([]error, sp.clients)
	var wg sync.WaitGroup
	for c := 0; c < sp.clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			val := newValuer(sp.value)
			var buf []byte
			for i := rank*in.perRank + c; i < (rank+1)*in.perRank; i += sp.clients {
				buf = val.fill(buf, i)
				if err := db.Put(in.keys[i], buf); err != nil {
					errs[c] = err
					return
				}
			}
		}()
	}
	wg.Wait()
	return errors.Join(errs...)
}

// waitQuiescent returns once the rank's LSM has stopped moving: no
// compaction finished and no device byte written for a whole window.
func waitQuiescent(db *papyruskv.DB, window time.Duration) error {
	dev := db.Runtime().Device()
	type state struct{ compactions, written uint64 }
	read := func() state {
		return state{db.Metrics().Compactions.Load(), dev.Stats().BytesWritten}
	}
	last, since := read(), time.Now()
	for limit := time.Now().Add(60 * time.Second); time.Now().Before(limit); {
		time.Sleep(window / 20)
		if cur := read(); cur != last {
			last, since = cur, time.Now()
		} else if time.Since(since) >= window {
			return nil
		}
	}
	return errors.New("store did not quiesce within 60 s of the preload")
}

// procSampler reads process-wide figures over the measured phase: heap in
// use, sampled every 20 ms, and the allocation totals.
type procSampler struct {
	stopCh chan struct{}
	done   chan struct{}
	// Written by the sampling goroutine, read after done is closed.
	heapSum, samples, peak uint64
	objs, size             uint64 // allocation totals when sampling began
}

var procMetrics = []string{
	"/memory/classes/heap/objects:bytes",
	"/memory/classes/heap/unused:bytes",
	"/gc/heap/allocs:objects",
	"/gc/heap/allocs:bytes",
}

func readProc() (heapInUse, objs, size uint64) {
	s := make([]metrics.Sample, len(procMetrics))
	for i, name := range procMetrics {
		s[i].Name = name
	}
	metrics.Read(s)
	return s[0].Value.Uint64() + s[1].Value.Uint64(), s[2].Value.Uint64(), s[3].Value.Uint64()
}

func (p *procSampler) sample() {
	heap, _, _ := readProc()
	p.heapSum += heap
	p.samples++
	p.peak = max(p.peak, heap)
}

func startProcSampler() *procSampler {
	p := &procSampler{stopCh: make(chan struct{}), done: make(chan struct{})}
	_, p.objs, p.size = readProc()
	go func() {
		defer close(p.done)
		tick := time.NewTicker(20 * time.Millisecond)
		defer tick.Stop()
		for {
			p.sample()
			select {
			case <-p.stopCh:
				return
			case <-tick.C:
			}
		}
	}()
	return p
}

// stop returns the mean and the peak of the heap samples and what was
// allocated while sampling.
func (p *procSampler) stop() (meanHeap, peakHeap, allocObjs, allocBytes uint64) {
	close(p.stopCh)
	<-p.done
	_, objs, size := readProc()
	return p.heapSum / p.samples, p.peak, objs - p.objs, size - p.size
}

func deltaMap(before, after map[string]uint64) map[string]uint64 {
	d := make(map[string]uint64, len(after))
	for k, v := range after {
		d[k] = v - before[k]
	}
	return d
}

func deltaStats(a, b nvm.Stats) nvm.Stats {
	return nvm.Stats{
		BytesRead: b.BytesRead - a.BytesRead, BytesWritten: b.BytesWritten - a.BytesWritten,
		Reads: b.Reads - a.Reads, Writes: b.Writes - a.Writes, Opens: b.Opens - a.Opens,
	}
}

func addStats(a, b nvm.Stats) nvm.Stats {
	return nvm.Stats{
		BytesRead: a.BytesRead + b.BytesRead, BytesWritten: a.BytesWritten + b.BytesWritten,
		Reads: a.Reads + b.Reads, Writes: a.Writes + b.Writes, Opens: a.Opens + b.Opens,
	}
}

// client is one closed-loop caller: it issues its next op only after the
// previous one returned.
type client struct {
	sp      *spec
	in      *inputs
	db      *papyruskv.DB
	rank    int
	gen     opGen
	val     *valuer
	buf     []byte // value being put
	want    []byte // value a read is compared against
	prev    []byte // previous key of the scan in progress
	insBase int
	traced  bool

	lat    [numOpKinds]hist
	slices []slice
	ops    uint64 // measured ops completed
	warmed uint64 // warm-up ops completed
	puts   uint64 // updates and inserts issued, warm-up included
	failed uint64
	spans  []span
}

func newClient(sp *spec, in *inputs, db *papyruskv.DB, rank, id int, seed uint64, traced bool) *client {
	c := &client{
		sp: sp, in: in, db: db, rank: rank, traced: traced,
		val:     newValuer(sp.value),
		insBase: in.blockBase(sp, rank, id),
		slices:  make([]slice, in.slices),
		gen: opGen{
			rng: newRNG(seed, rank, id), m: sp.mix,
			nAbsent: len(in.absent), nScan: in.nPre - scanLen,
		},
	}
	if in.nPre > 0 {
		c.gen.pick = uniform(in.nPre)
		if sp.zipf {
			c.gen.pick = scrambledZipf(in.nPre, zipfTheta)
		}
	}
	return c
}

// warm runs the client's op stream — checked, but neither timed nor
// counted as measured work — until the deadline, so that the measured
// phase starts with the caches as full as the workload keeps them.
func (c *client) warm(deadline time.Time) {
	for time.Now().Before(deadline) {
		if _, _, _, ok := c.do(c.gen.next()); !ok {
			c.failed++
		}
		c.warmed++
		if c.sp.fenceEvery > 0 && c.warmed%uint64(c.sp.fenceEvery) == 0 {
			if err := c.db.Fence(); err != nil {
				c.failed++
			}
		}
	}
}

// run issues ops until the measured phase's time is up, or until the
// client's share of a count-bound workload is done. An op belongs to the
// slice it completes in.
func (c *client) run(start, epoch time.Time) {
	sliceDur := c.in.duration / time.Duration(len(c.slices))
	if c.sp.countBound() {
		sliceDur = 1 << 62 // one slice, however long it takes
	}
	deadline := start.Add(c.in.duration)
	for {
		o := c.gen.next()
		kind, t0, t1, ok := c.do(o)
		c.lat[o.kind].add(t1.Sub(t0).Nanoseconds())
		c.ops++
		if i := int(t1.Sub(start) / sliceDur); i < len(c.slices) {
			c.slices[i].ops++
			if o.kind == c.sp.primary {
				c.slices[i].lat.add(t1.Sub(t0).Nanoseconds())
			}
		}
		if !ok {
			c.failed++
		}
		if c.traced {
			c.spans = append(c.spans, span{start: t0.Sub(epoch).Nanoseconds(), dur: t1.Sub(t0).Nanoseconds(), kind: kind})
		}
		if c.sp.fenceEvery > 0 && c.ops%uint64(c.sp.fenceEvery) == 0 {
			t0 := time.Now()
			if err := c.db.Fence(); err != nil {
				c.failed++
			}
			if c.traced {
				c.spans = append(c.spans, span{start: t0.Sub(epoch).Nanoseconds(), dur: time.Since(t0).Nanoseconds(), kind: spFence})
			}
		}
		if c.sp.countBound() {
			if c.ops == uint64(c.in.loadOps) {
				return
			}
		} else if !t1.Before(deadline) {
			return
		}
	}
}

// do performs one op, timing only the call into the store, and checks what
// came back. The span kind is worked out only on a traced run: it costs a
// key hash.
func (c *client) do(o op) (kind spanKind, t0, t1 time.Time, ok bool) {
	switch o.kind {
	case opGet, opAbsent:
		key := c.in.keys
		if o.kind == opAbsent {
			key = c.in.absent
		}
		k := key[o.key]
		if c.traced {
			kind = c.spanKind(o.kind, k)
		}
		t0 = time.Now()
		v, err := c.db.Get(k)
		t1 = time.Now()
		if o.kind == opAbsent {
			return kind, t0, t1, errors.Is(err, papyruskv.ErrNotFound)
		}
		c.want = c.val.fill(c.want, o.key)
		return kind, t0, t1, err == nil && bytes.Equal(v, c.want)
	case opUpdate, opInsert:
		idx := o.key
		if o.kind == opInsert {
			idx = c.insBase + o.key%c.in.block
		}
		k := c.in.keys[idx]
		c.buf = c.val.fill(c.buf, idx)
		c.puts++
		if c.traced {
			kind = c.spanKind(o.kind, k)
		}
		t0 = time.Now()
		err := c.db.Put(k, c.buf)
		t1 = time.Now()
		return kind, t0, t1, err == nil
	default: // opScan
		lo := c.in.keys[c.in.sorted[o.key]]
		hi := c.in.keys[c.in.sorted[o.key+scanLen]]
		n, good := 0, true
		c.prev = c.prev[:0]
		t0 = time.Now()
		err := c.db.Scan(context.Background(), lo, hi, func(k, v []byte) error {
			n++
			good = good && bytes.Compare(c.prev, k) < 0 && c.pairOK(k, v)
			c.prev = append(c.prev[:0], k...)
			return nil
		})
		t1 = time.Now()
		return spScan, t0, t1, err == nil && good && n >= scanLen
	}
}

// pairOK checks a scanned pair: the value's tag must name a key index
// whose key is k and whose full value is v.
func (c *client) pairOK(k, v []byte) bool {
	idx, ok := tagIndex(v)
	if !ok || idx >= len(c.in.keys) || !bytes.Equal(c.in.keys[idx], k) {
		return false
	}
	c.want = c.val.fill(c.want, idx)
	return bytes.Equal(v, c.want)
}

func (c *client) spanKind(k opKind, key []byte) spanKind {
	local := c.db.Owner(key) == c.rank
	switch {
	case k == opAbsent:
		return spGetMiss
	case k == opGet && local:
		return spGetLocal
	case k == opGet:
		return spGetRemote
	case local:
		return spPutLocal
	default:
		return spPutRemote
	}
}
