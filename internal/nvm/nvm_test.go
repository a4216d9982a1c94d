package nvm

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"
)

func testDev(t *testing.T) *Device {
	t.Helper()
	d, err := Open(t.TempDir(), DRAM)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestWriteReadFile(t *testing.T) {
	d := testDev(t)
	data := []byte("hello nvm")
	if err := d.WriteFile("sub/dir/file.dat", data); err != nil {
		t.Fatal(err)
	}
	got, err := d.ReadFile("sub/dir/file.dat")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatalf("ReadFile = %q", got)
	}
}

func TestReadMissing(t *testing.T) {
	d := testDev(t)
	if _, err := d.ReadFile("absent"); err == nil {
		t.Fatal("ReadFile(absent) succeeded")
	}
	if _, err := d.OpenFile("absent"); err == nil {
		t.Fatal("OpenFile(absent) succeeded")
	}
	if _, err := d.FileSize("absent"); err == nil {
		t.Fatal("FileSize(absent) succeeded")
	}
}

func TestEmptyFile(t *testing.T) {
	d := testDev(t)
	if err := d.WriteFile("empty", nil); err != nil {
		t.Fatal(err)
	}
	got, err := d.ReadFile("empty")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatalf("empty file read %d bytes", len(got))
	}
}

func TestRandomAccess(t *testing.T) {
	d := testDev(t)
	data := make([]byte, 4096)
	for i := range data {
		data[i] = byte(i)
	}
	if err := d.WriteFile("ra", data); err != nil {
		t.Fatal(err)
	}
	f, err := d.OpenFile("ra")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if f.Size() != 4096 {
		t.Fatalf("Size = %d", f.Size())
	}
	buf := make([]byte, 16)
	if _, err := f.ReadAt(buf, 1000); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, data[1000:1016]) {
		t.Fatal("ReadAt content mismatch")
	}
	// Read past EOF returns io.EOF with partial data.
	n, err := f.ReadAt(buf, 4090)
	if err != io.EOF || n != 6 {
		t.Fatalf("ReadAt past EOF = %d, %v", n, err)
	}
}

// TestReadAtAllocatesNothingUnarmed: with no injector armed, a random read
// builds no fault-site label. It is the per-block read of every SSTable get,
// so an allocation here is one per probe.
func TestReadAtAllocatesNothingUnarmed(t *testing.T) {
	d := testDev(t)
	if err := d.WriteFile("ra", make([]byte, 4096)); err != nil {
		t.Fatal(err)
	}
	f, err := d.OpenFile("ra")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	buf := make([]byte, 512)
	if allocs := testing.AllocsPerRun(100, func() {
		if _, err := f.ReadAt(buf, 1024); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Fatalf("ReadAt allocates %v times per call with no injector, want 0", allocs)
	}
}

// TestViewCharges: a view is charged exactly as the read it replaced — one
// device read of the bytes it hands out — and an extension only for the
// bytes it adds. The view aliases the mapping: two views of one range share
// their bytes.
func TestViewCharges(t *testing.T) {
	d := testDev(t)
	data := make([]byte, 8192)
	for i := range data {
		data[i] = byte(i * 7)
	}
	if err := d.WriteFile("v", data); err != nil {
		t.Fatal(err)
	}
	f, err := d.OpenFile("v")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	before := d.Stats()
	v, err := f.View(1000, 300)
	if err != nil || !bytes.Equal(v, data[1000:1300]) {
		t.Fatalf("View = %v, %v", len(v), err)
	}
	w, err := f.Extend(v[200:], 1300, 500)
	if err != nil || !bytes.Equal(w, data[1200:1800]) {
		t.Fatalf("Extend = %v, %v", len(w), err)
	}
	after := d.Stats()
	if reads, read := after.Reads-before.Reads, after.BytesRead-before.BytesRead; reads != 2 || read != 800 {
		t.Errorf("a view and an extension charged %d reads of %d bytes, want 2 of 800", reads, read)
	}
	if &w[0] != &v[200] {
		t.Error("the extension does not alias the view it extends")
	}
	if _, err := f.View(8000, 200); err == nil {
		t.Error("a view past the end of the file succeeded")
	}
	if allocs := testing.AllocsPerRun(100, func() {
		if _, err := f.View(1024, 512); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("View allocates %v times per call with no injector, want 0", allocs)
	}
}

// TestFileCloseTwiceUnmapsOnce: the second Close of a file is a no-op. Were
// it to unmap again, it would unmap whatever later mapping reuses the
// address range — here another file, opened between the two Closes, whose
// next read would then fault and kill the process.
func TestFileCloseTwiceUnmapsOnce(t *testing.T) {
	d := testDev(t)
	data := bytes.Repeat([]byte("mapped"), 20000)
	for _, name := range []string{"a", "b"} {
		if err := d.WriteFile(name, data); err != nil {
			t.Fatal(err)
		}
	}
	a, err := d.OpenFile("a")
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	b, err := d.OpenFile("b")
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	if &a.m[0] != &b.m[0] {
		t.Log("the second mapping did not reuse the first one's address range")
	}
	if err := a.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	v, err := b.View(0, len(data))
	if err != nil || !bytes.Equal(v, data) {
		t.Fatalf("the other file after a double Close: %v", err)
	}
	if _, err := a.View(0, 1); err == nil {
		t.Error("a view of a closed file succeeded")
	}
}

func TestWriterStreamAndAtomicity(t *testing.T) {
	d := testDev(t)
	w, err := d.Create("streamed")
	if err != nil {
		t.Fatal(err)
	}
	if d.Exists("streamed") {
		t.Fatal("file visible before Close")
	}
	w.Write([]byte("part1-"))
	w.Write([]byte("part2"))
	if w.Size() != 11 {
		t.Fatalf("Writer.Size = %d", w.Size())
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	got, _ := d.ReadFile("streamed")
	if string(got) != "part1-part2" {
		t.Fatalf("streamed = %q", got)
	}
}

func TestWriterAbort(t *testing.T) {
	d := testDev(t)
	w, _ := d.Create("aborted")
	w.Write([]byte("junk"))
	w.Abort()
	if d.Exists("aborted") {
		t.Fatal("aborted file exists")
	}
	files, _ := d.List(".")
	if len(files) != 0 {
		t.Fatalf("leftover files: %v", files)
	}
}

func TestListSortedAndSkipsTmp(t *testing.T) {
	d := testDev(t)
	d.WriteFile("db/b.sst", []byte("b"))
	d.WriteFile("db/a.sst", []byte("a"))
	d.WriteFile("db/nested/c.sst", []byte("c"))
	w, _ := d.Create("db/partial.sst") // leaves a .tmp
	defer w.Abort()
	files, err := d.List("db")
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"db/a.sst", "db/b.sst", "db/nested/c.sst"}
	if len(files) != len(want) {
		t.Fatalf("List = %v", files)
	}
	for i := range want {
		if files[i] != want[i] {
			t.Fatalf("List[%d] = %q, want %q", i, files[i], want[i])
		}
	}
}

func TestListMissingPrefix(t *testing.T) {
	d := testDev(t)
	files, err := d.List("nothere")
	if err != nil || len(files) != 0 {
		t.Fatalf("List(nothere) = %v, %v", files, err)
	}
}

func TestRemove(t *testing.T) {
	d := testDev(t)
	d.WriteFile("x", []byte("x"))
	if err := d.Remove("x"); err != nil {
		t.Fatal(err)
	}
	if d.Exists("x") {
		t.Fatal("removed file exists")
	}
	if err := d.Remove("x"); err != nil {
		t.Fatal("double remove errored")
	}
}

func TestTrim(t *testing.T) {
	d := testDev(t)
	d.WriteFile("a/b", []byte("1"))
	d.WriteFile("c", []byte("2"))
	if err := d.Trim(); err != nil {
		t.Fatal(err)
	}
	files, _ := d.List(".")
	if len(files) != 0 {
		t.Fatalf("Trim left %v", files)
	}
	// Device still usable after trim.
	if err := d.WriteFile("new", []byte("3")); err != nil {
		t.Fatal(err)
	}
}

func TestStats(t *testing.T) {
	d := testDev(t)
	d.WriteFile("s", make([]byte, 100))
	d.ReadFile("s")
	st := d.Stats()
	if st.BytesWritten != 100 || st.BytesRead != 100 {
		t.Fatalf("Stats = %+v", st)
	}
	if st.Opens < 2 || st.Reads < 1 || st.Writes < 1 {
		t.Fatalf("Stats = %+v", st)
	}
}

func TestCopyBetweenDevices(t *testing.T) {
	src := testDev(t)
	dst := testDev(t)
	src.WriteFile("snap/file1", []byte("checkpoint-data"))
	if err := Copy(dst, "restored/file1", src, "snap/file1"); err != nil {
		t.Fatal(err)
	}
	got, err := dst.ReadFile("restored/file1")
	if err != nil || string(got) != "checkpoint-data" {
		t.Fatalf("Copy result = %q, %v", got, err)
	}
}

func TestModelDelaysApplied(t *testing.T) {
	model := PerfModel{Name: "slow", ReadLatency: 2 * time.Millisecond, WriteLatency: 2 * time.Millisecond, TimeScale: 1}
	d, err := Open(t.TempDir(), model)
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	d.WriteFile("f", []byte("x"))
	if time.Since(start) < time.Millisecond {
		t.Fatal("write latency not applied")
	}
	start = time.Now()
	d.ReadFile("f")
	if time.Since(start) < time.Millisecond {
		t.Fatal("read latency not applied")
	}
}

func TestNVMvsLustreLatencyRatio(t *testing.T) {
	// The core Figure-6 property: random reads on the NVMe profile are
	// much faster than on the Lustre profile at the same scale.
	scale := 0.05
	nv, _ := Open(t.TempDir(), NVMe.Scaled(scale))
	lu, _ := Open(t.TempDir(), Lustre.Scaled(scale))
	payload := make([]byte, 4096)
	nv.WriteFile("f", payload)
	lu.WriteFile("f", payload)

	probe := func(d *Device) time.Duration {
		f, err := d.OpenFile("f")
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		buf := make([]byte, 64)
		start := time.Now()
		for i := 0; i < 20; i++ {
			f.ReadAt(buf, int64(i*64))
		}
		return time.Since(start)
	}
	tn, tl := probe(nv), probe(lu)
	if tl < tn*5 {
		t.Fatalf("Lustre random reads (%v) not ≫ NVMe (%v)", tl, tn)
	}
}

func TestStripeSharingUnderConcurrency(t *testing.T) {
	// With Stripes=4, four concurrent streams should take much less than
	// 4x the single-stream time for bandwidth-bound transfers.
	model := PerfModel{Name: "striped", WriteBandwidth: 200e6, Stripes: 4, TimeScale: 1}
	d, err := Open(t.TempDir(), model)
	if err != nil {
		t.Fatal(err)
	}
	payload := make([]byte, 1<<20) // 5ms serialisation at 200MB/s
	start := time.Now()
	d.WriteFile("single", payload)
	single := time.Since(start)

	var wg sync.WaitGroup
	start = time.Now()
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			d.WriteFile(filepath.Join("multi", string(rune('a'+i))), payload)
		}(i)
	}
	wg.Wait()
	parallel := time.Since(start)
	if parallel > single*3 {
		t.Fatalf("4 striped writers took %v vs single %v — striping not parallel", parallel, single)
	}
}

func TestScaledProfile(t *testing.T) {
	m := Lustre.Scaled(0.5)
	if m.TimeScale != 0.5 || m.Name != "lustre" {
		t.Fatalf("Scaled = %+v", m)
	}
	if Lustre.TimeScale != 1 {
		t.Fatal("Scaled mutated the source profile")
	}
}

func TestConcurrentDeviceUse(t *testing.T) {
	d := testDev(t)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			name := filepath.Join("c", string(rune('a'+g)))
			for i := 0; i < 50; i++ {
				if err := d.WriteFile(name, []byte{byte(i)}); err != nil {
					t.Error(err)
					return
				}
				if _, err := d.ReadFile(name); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

func TestOpenBadDir(t *testing.T) {
	// A file where the device directory should be.
	base := t.TempDir()
	blocker := filepath.Join(base, "file")
	if err := os.WriteFile(blocker, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(filepath.Join(blocker, "sub"), DRAM); err == nil {
		t.Fatal("Open under a regular file succeeded")
	}
}

func TestCopyMissingSource(t *testing.T) {
	src := testDev(t)
	dst := testDev(t)
	if err := Copy(dst, "out", src, "missing"); err == nil {
		t.Fatal("Copy of missing source succeeded")
	}
}

func TestRemoveAllAndReuse(t *testing.T) {
	d := testDev(t)
	d.WriteFile("tree/a/b", []byte("1"))
	d.WriteFile("tree/c", []byte("2"))
	d.WriteFile("keep", []byte("3"))
	if err := d.RemoveAll("tree"); err != nil {
		t.Fatal(err)
	}
	if d.Exists("tree/c") {
		t.Fatal("RemoveAll left files")
	}
	if !d.Exists("keep") {
		t.Fatal("RemoveAll removed unrelated files")
	}
	if err := d.RemoveAll("tree"); err != nil {
		t.Fatal("RemoveAll of missing subtree errored")
	}
}

func TestFileSizeAndExists(t *testing.T) {
	d := testDev(t)
	d.WriteFile("f", make([]byte, 321))
	sz, err := d.FileSize("f")
	if err != nil || sz != 321 {
		t.Fatalf("FileSize = %d, %v", sz, err)
	}
	if !d.Exists("f") || d.Exists("g") {
		t.Fatal("Exists wrong")
	}
}

func TestModelAccessors(t *testing.T) {
	d := testDev(t)
	if d.Model().Name != "dram" {
		t.Fatalf("Model = %+v", d.Model())
	}
	if d.Dir() == "" {
		t.Fatal("Dir empty")
	}
}
