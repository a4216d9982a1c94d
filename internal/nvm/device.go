package nvm

import (
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync/atomic"
	"syscall"

	"papyruskv/internal/faults"
)

// ErrNoSpace is the typed full-device sentinel: every write path maps an
// organic ENOSPC from the operating system to it, and the injected
// NVMWriteNoSpace fault wraps it too, so callers match one sentinel for
// "the device is full" regardless of how it happened. WAL appends are the
// first writers to hit it on a filling device; the owning rank's Health()
// then reports it as the root cause.
var ErrNoSpace = errors.New("nvm: no space left on device")

// wrapErr maps an OS-level write error to the package's typed sentinels:
// ENOSPC becomes ErrNoSpace, everything else is wrapped verbatim.
func wrapErr(err error) error {
	if errors.Is(err, syscall.ENOSPC) {
		return fmt.Errorf("%w: %v", ErrNoSpace, err)
	}
	return fmt.Errorf("nvm: %w", err)
}

// Device is one NVM storage target rooted at a directory. All ranks of a
// storage group share a single Device instance, which is what makes their
// SSTables directly readable by each other (§2.7); every operation is
// charged to the device's performance model. Device is safe for concurrent
// use.
type Device struct {
	dir string
	th  throttle
	inj *faults.Injector

	bytesRead    atomic.Uint64
	bytesWritten atomic.Uint64
	reads        atomic.Uint64
	writes       atomic.Uint64
	opens        atomic.Uint64
}

// Open creates (if needed) and returns the device rooted at dir.
func Open(dir string, model PerfModel) (*Device, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("nvm: open device %s: %w", dir, err)
	}
	return &Device{dir: dir, th: throttle{model: model}}, nil
}

// Dir returns the device root directory.
func (d *Device) Dir() string { return d.dir }

// InjectFaults arms the device's NVM injection points (NVMWriteError,
// NVMWriteNoSpace, NVMTornWrite, NVMReadBitFlip). A nil injector disarms
// them. The device reports faults.AnyRank — a device is shared by its whole
// storage group — and its root directory as the Site.Where label, so rules
// can target one device in a multi-group cluster.
func (d *Device) InjectFaults(inj *faults.Injector) { d.inj = inj }

// site is the fault-injection site descriptor of this device. name, when
// non-empty, is the device-relative file being accessed; including it in the
// Where label lets rules target one file class (e.g. Where: "wal") on a
// device shared by SSTables, snapshots, and WAL segments alike.
func (d *Device) site(name string) faults.Site {
	where := d.dir
	if name != "" {
		where = d.dir + "/" + name
	}
	return faults.Site{Rank: faults.AnyRank, Tag: faults.AnyTag, Where: where}
}

// eval evaluates injection point p for an access to the device-relative file
// name. The site label is a string built per call, so it is built only while
// an injector is armed: an unarmed device's reads and writes allocate nothing
// for fault injection.
func (d *Device) eval(p faults.Point, name string) faults.Decision {
	if d.inj == nil {
		return faults.Decision{}
	}
	return d.inj.Eval(p, d.site(name))
}

// Model returns the device performance model.
func (d *Device) Model() PerfModel { return d.th.model }

func (d *Device) path(name string) string { return filepath.Join(d.dir, filepath.FromSlash(name)) }

// WriteFile atomically creates or replaces name with data, charging one open
// plus one write per 1MB chunk (modelling request-sized transfers).
func (d *Device) WriteFile(name string, data []byte) error {
	d.th.open()
	d.opens.Add(1)
	if err := d.injectWriteFault(name); err != nil {
		return err
	}
	// A torn write keeps only a prefix of data but still "succeeds": the
	// damage is silent until a checksum catches it.
	if dec := d.eval(faults.NVMTornWrite, name); dec.Fire {
		data = data[:dec.TearAt(len(data))]
	}
	p := d.path(name)
	if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
		return wrapErr(err)
	}
	tmp := p + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return wrapErr(err)
	}
	const chunk = 1 << 20
	for off := 0; off < len(data); off += chunk {
		end := off + chunk
		if end > len(data) {
			end = len(data)
		}
		d.th.write(end - off)
		d.writes.Add(1)
		if _, err := f.Write(data[off:end]); err != nil {
			f.Close()
			os.Remove(tmp)
			return wrapErr(err)
		}
	}
	if len(data) == 0 {
		d.th.write(0)
		d.writes.Add(1)
	}
	d.bytesWritten.Add(uint64(len(data)))
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return wrapErr(err)
	}
	if err := os.Rename(tmp, p); err != nil {
		os.Remove(tmp)
		return wrapErr(err)
	}
	return nil
}

// ReadFile returns the full contents of name as one sequential read.
func (d *Device) ReadFile(name string) ([]byte, error) {
	d.th.open()
	d.opens.Add(1)
	data, err := os.ReadFile(d.path(name))
	if err != nil {
		return nil, fmt.Errorf("nvm: %w", err)
	}
	const chunk = 1 << 20
	for off := 0; off < len(data); off += chunk {
		end := off + chunk
		if end > len(data) {
			end = len(data)
		}
		d.th.read(end - off)
		d.reads.Add(1)
	}
	if len(data) == 0 {
		d.th.read(0)
		d.reads.Add(1)
	}
	d.bytesRead.Add(uint64(len(data)))
	if dec := d.eval(faults.NVMReadBitFlip, name); dec.Fire {
		dec.FlipBit(data)
	}
	return data, nil
}

// injectWriteFault evaluates the hard-failure write points for a write to
// the device-relative file name.
func (d *Device) injectWriteFault(name string) error {
	if d.eval(faults.NVMWriteError, name).Fire {
		return fmt.Errorf("nvm: %s: %w: write error", d.dir, faults.ErrInjected)
	}
	if d.eval(faults.NVMWriteNoSpace, name).Fire {
		// The injected full-device error carries both identities: it is an
		// ENOSPC (ErrNoSpace) and it was injected (faults.ErrNoSpace wraps
		// faults.ErrInjected).
		return fmt.Errorf("nvm: %s: %w: %w", d.dir, ErrNoSpace, faults.ErrNoSpace)
	}
	return nil
}

// File is an open random-access handle, used by SSTable binary search. Each
// ReadAt pays one device read operation — the cost structure that makes
// binary search a win on NVM and a loss on Lustre.
type File struct {
	dev  *Device
	f    *os.File
	name string
	sz   int64
}

// OpenFile opens name for random-access reads, charging the open latency.
func (d *Device) OpenFile(name string) (*File, error) {
	d.th.open()
	d.opens.Add(1)
	f, err := os.Open(d.path(name))
	if err != nil {
		return nil, fmt.Errorf("nvm: %w", err)
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("nvm: %w", err)
	}
	return &File{dev: d, f: f, name: name, sz: st.Size()}, nil
}

// Size returns the file size in bytes.
func (f *File) Size() int64 { return f.sz }

// ReadAt reads len(p) bytes at offset off as one random-access operation.
func (f *File) ReadAt(p []byte, off int64) (int, error) {
	f.dev.th.read(len(p))
	f.dev.reads.Add(1)
	f.dev.bytesRead.Add(uint64(len(p)))
	n, err := f.f.ReadAt(p, off)
	if err != nil && err != io.EOF {
		return n, fmt.Errorf("nvm: %w", err)
	}
	if dec := f.dev.eval(faults.NVMReadBitFlip, f.name); dec.Fire {
		dec.FlipBit(p[:n])
	}
	return n, err
}

// Close releases the handle.
func (f *File) Close() error { return f.f.Close() }

// Writer streams a new file onto the device; the compaction thread uses it
// to write SSTables chunk by chunk. Close makes the file visible atomically.
type Writer struct {
	dev  *Device
	name string
	tmp  string
	dst  string
	f    *os.File
	size int64
}

// Create begins writing name, charging the open latency.
func (d *Device) Create(name string) (*Writer, error) {
	d.th.open()
	d.opens.Add(1)
	p := d.path(name)
	if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
		return nil, wrapErr(err)
	}
	tmp := p + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return nil, wrapErr(err)
	}
	return &Writer{dev: d, name: name, tmp: tmp, dst: p, f: f}, nil
}

// Write appends p as one device write operation.
func (w *Writer) Write(p []byte) (int, error) {
	w.dev.th.write(len(p))
	w.dev.writes.Add(1)
	w.dev.bytesWritten.Add(uint64(len(p)))
	if err := w.dev.injectWriteFault(w.name); err != nil {
		return 0, err
	}
	n, err := w.f.Write(p)
	w.size += int64(n)
	if err != nil {
		return n, wrapErr(err)
	}
	return n, nil
}

// Size returns the bytes written so far.
func (w *Writer) Size() int64 { return w.size }

// Close finishes the file and publishes it under its final name.
func (w *Writer) Close() error {
	// A torn streaming write truncates the already-written file before it
	// is published; Close still reports success.
	if dec := w.dev.eval(faults.NVMTornWrite, w.name); dec.Fire && w.size > 0 {
		_ = w.f.Truncate(int64(dec.TearAt(int(w.size))))
	}
	if err := w.f.Close(); err != nil {
		os.Remove(w.tmp)
		return wrapErr(err)
	}
	if err := os.Rename(w.tmp, w.dst); err != nil {
		os.Remove(w.tmp)
		return wrapErr(err)
	}
	return nil
}

// Abort discards the partially written file.
func (w *Writer) Abort() {
	w.f.Close()
	os.Remove(w.tmp)
}

// Appender is an open append-only handle; the write-ahead log uses it to
// grow a segment record by record. Unlike Writer, the file is visible under
// its final name from the first byte — a crash leaves the prefix written so
// far, which is exactly the durability contract a WAL needs.
type Appender struct {
	dev  *Device
	name string
	f    *os.File
	size int64
}

// OpenAppend opens name for appending, creating it (and parent directories)
// if needed, charging the open latency. An existing file is extended, which
// is how a reopened database continues a surviving segment's epoch chain.
func (d *Device) OpenAppend(name string) (*Appender, error) {
	d.th.open()
	d.opens.Add(1)
	p := d.path(name)
	if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
		return nil, wrapErr(err)
	}
	f, err := os.OpenFile(p, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, wrapErr(err)
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, wrapErr(err)
	}
	return &Appender{dev: d, name: name, f: f, size: st.Size()}, nil
}

// Append writes p at the end of the file as one device write operation.
func (a *Appender) Append(p []byte) error {
	a.dev.th.write(len(p))
	a.dev.writes.Add(1)
	a.dev.bytesWritten.Add(uint64(len(p)))
	if err := a.dev.injectWriteFault(a.name); err != nil {
		return err
	}
	n, err := a.f.Write(p)
	a.size += int64(n)
	if err != nil {
		return wrapErr(err)
	}
	return nil
}

// Truncate cuts the file to n bytes; replay uses it to drop a torn tail.
func (a *Appender) Truncate(n int64) error {
	if err := a.f.Truncate(n); err != nil {
		return wrapErr(err)
	}
	a.size = n
	return nil
}

// Sync flushes the appended bytes to stable storage.
func (a *Appender) Sync() error {
	if err := a.f.Sync(); err != nil {
		return wrapErr(err)
	}
	return nil
}

// Size returns the file size in bytes.
func (a *Appender) Size() int64 { return a.size }

// Close releases the handle without syncing.
func (a *Appender) Close() error {
	if err := a.f.Close(); err != nil {
		return wrapErr(err)
	}
	return nil
}

// Remove deletes name. Removing a missing file is not an error (compaction
// may race with checkpoint cleanup).
func (d *Device) Remove(name string) error {
	err := os.Remove(d.path(name))
	if err != nil && !os.IsNotExist(err) {
		return fmt.Errorf("nvm: %w", err)
	}
	return nil
}

// Rename atomically moves oldName to newName within the device, creating
// newName's parent directory if needed, then fsyncs the affected parent
// directories so the rename itself survives a crash — the commit step of
// every temp-file → fsync → rename publication on the device.
func (d *Device) Rename(oldName, newName string) error {
	op, np := d.path(oldName), d.path(newName)
	if err := os.MkdirAll(filepath.Dir(np), 0o755); err != nil {
		return wrapErr(err)
	}
	if err := os.Rename(op, np); err != nil {
		return wrapErr(err)
	}
	if err := syncOSDir(filepath.Dir(np)); err != nil {
		return err
	}
	if filepath.Dir(op) != filepath.Dir(np) {
		return syncOSDir(filepath.Dir(op))
	}
	return nil
}

// SyncDir fsyncs the directory name (device-relative), making previously
// completed unlinks and renames inside it durable. Callers that must not
// resurrect a half-removed file after a crash — SSTable deletion, orphan
// quarantine — call it once after their batch of namespace operations.
func (d *Device) SyncDir(name string) error {
	return syncOSDir(d.path(name))
}

// syncOSDir fsyncs one directory by absolute OS path. A missing directory is
// not an error: the namespace operations being made durable may have emptied
// and removed it already.
func syncOSDir(p string) error {
	f, err := os.Open(p)
	if err != nil {
		if os.IsNotExist(err) {
			return nil
		}
		return wrapErr(err)
	}
	defer f.Close()
	if err := f.Sync(); err != nil {
		return wrapErr(err)
	}
	return nil
}

// Exists reports whether name is present.
func (d *Device) Exists(name string) bool {
	_, err := os.Stat(d.path(name))
	return err == nil
}

// FileSize returns the size of name in bytes.
func (d *Device) FileSize(name string) (int64, error) {
	st, err := os.Stat(d.path(name))
	if err != nil {
		return 0, fmt.Errorf("nvm: %w", err)
	}
	return st.Size(), nil
}

// List returns the device-relative names of all files under prefix (a
// directory path within the device), sorted, recursing into subdirectories.
func (d *Device) List(prefix string) ([]string, error) {
	root := d.path(prefix)
	var out []string
	err := filepath.Walk(root, func(p string, info os.FileInfo, err error) error {
		if err != nil {
			if os.IsNotExist(err) {
				return nil
			}
			return err
		}
		if info.IsDir() || strings.HasSuffix(p, ".tmp") {
			return nil
		}
		rel, err := filepath.Rel(d.dir, p)
		if err != nil {
			return err
		}
		out = append(out, filepath.ToSlash(rel))
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("nvm: %w", err)
	}
	sort.Strings(out)
	return out, nil
}

// RemoveAll deletes the subtree under prefix.
func (d *Device) RemoveAll(prefix string) error {
	if err := os.RemoveAll(d.path(prefix)); err != nil {
		return fmt.Errorf("nvm: %w", err)
	}
	return nil
}

// Trim wipes the entire device, modelling the scratch-space trim HPC
// centres apply between jobs (§4).
func (d *Device) Trim() error {
	entries, err := os.ReadDir(d.dir)
	if err != nil {
		return fmt.Errorf("nvm: %w", err)
	}
	for _, e := range entries {
		if err := os.RemoveAll(filepath.Join(d.dir, e.Name())); err != nil {
			return fmt.Errorf("nvm: %w", err)
		}
	}
	return nil
}

// Stats reports cumulative device activity.
type Stats struct {
	BytesRead, BytesWritten uint64
	Reads, Writes, Opens    uint64
}

// Stats returns cumulative counters.
func (d *Device) Stats() Stats {
	return Stats{
		BytesRead:    d.bytesRead.Load(),
		BytesWritten: d.bytesWritten.Load(),
		Reads:        d.reads.Load(),
		Writes:       d.writes.Load(),
		Opens:        d.opens.Load(),
	}
}

// Copy moves src's file srcName to dst as dstName, paying read costs on src
// and write costs on dst. Checkpoint and restart use it to move SSTables
// between NVM and the parallel file system.
func Copy(dst *Device, dstName string, src *Device, srcName string) error {
	_, _, err := CopySum(dst, dstName, src, srcName)
	return err
}

// copyCRCTable is the Castagnoli polynomial, matching the SSTable checksums.
var copyCRCTable = crc32.MakeTable(crc32.Castagnoli)

// CopySum is Copy plus an integrity fingerprint: it returns the size and
// CRC32C of the bytes read from the source. Checkpoint records the pair in
// the snapshot manifest; restart recomputes it on the way back and compares.
func CopySum(dst *Device, dstName string, src *Device, srcName string) (int64, uint32, error) {
	data, err := src.ReadFile(srcName)
	if err != nil {
		return 0, 0, err
	}
	if err := dst.WriteFile(dstName, data); err != nil {
		return 0, 0, err
	}
	return int64(len(data)), crc32.Checksum(data, copyCRCTable), nil
}
