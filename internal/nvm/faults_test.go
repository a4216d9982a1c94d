package nvm

import (
	"errors"
	"testing"

	"papyruskv/internal/faults"
)

// Device-level fault injection: the NVM failure domain must surface injected
// write errors, silently tear writes, and flip bits on reads — exactly the
// media behaviour the checksum layer above is built to catch.

func TestInjectWriteError(t *testing.T) {
	d, err := Open(t.TempDir(), DRAM)
	if err != nil {
		t.Fatal(err)
	}
	d.InjectFaults(faults.New(1).
		Enable(faults.Rule{Point: faults.NVMWriteError, Rank: faults.AnyRank, Count: 1}))
	err = d.WriteFile("f", []byte("data"))
	if !errors.Is(err, faults.ErrInjected) {
		t.Fatalf("err = %v, want ErrInjected", err)
	}
	if d.Exists("f") {
		t.Fatal("failed write published the file")
	}
	// One-shot rule: the next write succeeds.
	if err := d.WriteFile("f", []byte("data")); err != nil {
		t.Fatalf("second write failed: %v", err)
	}
}

func TestInjectNoSpace(t *testing.T) {
	d, err := Open(t.TempDir(), DRAM)
	if err != nil {
		t.Fatal(err)
	}
	d.InjectFaults(faults.New(1).
		Enable(faults.Rule{Point: faults.NVMWriteNoSpace, Rank: faults.AnyRank, Count: 1}))
	w, err := d.Create("f")
	if err != nil {
		t.Fatal(err)
	}
	defer w.Abort()
	if _, err := w.Write([]byte("data")); !errors.Is(err, faults.ErrNoSpace) {
		t.Fatalf("err = %v, want ErrNoSpace", err)
	}
}

func TestInjectTornWrite(t *testing.T) {
	d, err := Open(t.TempDir(), DRAM)
	if err != nil {
		t.Fatal(err)
	}
	data := make([]byte, 1000)
	for i := range data {
		data[i] = byte(i)
	}
	d.InjectFaults(faults.New(1).
		Enable(faults.Rule{Point: faults.NVMTornWrite, Rank: faults.AnyRank, Count: 1}))
	// The torn write reports success — that is the point.
	if err := d.WriteFile("f", data); err != nil {
		t.Fatal(err)
	}
	got, err := d.ReadFile("f")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) >= len(data) {
		t.Fatalf("torn write kept %d of %d bytes", len(got), len(data))
	}
}

func TestInjectReadBitFlip(t *testing.T) {
	d, err := Open(t.TempDir(), DRAM)
	if err != nil {
		t.Fatal(err)
	}
	data := make([]byte, 64)
	if err := d.WriteFile("f", data); err != nil {
		t.Fatal(err)
	}
	d.InjectFaults(faults.New(1).
		Enable(faults.Rule{Point: faults.NVMReadBitFlip, Rank: faults.AnyRank, Count: 1, Fires: 2}))
	got, err := d.ReadFile("f")
	if err != nil {
		t.Fatal(err)
	}
	diff := 0
	for i := range got {
		if got[i] != data[i] {
			diff++
		}
	}
	if diff != 1 {
		t.Fatalf("ReadFile: %d corrupted bytes, want 1", diff)
	}
	// Random-access reads flip too.
	f, err := d.OpenFile("f")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	buf := make([]byte, 64)
	if _, err := f.ReadAt(buf, 0); err != nil {
		t.Fatal(err)
	}
	diff = 0
	for i := range buf {
		if buf[i] != data[i] {
			diff++
		}
	}
	if diff != 1 {
		t.Fatalf("ReadAt: %d corrupted bytes, want 1", diff)
	}
}

// TestViewBitFlipIsPrivate: an armed NVMReadBitFlip reaches in-place reads
// — the view holds the flipped bit — but the view is a private copy, so the
// flip never touches the shared mapping: an unarmed view of the same bytes
// reads clean, and extending the flipped view keeps its flip.
func TestViewBitFlipIsPrivate(t *testing.T) {
	d, err := Open(t.TempDir(), DRAM)
	if err != nil {
		t.Fatal(err)
	}
	data := make([]byte, 4096)
	if err := d.WriteFile("f", data); err != nil {
		t.Fatal(err)
	}
	f, err := d.OpenFile("f")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	diff := func(got, want []byte) int {
		n := 0
		for i := range got {
			if got[i] != want[i] {
				n++
			}
		}
		return n
	}
	d.InjectFaults(faults.New(1).
		Enable(faults.Rule{Point: faults.NVMReadBitFlip, Rank: faults.AnyRank, Count: 1, Fires: 1}))
	flipped, err := f.View(0, 2048)
	if err != nil {
		t.Fatal(err)
	}
	if n := diff(flipped, data[:2048]); n != 1 {
		t.Fatalf("armed view: %d corrupted bytes, want 1", n)
	}
	d.InjectFaults(nil)
	clean, err := f.View(0, 2048)
	if err != nil {
		t.Fatal(err)
	}
	if n := diff(clean, data[:2048]); n != 0 {
		t.Fatalf("unarmed view of the same bytes: %d corrupted bytes, want 0: the flip reached the mapping", n)
	}
	grown, err := f.Extend(flipped, 2048, 2048)
	if err != nil {
		t.Fatal(err)
	}
	if n := diff(grown, data); n != 1 || diff(grown[:2048], flipped) != 0 {
		t.Fatalf("extended flipped view: %d corrupted bytes, want the one it carried", n)
	}
}

func TestWhereFilterTargetsOneDevice(t *testing.T) {
	d0, _ := Open(t.TempDir()+"/nvm-g0", DRAM)
	d1, _ := Open(t.TempDir()+"/nvm-g1", DRAM)
	inj := faults.New(1).
		Enable(faults.Rule{Point: faults.NVMWriteError, Rank: faults.AnyRank, Where: "nvm-g0", Count: 1})
	d0.InjectFaults(inj)
	d1.InjectFaults(inj)
	if err := d1.WriteFile("f", nil); err != nil {
		t.Fatalf("untargeted device failed: %v", err)
	}
	if err := d0.WriteFile("f", nil); !errors.Is(err, faults.ErrInjected) {
		t.Fatalf("targeted device err = %v, want ErrInjected", err)
	}
}
