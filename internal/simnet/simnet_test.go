package simnet

import (
	"sync"
	"testing"
	"time"
)

func TestNoDelayFabric(t *testing.T) {
	f := New(NoDelay)
	start := time.Now()
	for i := 0; i < 1000; i++ {
		f.Transfer(1 << 20)
	}
	if elapsed := time.Since(start); elapsed > 100*time.Millisecond {
		t.Fatalf("NoDelay fabric took %v for 1000 transfers", elapsed)
	}
	msgs, bytes := f.Stats()
	if msgs != 1000 || bytes != 1000<<20 {
		t.Fatalf("Stats = %d msgs, %d bytes", msgs, bytes)
	}
}

func TestLatencyApplied(t *testing.T) {
	f := New(Config{Latency: 200 * time.Microsecond, TimeScale: 1})
	start := time.Now()
	f.Transfer(0)
	if elapsed := time.Since(start); elapsed < 150*time.Microsecond {
		t.Fatalf("transfer returned in %v, want >= ~200µs", elapsed)
	}
}

func TestBandwidthApplied(t *testing.T) {
	// 1 MB at 1 GB/s = 1 ms serialisation.
	f := New(Config{Bandwidth: 1e9, TimeScale: 1})
	start := time.Now()
	f.Transfer(1 << 20)
	elapsed := time.Since(start)
	if elapsed < 800*time.Microsecond {
		t.Fatalf("1MB at 1GB/s took %v, want ~1ms", elapsed)
	}
}

func TestTimeScale(t *testing.T) {
	slow := New(Config{Latency: time.Millisecond, TimeScale: 1})
	fast := New(Config{Latency: time.Millisecond, TimeScale: 0.01})
	s0 := time.Now()
	slow.Transfer(0)
	ds := time.Since(s0)
	f0 := time.Now()
	fast.Transfer(0)
	df := time.Since(f0)
	if df >= ds {
		t.Fatalf("scaled transfer (%v) not faster than unscaled (%v)", df, ds)
	}
}

func TestEstimateMatchesCostShape(t *testing.T) {
	f := New(Config{Latency: 10 * time.Microsecond, Bandwidth: 1e9, TimeScale: 1})
	small := f.Estimate(64)
	large := f.Estimate(1 << 20)
	if large <= small {
		t.Fatalf("Estimate(1MB)=%v <= Estimate(64B)=%v", large, small)
	}
}

// TestCongestionRaisesCost checks the modelled durations Transfer returns,
// not wall time: Sleep's timer path overshoots delays of 80 µs and up to
// the host timer's resolution, which swamps the congestion it would measure.
func TestCongestionRaisesCost(t *testing.T) {
	cfg := Config{Latency: 50 * time.Microsecond, Bandwidth: 1e9, CongestionFactor: 0.5, TimeScale: 1}
	f := New(cfg)
	alone := f.Transfer(1 << 16)

	// Eight transfers at once: each costs at least what it costs alone, and
	// the ones that overlapped cost strictly more.
	costs := make([]time.Duration, 8)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := range costs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			costs[i] = f.Transfer(1 << 16)
		}(i)
	}
	close(start)
	wg.Wait()
	var worst time.Duration
	for _, d := range costs {
		if d < alone {
			t.Fatalf("concurrent transfer modelled at %v, below the uncontended %v", d, alone)
		}
		worst = max(worst, d)
	}
	if worst <= alone {
		t.Fatalf("no concurrent transfer cost more than the uncontended %v: %v", alone, costs)
	}
}

func TestSleepFidelity(t *testing.T) {
	for _, d := range []time.Duration{5 * time.Microsecond, 50 * time.Microsecond, 500 * time.Microsecond} {
		start := time.Now()
		Sleep(d)
		if got := time.Since(start); got < d {
			t.Fatalf("Sleep(%v) returned after %v", d, got)
		}
	}
	Sleep(0)  // must not hang
	Sleep(-1) // must not hang
}

func TestResetStats(t *testing.T) {
	f := New(NoDelay)
	f.Transfer(100)
	f.ResetStats()
	if m, b := f.Stats(); m != 0 || b != 0 {
		t.Fatalf("after reset: %d msgs %d bytes", m, b)
	}
}

func TestProfilesSane(t *testing.T) {
	for name, cfg := range map[string]Config{
		"EDR": EDRInfiniBand, "OPA": OmniPath, "Aries": AriesDragonfly,
	} {
		if cfg.Latency <= 0 || cfg.Bandwidth <= 0 || cfg.TimeScale != 1 {
			t.Fatalf("%s profile malformed: %+v", name, cfg)
		}
	}
}
