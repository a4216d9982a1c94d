// Package stats provides the timing aggregation and reporting helpers the
// experiment harness uses. The paper's artifact reports "the average,
// minimum, and maximum of total execution times for all MPI ranks"; Agg
// reproduces that, and the throughput helpers convert to the paper's KRPS
// (kilo-requests per second) and MBPS (megabytes per second) metrics.
//
// It also holds the counter structs the storage layers share (WAL,
// Manifest, Scrub, ReaderCache). A counter is defined once, as an
// atomic.Uint64 field whose `metric` tag is its reporting name; Flatten
// turns any struct of such fields into the name→value map core's
// Metrics.Snapshot returns.
package stats

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"time"
)

// Agg accumulates per-rank durations and reports avg/min/max, the artifact's
// output format. It is safe for concurrent use by rank goroutines.
type Agg struct {
	mu   sync.Mutex
	durs []time.Duration
}

// Add records one rank's total execution time.
func (a *Agg) Add(d time.Duration) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.durs = append(a.durs, d)
}

// N returns the number of recorded samples.
func (a *Agg) N() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return len(a.durs)
}

// Avg returns the mean recorded duration (0 if empty).
func (a *Agg) Avg() time.Duration {
	a.mu.Lock()
	defer a.mu.Unlock()
	if len(a.durs) == 0 {
		return 0
	}
	var sum time.Duration
	for _, d := range a.durs {
		sum += d
	}
	return sum / time.Duration(len(a.durs))
}

// Min returns the smallest recorded duration (0 if empty).
func (a *Agg) Min() time.Duration {
	a.mu.Lock()
	defer a.mu.Unlock()
	if len(a.durs) == 0 {
		return 0
	}
	min := a.durs[0]
	for _, d := range a.durs[1:] {
		if d < min {
			min = d
		}
	}
	return min
}

// Max returns the largest recorded duration (0 if empty).
func (a *Agg) Max() time.Duration {
	a.mu.Lock()
	defer a.mu.Unlock()
	if len(a.durs) == 0 {
		return 0
	}
	max := a.durs[0]
	for _, d := range a.durs[1:] {
		if d > max {
			max = d
		}
	}
	return max
}

// String formats avg/min/max like the artifact's log line.
func (a *Agg) String() string {
	return fmt.Sprintf("avg=%v min=%v max=%v", a.Avg().Round(time.Microsecond), a.Min().Round(time.Microsecond), a.Max().Round(time.Microsecond))
}

// KRPS converts ops completed in elapsed into kilo-requests per second.
func KRPS(ops int, elapsed time.Duration) float64 {
	if elapsed <= 0 {
		return 0
	}
	return float64(ops) / elapsed.Seconds() / 1e3
}

// MBPS converts bytes moved in elapsed into megabytes per second.
func MBPS(bytes int64, elapsed time.Duration) float64 {
	if elapsed <= 0 {
		return 0
	}
	return float64(bytes) / elapsed.Seconds() / 1e6
}

// Table renders aligned experiment rows, one column set per figure series.
type Table struct {
	header []string
	rows   [][]string
}

// NewTable creates a table with the given column headers.
func NewTable(header ...string) *Table {
	return &Table{header: header}
}

// AddRow appends one formatted row; extra cells are dropped, missing cells
// padded.
func (t *Table) AddRow(cells ...string) {
	row := make([]string, len(t.header))
	for i := range row {
		if i < len(cells) {
			row[i] = cells[i]
		}
	}
	t.rows = append(t.rows, row)
}

// SortBy sorts rows lexicographically by column col.
func (t *Table) SortBy(col int) {
	if col < 0 || col >= len(t.header) {
		return
	}
	sort.SliceStable(t.rows, func(i, j int) bool { return t.rows[i][col] < t.rows[j][col] })
}

// Write renders the table to w.
func (t *Table) Write(w io.Writer) {
	widths := make([]int, len(t.header))
	for i, h := range t.header {
		widths[i] = len(h)
	}
	for _, row := range t.rows {
		for i, c := range row {
			if len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			parts[i] = fmt.Sprintf("%-*s", widths[i], c)
		}
		fmt.Fprintln(w, strings.TrimRight(strings.Join(parts, "  "), " "))
	}
	line(t.header)
	seps := make([]string, len(t.header))
	for i := range seps {
		seps[i] = strings.Repeat("-", widths[i])
	}
	line(seps)
	for _, row := range t.rows {
		line(row)
	}
}

// String renders the table.
func (t *Table) String() string {
	var b strings.Builder
	t.Write(&b)
	return b.String()
}
