// Package benchkit is the experiment harness behind cmd/repro, the paper
// reproduction: it runs queries under the four strategies over
// parameterized workloads, measures wall-clock time and machine-independent
// evaluation steps, checks answers against the naive oracle, and prints
// aligned tables in the style of the paper's artifacts.
package benchkit

import (
	"fmt"
	"io"
	"strings"
	"time"

	"tmdb/internal/core"
	"tmdb/internal/engine"
	"tmdb/internal/planner"
	"tmdb/internal/schema"
	"tmdb/internal/storage"
	"tmdb/internal/value"
)

// Table is a printable experiment table.
type Table struct {
	Title   string
	Headers []string
	Rows    [][]string
	Notes   []string
}

// Add appends a row; cells are stringified with %v.
func (t *Table) Add(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = fmt.Sprintf("%.2f", v)
		case time.Duration:
			row[i] = formatDuration(v)
		default:
			row[i] = fmt.Sprintf("%v", c)
		}
	}
	t.Rows = append(t.Rows, row)
}

// Note appends a footnote line.
func (t *Table) Note(format string, args ...any) {
	t.Notes = append(t.Notes, fmt.Sprintf(format, args...))
}

func formatDuration(d time.Duration) string {
	switch {
	case d >= time.Second:
		return fmt.Sprintf("%.2fs", d.Seconds())
	case d >= time.Millisecond:
		return fmt.Sprintf("%.2fms", float64(d.Microseconds())/1000)
	default:
		return fmt.Sprintf("%dµs", d.Microseconds())
	}
}

// Print renders the table with aligned columns.
func (t *Table) Print(w io.Writer) {
	fmt.Fprintf(w, "\n== %s ==\n", t.Title)
	widths := make([]int, len(t.Headers))
	for i, h := range t.Headers {
		widths[i] = len(h)
	}
	for _, r := range t.Rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		var sb strings.Builder
		for i, c := range cells {
			if i > 0 {
				sb.WriteString("  ")
			}
			sb.WriteString(c)
			if i < len(cells)-1 {
				sb.WriteString(strings.Repeat(" ", widths[i]-len(c)))
			}
		}
		fmt.Fprintln(w, "  "+sb.String())
	}
	line(t.Headers)
	sep := make([]string, len(t.Headers))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, r := range t.Rows {
		line(r)
	}
	for _, n := range t.Notes {
		fmt.Fprintln(w, "  note: "+n)
	}
}

// Run is one measured execution.
type Run struct {
	Strategy core.Strategy
	Joins    planner.JoinImpl
	Value    value.Value
	Duration time.Duration
	Steps    int64
	Err      error
}

// Measure executes the query under the given strategy/impl, repeating reps
// times and keeping the minimum duration (steady-state figure).
func Measure(eng *engine.Engine, q string, s core.Strategy, ji planner.JoinImpl, reps int) Run {
	if reps < 1 {
		reps = 1
	}
	out := Run{Strategy: s, Joins: ji}
	for i := 0; i < reps; i++ {
		res, err := eng.Query(q, engine.Options{Strategy: s, Joins: ji})
		if err != nil {
			out.Err = err
			return out
		}
		if i == 0 || res.Duration < out.Duration {
			out.Duration = res.Duration
			out.Steps = res.EvalSteps
		}
		out.Value = res.Value
	}
	return out
}

// Speedup formats a×/b as a factor string ("12.3x"), guarding zero.
func Speedup(base, other time.Duration) string {
	if other <= 0 {
		return "inf"
	}
	return fmt.Sprintf("%.1fx", float64(base)/float64(other))
}

// VerifyAgainst returns an error when a run that must preserve nested
// semantics disagrees with the oracle (or failed outright). Experiments use
// it so cmd/repro exits non-zero on real regressions while CheckAgainst
// keeps formatting the intentional mismatches (Kim) for display.
func VerifyAgainst(label string, oracle value.Value, r Run) error {
	if r.Err != nil {
		return fmt.Errorf("%s: %w", label, r.Err)
	}
	if !value.Equal(r.Value, oracle) {
		lost := value.Diff(oracle, r.Value)
		extra := value.Diff(r.Value, oracle)
		return fmt.Errorf("%s: result mismatch vs oracle (lost %d, extra %d)",
			label, lost.Len(), extra.Len())
	}
	return nil
}

// VerifyKimLoses returns an error unless Kim's transformation actually lost
// tuples — the bug these experiments exist to reproduce. A Kim run that
// matches the oracle on dangling-tuple data means the reproduction broke.
func VerifyKimLoses(label string, oracle value.Value, r Run) error {
	if r.Err != nil {
		return fmt.Errorf("%s: %w", label, r.Err)
	}
	if value.Diff(oracle, r.Value).Len() == 0 {
		return fmt.Errorf("%s: Kim lost no tuples — the COUNT bug failed to reproduce", label)
	}
	if extra := value.Diff(r.Value, oracle); extra.Len() > 0 {
		return fmt.Errorf("%s: Kim produced %d tuples outside the nested semantics", label, extra.Len())
	}
	return nil
}

// CheckAgainst compares a run's value to the oracle; it returns "ok" or a
// short discrepancy description (the COUNT-bug report format).
func CheckAgainst(oracle value.Value, r Run) string {
	if r.Err != nil {
		return "ERR: " + r.Err.Error()
	}
	if value.Equal(r.Value, oracle) {
		return "ok"
	}
	lost := value.Diff(oracle, r.Value)
	extra := value.Diff(r.Value, oracle)
	return fmt.Sprintf("WRONG (lost %d, extra %d)", lost.Len(), extra.Len())
}

// Env couples a catalog and database for experiment setup.
type Env struct {
	Cat *schema.Catalog
	DB  *storage.DB
}

// Engine returns a fresh engine over the environment.
func (e Env) Engine() *engine.Engine { return engine.New(e.Cat, e.DB) }
