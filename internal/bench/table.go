// Package bench is the experiment harness that regenerates every table
// and figure of the paper's evaluation (Section 4): data collection,
// search baselines (exhaustive grid, greedy one-parameter, random), and
// one experiment function per paper artifact, each returning a Report
// whose rendering mirrors the published rows/series.
package bench

import (
	"fmt"
	"strings"
)

// Table is a rendered experiment artifact.
type Table struct {
	// Title labels the artifact ("Table 1", "Figure 4 data", ...).
	Title string
	// Header names the columns.
	Header []string
	// Rows holds the cell values.
	Rows [][]string
}

// Render draws the table with aligned ASCII columns.
func (t Table) Render() string {
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	var sb strings.Builder
	if t.Title != "" {
		sb.WriteString(t.Title)
		sb.WriteByte('\n')
	}
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				sb.WriteString("  ")
			}
			fmt.Fprintf(&sb, "%-*s", widths[i], c)
		}
		sb.WriteByte('\n')
	}
	writeRow(t.Header)
	var rule []string
	for _, w := range widths {
		rule = append(rule, strings.Repeat("-", w))
	}
	writeRow(rule)
	for _, row := range t.Rows {
		writeRow(row)
	}
	return sb.String()
}

// Claim is one verdict an experiment reaches about its own measurements:
// a paper claim (a threshold is the paper's number or band, stated in
// Text) or, with Gate set, an invariant whose failure fails the run.
type Claim struct {
	Text  string
	Holds bool
	Gate  bool
}

// claim is a scoreboard claim whose text formats the measured values.
func claim(holds bool, format string, args ...any) Claim {
	return Claim{Text: fmt.Sprintf(format, args...), Holds: holds}
}

// gate is a claim that fails the run when it does not hold.
func gate(holds bool, format string, args ...any) Claim {
	c := claim(holds, format, args...)
	c.Gate = true
	return c
}

// Report is one experiment's full output.
type Report struct {
	// ID is the experiment identifier ("figure4", "table1", ...).
	ID string
	// Title is the human-readable description.
	Title string
	// Tables holds the data artifacts.
	Tables []Table
	// Notes records paper-vs-measured commentary and caveats.
	Notes []string
	// Claims are the experiment's verdicts, the only ones it reaches.
	Claims []Claim
}

// Render draws the full report.
func (r Report) Render() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "== %s: %s ==\n", r.ID, r.Title)
	for _, t := range r.Tables {
		sb.WriteByte('\n')
		sb.WriteString(t.Render())
	}
	if len(r.Notes)+len(r.Claims) > 0 {
		sb.WriteByte('\n')
	}
	for _, n := range r.Notes {
		fmt.Fprintf(&sb, "note: %s\n", n)
	}
	for _, c := range r.Claims {
		kind, verdict := "claim", "holds"
		if c.Gate {
			kind = "gate"
		}
		if !c.Holds {
			verdict = "FAILS"
		}
		fmt.Fprintf(&sb, "%s %s: %s\n", kind, verdict, c.Text)
	}
	return sb.String()
}

// f0 formats a float with no decimals, f1/f2 with one/two.
func f0(v float64) string { return fmt.Sprintf("%.0f", v) }
func f1(v float64) string { return fmt.Sprintf("%.1f", v) }
func f2(v float64) string { return fmt.Sprintf("%.2f", v) }

// pct formats a ratio as a percentage with one decimal.
func pct(v float64) string { return fmt.Sprintf("%.1f%%", 100*v) }
