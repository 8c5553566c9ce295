// Package report renders detection results for humans: the race report a
// programmer would read (first partitions, with lower-level provenance),
// a Figure-3-style view of the augmented happens-before-1 graph, and the
// plain-text tables of the experiment harness.
package report

import (
	"fmt"
	"io"
	"strings"

	"weakrace/internal/core"
	"weakrace/internal/memmodel"
	"weakrace/internal/trace"
)

// RenderAnalysis writes the programmer-facing race report: Theorem 4.1's
// verdict, then each partition (first partitions lead) with its races and
// their lower-level provenance.
func RenderAnalysis(w io.Writer, a *core.Analysis) error {
	t := a.Trace
	if _, err := fmt.Fprintf(w, "race report for %q (model %s, seed %d): %d events, %d races (%d data), %d partitions (%d first)\n",
		t.ProgramName, t.Model, t.Seed, a.NumEvents, a.NumRaces(), len(a.DataRaces),
		len(a.Partitions), len(a.FirstPartitions)); err != nil {
		return err
	}
	if a.RaceFree() {
		_, err := fmt.Fprintf(w, "NO DATA RACES: by Condition 3.4(1) this execution was sequentially consistent.\n")
		return err
	}
	if _, err := fmt.Fprintf(w, "report the first partitions; by Theorem 4.2 each contains a race that\noccurs in a sequentially consistent execution.\n"); err != nil {
		return err
	}
	render := func(pi int) error {
		p := a.Partitions[pi]
		tag := "non-first"
		if p.First {
			tag = "FIRST"
		}
		if _, err := fmt.Fprintf(w, "partition %d [%s]: %d race(s) over events %s\n",
			pi, tag, len(p.Races), eventList(a, p.Events)); err != nil {
			return err
		}
		for _, ri := range p.Races {
			r := a.Races[ri]
			if _, err := fmt.Fprintf(w, "  race ⟨%s, %s⟩ on locations %s\n",
				a.Ref(r.A), a.Ref(r.B), r.Locs); err != nil {
				return err
			}
			for _, ll := range a.LowerLevel(r) {
				if _, err := fmt.Fprintf(w, "    %s\n", ll); err != nil {
					return err
				}
			}
		}
		return nil
	}
	for _, pi := range a.FirstPartitions {
		if err := render(pi); err != nil {
			return err
		}
	}
	for pi := range a.Partitions {
		if !a.Partitions[pi].First {
			if err := render(pi); err != nil {
				return err
			}
		}
	}
	// The partial order P (Definition 4.1) among partitions, so the
	// programmer can see which races are downstream of which.
	printedHeader := false
	for i := range a.Partitions {
		for j := range a.Partitions {
			if i == j || !a.PartitionPrecedes(i, j) {
				continue
			}
			if !printedHeader {
				if _, err := fmt.Fprintf(w, "partition order (P):\n"); err != nil {
					return err
				}
				printedHeader = true
			}
			if _, err := fmt.Fprintf(w, "  partition %d precedes partition %d\n", i, j); err != nil {
				return err
			}
		}
	}
	return nil
}

func eventList(a *core.Analysis, ids []core.EventID) string {
	parts := make([]string, len(ids))
	for i, id := range ids {
		parts[i] = a.Ref(id).String()
	}
	return "{" + strings.Join(parts, ", ") + "}"
}

// RenderGraph writes a Figure-3-style view of the augmented
// happens-before-1 graph: each processor's events in order, annotated
// with so1 pairings, race edges, and partition membership.
func RenderGraph(w io.Writer, a *core.Analysis) error {
	// Index data races by event for annotation.
	raceWith := map[core.EventID][]core.EventID{}
	for _, r := range a.Races {
		raceWith[r.A] = append(raceWith[r.A], r.B)
		raceWith[r.B] = append(raceWith[r.B], r.A)
	}
	partOf := map[core.EventID]int{}
	for pi, p := range a.Partitions {
		for _, id := range p.Events {
			partOf[id] = pi
		}
	}
	if _, err := fmt.Fprintf(w, "augmented happens-before-1 graph for %q:\n", a.Trace.ProgramName); err != nil {
		return err
	}
	for c, evs := range a.Trace.PerCPU {
		if _, err := fmt.Fprintf(w, "P%d:\n", c+1); err != nil {
			return err
		}
		for i, ev := range evs {
			id := a.ID(trace.EventRef{CPU: c, Index: i})
			var notes []string
			if ev.Kind == trace.Sync && ev.Role == memmodel.RoleAcquire && ev.Observed.Valid() &&
				a.Options.Pairing.CanPair(ev.ObservedRole) {
				notes = append(notes, fmt.Sprintf("so1← %s", ev.Observed))
			}
			for _, other := range raceWith[id] {
				notes = append(notes, fmt.Sprintf("race↔ %s", a.Ref(other)))
			}
			if pi, ok := partOf[id]; ok {
				tag := "non-first"
				if a.Partitions[pi].First {
					tag = "FIRST"
				}
				notes = append(notes, fmt.Sprintf("partition %d (%s)", pi, tag))
			}
			suffix := ""
			if len(notes) > 0 {
				suffix = "   [" + strings.Join(notes, "; ") + "]"
			}
			if _, err := fmt.Fprintf(w, "  %3d: %s%s\n", i, ev, suffix); err != nil {
				return err
			}
		}
	}
	return nil
}

// Table accumulates rows and renders them with aligned columns, in the
// style of a paper table.
type Table struct {
	Title  string
	Header []string
	rows   [][]string
}

// NewTable starts a table with the given title and column headers.
func NewTable(title string, header ...string) *Table {
	return &Table{Title: title, Header: header}
}

// AddRow appends a row; values are formatted with %v.
func (t *Table) AddRow(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = fmt.Sprintf("%.2f", v)
		default:
			row[i] = fmt.Sprintf("%v", c)
		}
	}
	t.rows = append(t.rows, row)
}

// Render writes the table. Rows wider than the header get extra
// unlabeled columns rather than being truncated.
func (t *Table) Render(w io.Writer) error {
	cols := len(t.Header)
	for _, row := range t.rows {
		if len(row) > cols {
			cols = len(row)
		}
	}
	widths := make([]int, cols)
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.rows {
		for i, cell := range row {
			if len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	if t.Title != "" {
		if _, err := fmt.Fprintf(w, "%s\n", t.Title); err != nil {
			return err
		}
	}
	line := func(cells []string) error {
		var sb strings.Builder
		for i, cell := range cells {
			if i > 0 {
				sb.WriteString("  ")
			}
			sb.WriteString(cell)
			for p := len(cell); p < widths[i]; p++ {
				sb.WriteByte(' ')
			}
		}
		_, err := fmt.Fprintf(w, "%s\n", strings.TrimRight(sb.String(), " "))
		return err
	}
	if err := line(t.Header); err != nil {
		return err
	}
	rule := make([]string, cols)
	for i := range rule {
		rule[i] = strings.Repeat("-", widths[i])
	}
	if err := line(rule); err != nil {
		return err
	}
	for _, row := range t.rows {
		if err := line(row); err != nil {
			return err
		}
	}
	return nil
}
