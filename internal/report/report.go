// Package report renders the experiment harness's output: plain-text
// aligned tables (the rows/series each paper figure reports) and CSV for
// downstream plotting.
package report

import (
	"encoding/csv"
	"fmt"
	"io"
	"strings"
)

// Table is a titled grid of cells.
type Table struct {
	Title   string
	Columns []string
	Rows    [][]string
	Notes   []string // free-form footnotes rendered under the table
}

// New creates a table with the given title and column headers.
func New(title string, columns ...string) *Table {
	return &Table{Title: title, Columns: columns}
}

// AddRow appends one row; missing cells render empty, extras are kept.
func (t *Table) AddRow(cells ...string) {
	row := make([]string, len(cells))
	copy(row, cells)
	t.Rows = append(t.Rows, row)
}

// AddNote appends a footnote line.
func (t *Table) AddNote(format string, args ...any) {
	t.Notes = append(t.Notes, fmt.Sprintf(format, args...))
}

// Render writes the table as aligned text.
func (t *Table) Render(w io.Writer) error {
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	var b strings.Builder
	if t.Title != "" {
		b.WriteString("== " + t.Title + " ==\n")
	}
	writeRow := func(cells []string) {
		for i, width := range widths {
			cell := ""
			if i < len(cells) {
				cell = cells[i]
			}
			if i > 0 {
				b.WriteString("  ")
			}
			b.WriteString(cell)
			b.WriteString(strings.Repeat(" ", width-len(cell)))
		}
		b.WriteString("\n")
	}
	writeRow(t.Columns)
	total := 0
	for _, w := range widths {
		total += w
	}
	b.WriteString(strings.Repeat("-", total+2*(len(widths)-1)) + "\n")
	for _, row := range t.Rows {
		writeRow(row)
	}
	for _, n := range t.Notes {
		b.WriteString("  * " + n + "\n")
	}
	b.WriteString("\n")
	_, err := io.WriteString(w, b.String())
	return err
}

// RenderMarkdown writes the table as a GitHub-flavoured Markdown table,
// with the title as a heading and notes as a trailing list.
func (t *Table) RenderMarkdown(w io.Writer) error {
	var b strings.Builder
	if t.Title != "" {
		b.WriteString("### " + t.Title + "\n\n")
	}
	b.WriteString("| " + strings.Join(t.Columns, " | ") + " |\n")
	b.WriteString("|" + strings.Repeat("---|", len(t.Columns)) + "\n")
	for _, row := range t.Rows {
		padded := make([]string, len(t.Columns))
		copy(padded, row)
		b.WriteString("| " + strings.Join(padded, " | ") + " |\n")
	}
	for _, n := range t.Notes {
		b.WriteString("\n- " + n)
	}
	b.WriteString("\n\n")
	_, err := io.WriteString(w, b.String())
	return err
}

// RenderCSV writes the table as CSV (title and notes omitted).
func (t *Table) RenderCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(t.Columns); err != nil {
		return err
	}
	for _, row := range t.Rows {
		padded := make([]string, len(t.Columns))
		copy(padded, row)
		if err := cw.Write(padded); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// F formats a float compactly (3 significant digits).
func F(v float64) string { return fmt.Sprintf("%.3g", v) }

// Pct formats a fraction as a percentage with one decimal.
func Pct(v float64) string { return fmt.Sprintf("%.1f%%", v*100) }

// PctOf formats num/den as a percentage, or "n/a" when the denominator is
// zero: a zero-denominator cell is unknowable, and rendering it as "0.0%"
// would misread as a measured zero.
func PctOf(num, den float64) string {
	if den == 0 {
		return "n/a"
	}
	return Pct(num / den)
}

// N formats an integer.
func N(v int) string { return fmt.Sprintf("%d", v) }

// X formats a ratio as "N.NNx".
func X(v float64) string { return fmt.Sprintf("%.2fx", v) }
