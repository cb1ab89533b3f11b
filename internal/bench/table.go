package bench

import (
	"fmt"
	"strings"
)

// Row is one line of a rendered result table.
type Row struct {
	Label    string
	Measured []float64
	Paper    []float64
}

// Table is a rendered experiment result.
type Table struct {
	Title   string
	Note    string
	Columns []string // value column names
	Rows    []Row
	Format  string // printf verb for values, default %.2f
}

// Render produces an aligned text table with measured-vs-paper columns.
func (t *Table) Render() string {
	format := t.Format
	if format == "" {
		format = "%.2f"
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", t.Title)
	if t.Note != "" {
		fmt.Fprintf(&b, "  (%s)\n", t.Note)
	}
	header := []string{"configuration"}
	for _, c := range t.Columns {
		header = append(header, c+" [meas]", c+" [paper]")
	}
	rows := [][]string{header}
	for _, r := range t.Rows {
		cells := []string{r.Label}
		for i := range t.Columns {
			m, p := "-", "-"
			if i < len(r.Measured) {
				m = fmt.Sprintf(format, r.Measured[i])
			}
			if i < len(r.Paper) {
				p = fmt.Sprintf(format, r.Paper[i])
			}
			cells = append(cells, m, p)
		}
		rows = append(rows, cells)
	}
	widths := make([]int, len(header))
	for _, row := range rows {
		for i, c := range row {
			if len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	for ri, row := range rows {
		for i, c := range row {
			if i == 0 {
				fmt.Fprintf(&b, "  %-*s", widths[i], c)
			} else {
				fmt.Fprintf(&b, "  %*s", widths[i], c)
			}
		}
		b.WriteByte('\n')
		if ri == 0 {
			total := 2
			for _, w := range widths {
				total += w + 2
			}
			b.WriteString("  " + strings.Repeat("-", total-2) + "\n")
		}
	}
	return b.String()
}
