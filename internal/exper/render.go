package exper

import (
	"fmt"
	"math"
	"strings"
)

// Table is the output of a study: a title, a header, rows of formatted
// cells, and trailing note lines. Each numeric cell keeps the float64 it was
// formatted from, addressable by row key and column name, so tests and
// claims read numbers rather than text. String is the only renderer of
// study output.
type Table struct {
	Title  string
	Header []string
	Rows   []Row
	Notes  []string
}

// Row is one table row. Values holds the number behind each numeric cell,
// by column index; text cells have none.
type Row struct {
	Key    string
	Cells  []string
	Values map[int]float64
}

// cell is one formatted table entry; num marks the cells that carry v.
type cell struct {
	text string
	v    float64
	num  bool
}

func txt(s string) cell { return cell{text: s} }

// numf formats v with format and keeps v as the cell's value.
func numf(format string, v float64) cell { return cell{text: fmt.Sprintf(format, v), v: v, num: true} }

func f3(x float64) cell { return numf("%.3f", x) }
func f2(x float64) cell { return numf("%.2f", x) }

// pct shows a fraction as a percentage with one decimal and keeps the
// fraction as the value.
func pct(x float64) cell { return cell{text: fmt.Sprintf("%.1f%%", 100*x), v: x, num: true} }

func newTable(title string, header ...string) *Table { return &Table{Title: title, Header: header} }

// add appends a row keyed by its first cell's text.
func (t *Table) add(cells ...cell) { t.addKeyed(cells[0].text, cells...) }

// addKeyed appends a row under an explicit key, for tables whose first
// column does not identify a row on its own.
func (t *Table) addKeyed(key string, cells ...cell) {
	row := Row{Key: key, Cells: make([]string, len(cells)), Values: make(map[int]float64, len(cells))}
	for i, c := range cells {
		row.Cells[i] = c.text
		if c.num {
			row.Values[i] = c.v
		}
	}
	t.Rows = append(t.Rows, row)
}

// note appends a trailing line.
func (t *Table) note(format string, args ...any) {
	t.Notes = append(t.Notes, fmt.Sprintf(format, args...))
}

// Value returns the number behind the cell in row key and column col (the
// first column of that name); ok is false for a missing row or column and
// for a text cell.
func (t *Table) Value(key, col string) (v float64, ok bool) {
	for _, row := range t.Rows {
		if row.Key == key {
			v, ok = row.Values[t.column(col)]
			return v, ok
		}
	}
	return 0, false
}

// Column returns the numbers in column col, in row order, skipping rows
// where that cell is text or missing.
func (t *Table) Column(col string) []float64 {
	ci := t.column(col)
	var out []float64
	for _, row := range t.Rows {
		if v, ok := row.Values[ci]; ok {
			out = append(out, v)
		}
	}
	return out
}

// BestInColumn returns the key of the row with the largest number in column
// col. Ties go to the earliest row, so the answer follows the table's legend
// order rather than chance.
func (t *Table) BestInColumn(col string) string {
	ci := t.column(col)
	best, bestV := "", math.Inf(-1)
	for _, row := range t.Rows {
		if v, ok := row.Values[ci]; ok && v > bestV {
			best, bestV = row.Key, v
		}
	}
	return best
}

// BestInRow returns the name of the column with the largest number in row
// key, the leftmost among equals.
func (t *Table) BestInRow(key string) string {
	best, bestV := "", math.Inf(-1)
	for _, row := range t.Rows {
		if row.Key != key {
			continue
		}
		for i := range t.Header {
			if v, ok := row.Values[i]; ok && v > bestV {
				best, bestV = t.Header[i], v
			}
		}
		break
	}
	return best
}

func (t *Table) column(col string) int {
	for i, h := range t.Header {
		if h == col {
			return i
		}
	}
	return -1
}

// String renders the title, the header over a rule, the rows with aligned
// columns, and the notes.
func (t *Table) String() string {
	width := make([]int, len(t.Header))
	for i, h := range t.Header {
		width[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row.Cells {
			if i < len(width) && len(c) > width[i] {
				width[i] = len(c)
			}
		}
	}
	var b strings.Builder
	writeLine := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			if i < len(width) {
				fmt.Fprintf(&b, "%-*s", width[i], c)
			} else {
				b.WriteString(c)
			}
		}
		b.WriteByte('\n')
	}
	b.WriteString(t.Title)
	b.WriteByte('\n')
	writeLine(t.Header)
	var total int
	for _, w := range width {
		total += w + 2
	}
	b.WriteString(strings.Repeat("-", total))
	b.WriteByte('\n')
	for _, row := range t.Rows {
		writeLine(row.Cells)
	}
	for _, n := range t.Notes {
		b.WriteString(n)
		b.WriteByte('\n')
	}
	return b.String()
}
