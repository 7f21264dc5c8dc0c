package main

import (
	"encoding/csv"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"

	"roadrunner/internal/textplot"
)

// table is a figure's tabular result. Its cells are strings, ints or
// float64s, and one table is both printed and written as CSV.
type table struct {
	cols []column
	rows [][]any
}

// column names a table column in the CSV header and on the terminal. The
// terminal shows its float64 cells with prec decimals; the CSV keeps
// every digit (formatF).
type column struct {
	csv, term string
	prec      int
}

// cells formats t for the terminal or, with term false, for CSV.
func (t table) cells(term bool) (header []string, rows [][]string) {
	for _, c := range t.cols {
		if term {
			header = append(header, c.term)
		} else {
			header = append(header, c.csv)
		}
	}
	for _, row := range t.rows {
		r := make([]string, len(row))
		for i, v := range row {
			f, ok := v.(float64)
			switch {
			case !ok:
				r[i] = fmt.Sprint(v)
			case term:
				r[i] = strconv.FormatFloat(f, 'f', t.cols[i].prec, 64)
			default:
				r[i] = formatF(f)
			}
		}
		rows = append(rows, r)
	}
	return header, rows
}

func formatF(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// page is where a figure renders: the terminal stream, the -out directory
// and the names of the files the figure writes there.
type page struct {
	w     io.Writer
	dir   string
	files []string
}

// print shows t on the terminal, followed by a blank line.
func (p page) print(t table) {
	header, rows := t.cells(true)
	fmt.Fprint(p.w, textplot.Table(header, rows))
	fmt.Fprintln(p.w)
}

// write writes t as the CSV file name.
func (p page) write(name string, t table) error {
	header, rows := t.cells(false)
	return p.create(name, func(f io.Writer) error {
		return csv.NewWriter(f).WriteAll(append([][]string{header}, rows...))
	})
}

// create writes the file name through write and reports it on the
// terminal. It returns the first error of the write or of closing the
// file.
func (p page) create(name string, write func(io.Writer) error) error {
	path := filepath.Join(p.dir, name)
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("create %s: %w", path, err)
	}
	err = write(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("write %s: %w", path, err)
	}
	fmt.Fprintf(p.w, "wrote %s\n", path)
	return nil
}
