package obs

import (
	"encoding/csv"
	"encoding/json"
	"io"
	"strconv"
)

// Every exported table (the campaign tables in figures, the pagemap's rows
// and 2MB regions, the timeline) ships two encodings of the same rows: an
// indented JSON array carrying the complete per-row struct, and a CSV
// digest whose shape the table declares as Columns. Cells are canonical —
// integers in base 10, floats in Go's shortest round-trippable form — so
// rows that took a trip through the JSON export write byte-identical CSV.

// Columns is one table's CSV shape: its header and the cells of one row.
type Columns[T any] struct {
	Header []string
	Record func(row T) []string
}

// WriteCSV writes the header, then one record per row.
func (c Columns[T]) WriteCSV(w io.Writer, rows []T) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(c.Header); err != nil {
		return err
	}
	for _, r := range rows {
		if err := cw.Write(c.Record(r)); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// WriteJSON writes rows as an indented JSON array; no rows write [].
func WriteJSON[T any](w io.Writer, rows []T) error {
	if rows == nil {
		rows = []T{}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(rows)
}

// Uint and Float are the canonical cell encodings.
func Uint(v uint64) string   { return strconv.FormatUint(v, 10) }
func Float(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
