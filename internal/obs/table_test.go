package obs

import (
	"bytes"
	"testing"
)

// TestTableWriters pins the two encodings every exported table shares: a
// header line then one CSV record per row (quoted only where a cell needs
// it), and an indented JSON array that is [] for a table with no rows.
func TestTableWriters(t *testing.T) {
	type row struct {
		Name string  `json:"name"`
		N    uint64  `json:"n"`
		X    float64 `json:"x"`
	}
	cols := Columns[row]{
		Header: []string{"name", "n", "x"},
		Record: func(r row) []string { return []string{r.Name, Uint(r.N), Float(r.X)} },
	}
	rows := []row{{"a", 1, 0.5}, {"b,c", 20, 1.0 / 3}}

	var csv bytes.Buffer
	if err := cols.WriteCSV(&csv, rows); err != nil {
		t.Fatal(err)
	}
	if want := "name,n,x\na,1,0.5\n\"b,c\",20,0.3333333333333333\n"; csv.String() != want {
		t.Errorf("CSV:\n%q\nwant\n%q", csv.String(), want)
	}

	var js bytes.Buffer
	if err := WriteJSON(&js, rows[:1]); err != nil {
		t.Fatal(err)
	}
	if want := "[\n  {\n    \"name\": \"a\",\n    \"n\": 1,\n    \"x\": 0.5\n  }\n]\n"; js.String() != want {
		t.Errorf("JSON:\n%s\nwant\n%s", js.String(), want)
	}
	for _, empty := range [][]row{nil, {}} {
		js.Reset()
		if err := WriteJSON(&js, empty); err != nil {
			t.Fatal(err)
		}
		if js.String() != "[]\n" {
			t.Errorf("JSON of %#v = %q, want \"[]\\n\"", empty, js.String())
		}
	}
}
