package dataset

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/linalg"
)

func TestReadCSVBasic(t *testing.T) {
	in := "1.5,2,cat\n3,4,dog\n5,6,cat\n"
	d, err := ReadCSV(strings.NewReader(in), "pets", CSVOptions{LabelColumn: -1})
	if err != nil {
		t.Fatal(err)
	}
	if d.N() != 3 || d.Dims() != 2 {
		t.Fatalf("shape = %dx%d", d.N(), d.Dims())
	}
	if d.X.At(0, 0) != 1.5 || d.X.At(2, 1) != 6 {
		t.Fatalf("values wrong")
	}
	if d.Labels[0] != 0 || d.Labels[1] != 1 || d.Labels[2] != 0 {
		t.Fatalf("labels = %v", d.Labels)
	}
	if len(d.ClassNames) != 2 || d.ClassNames[0] != "cat" {
		t.Fatalf("class names = %v", d.ClassNames)
	}
}

func TestReadCSVHeaderAndLabelColumn(t *testing.T) {
	in := "class,f1,f2\nA,1,2\nB,3,4\n"
	d, err := ReadCSV(strings.NewReader(in), "x", CSVOptions{HasHeader: true, LabelColumn: 0})
	if err != nil {
		t.Fatal(err)
	}
	if d.Dims() != 2 || d.N() != 2 {
		t.Fatalf("shape = %dx%d", d.N(), d.Dims())
	}
	if d.FeatureNames[0] != "f1" || d.FeatureNames[1] != "f2" {
		t.Fatalf("features = %v", d.FeatureNames)
	}
	if d.X.At(1, 1) != 4 {
		t.Fatalf("value wrong")
	}
}

func TestReadCSVErrors(t *testing.T) {
	cases := map[string]struct {
		in   string
		opts CSVOptions
	}{
		"empty":         {"", CSVOptions{}},
		"only header":   {"a,b\n", CSVOptions{HasHeader: true}},
		"single column": {"1\n2\n", CSVOptions{}},
		"bad number":    {"1,x,A\n", CSVOptions{LabelColumn: 2}},
		"label oob":     {"1,2\n", CSVOptions{LabelColumn: 5}},
		"ragged rows":   {"1,2,A\n1,B\n", CSVOptions{LabelColumn: -1}},
	}
	for name, tc := range cases {
		t.Run(name, func(t *testing.T) {
			if _, err := ReadCSV(strings.NewReader(tc.in), "x", tc.opts); err == nil {
				t.Fatalf("expected error")
			}
		})
	}
}

func TestCSVRoundTrip(t *testing.T) {
	x := linalg.FromRows([][]float64{{1.25, -3}, {0.5, 7}})
	d := MustNew("rt", x, []int{1, 0})
	d.ClassNames = []string{"neg", "pos"}
	d.FeatureNames = []string{"a", "b"}
	var buf bytes.Buffer
	if err := WriteCSV(&buf, d); err != nil {
		t.Fatal(err)
	}
	back, err := ReadCSV(&buf, "rt", CSVOptions{HasHeader: true, LabelColumn: -1})
	if err != nil {
		t.Fatal(err)
	}
	if !back.X.Equal(d.X, 0) {
		t.Fatalf("matrix round trip failed")
	}
	// Class indices are re-interned in first-appearance order; the names
	// must still correspond per row.
	for i := range d.Labels {
		want := d.ClassNames[d.Labels[i]]
		got := back.ClassNames[back.Labels[i]]
		if want != got {
			t.Fatalf("row %d class %q != %q", i, got, want)
		}
	}
}

func TestWriteCSVWithoutNames(t *testing.T) {
	d := MustNew("plain", linalg.FromRows([][]float64{{1, 2}}), []int{3})
	var buf bytes.Buffer
	if err := WriteCSV(&buf, d); err != nil {
		t.Fatal(err)
	}
	if got := strings.TrimSpace(buf.String()); got != "1,2,3" {
		t.Fatalf("csv = %q", got)
	}
}
