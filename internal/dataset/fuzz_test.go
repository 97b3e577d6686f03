package dataset

import (
	"bytes"
	"testing"
)

// Fuzz target for the CSV parser: whatever bytes arrive, it must either
// return an error or a structurally valid data set — never panic, never
// return a set that fails Validate.

func FuzzReadCSV(f *testing.F) {
	f.Add([]byte("1,2,a\n3,4,b\n"), true, -1)
	f.Add([]byte("h1,h2,class\n1,2,a\n"), true, 0)
	f.Add([]byte(""), false, -1)
	f.Add([]byte("1\n"), false, 0)
	f.Add([]byte("1,2\n3\n"), false, -1)
	f.Add([]byte("NaN,Inf,x\n"), false, -1)
	f.Add([]byte(`"quoted,comma",2,y`+"\n"), false, -1)
	f.Fuzz(func(t *testing.T, data []byte, header bool, labelCol int) {
		if labelCol > 64 || labelCol < -64 {
			return
		}
		ds, err := ReadCSV(bytes.NewReader(data), "fuzz", CSVOptions{HasHeader: header, LabelColumn: labelCol})
		if err != nil {
			return
		}
		if ds.N() < 1 || ds.Dims() < 1 {
			t.Fatalf("parser returned empty dataset without error")
		}
		if len(ds.Labels) != ds.N() {
			t.Fatalf("label count mismatch")
		}
		for _, l := range ds.Labels {
			if l < 0 || l >= len(ds.ClassNames) {
				t.Fatalf("label %d outside class table of %d", l, len(ds.ClassNames))
			}
		}
		// Round trip: anything we parsed we can serialize and re-parse.
		var buf bytes.Buffer
		if err := WriteCSV(&buf, ds); err != nil {
			t.Fatalf("WriteCSV of parsed set failed: %v", err)
		}
		opts := CSVOptions{LabelColumn: -1, HasHeader: ds.FeatureNames != nil}
		back, err := ReadCSV(&buf, "fuzz2", opts)
		if err != nil {
			t.Fatalf("re-parse of serialized set failed: %v", err)
		}
		if back.N() != ds.N() || back.Dims() != ds.Dims() {
			t.Fatalf("round trip changed shape: %dx%d vs %dx%d", back.N(), back.Dims(), ds.N(), ds.Dims())
		}
	})
}
