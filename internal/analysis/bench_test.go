package analysis

import "testing"

// BenchmarkDrlintModule measures one full drlint pass over the module:
// parse every package, type-check it with the file-system importer, and
// run all fourteen analyzers — including the call-graph construction,
// unsafelife's taint fixpoint, and the compiler-witness layer's `go build`
// shell-out (cached per process, so the first iteration pays it). This is
// the cost `go test ./...` and CI pay on every run; it must stay well under
// 5 s per pass.
func BenchmarkDrlintModule(b *testing.B) {
	root, err := moduleRoot()
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		diags, err := Run(root, All())
		if err != nil {
			b.Fatal(err)
		}
		if len(diags) != 0 {
			b.Fatalf("module has findings: %v", diags)
		}
	}
}
