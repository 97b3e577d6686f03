package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
	"testing"
)

// unreachedOracles are the package-level functions of internal/* that no
// program reaches and that stay anyway, each because a test of a reachable
// function uses it as its oracle, fixture builder or data generator.
var unreachedOracles = map[string]string{
	"internal/linalg.EigSymJacobi": "TestEigSymJacobiVsQL: the Jacobi fallback of EigSym, run alone, against the QL path",
	"internal/linalg.EigSymQL":     "TestEigSymJacobiVsQL: the QL path EigSym takes first, run alone",
	"internal/linalg.AddVec":       "TestTriangleInequalityProperty, the norm property Norm2 is held to",
	"internal/linalg.Outer":        "TestEigSymBitIdenticalToOracle: builds the Householder reflections of its repeated-eigenvalue family and its rank-1 family",
	"internal/linalg.VecEqual":     "tolerance comparison in the linalg, stats and core tests",
	"internal/linalg.FromRows":     "literal matrices in the tests of reachable functions (TestGramSchmidtDropsDependentColumns, TestEigSym2x2Known, the stats and knn tests)",

	"internal/knn.SearchSet":  "the scalar reference SearchSetBatch's bit-identity is defined against (TestSearchSetBatchEquivalence, TestSearchSetBatchEqualsSearchSetOnLattices)",
	"internal/knn.PairwiseSq": "TestPropertyPCAContraction in reduction/property_test.go: all-pairs distances before and after Transform",

	"internal/stats.CorrelationMatrix": "TestTransformScoreVarianceMatchesEigenvalue in reduction/pca_test.go checks that PCA scores are decorrelated with it",
	"internal/cluster.Silhouette":      "TestSubspaceMixtureStructure: the separability KMeans must reach on SubspaceMixture's cells",
	"internal/store.Write":             "builds the file under every Open/Search test of store_test.go and serve/backend_store_test.go; TestStreamingWriterMatchesWrite pins it byte-for-byte to Create+Append",
	"internal/index/lsh.DecodeKey":     "inverse of EncodeKey in FuzzBucketKey and the lsh key tests",
	"internal/index/lsh.unzigzag":      "DecodeKey's half of the zigzag varint coding",
	"internal/index.NewLinearScan":     "the exact baseline in the cross-index agreement and iDistance tests",
}

// TestInternalFunctionsAreReachable is ROADMAP's "no code that nothing on a
// measured path needs" as a check: every package-level function under
// internal/ (this package exempt) must be reachable from a program or be
// listed above. Roots are main in every main package (cmd/*, examples/*,
// benchmark), every init and every package-level initialiser. The root
// facade is not a root: it re-exports what some program runs, and an
// exported wrapper there that no program calls keeps nothing alive —
// otherwise three lines of facade would justify any amount of substrate. A
// reached declaration contributes every function its identifiers resolve to
// and every method of every named type it mentions — which stands in for
// interface dispatch (container/heap, fmt.Stringer, index.Index). Tests are
// not roots.
func TestInternalFunctionsAreReachable(t *testing.T) {
	root, err := moduleRoot()
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := Load(root)
	if err != nil {
		t.Fatal(err)
	}
	type site struct {
		node ast.Node
		info *types.Info
	}
	decls := map[*types.Func]site{} // every declared function and method
	var queue []site
	var checked []*types.Func // package-level functions under internal/
	for _, pkg := range pkgs {
		if pkg.TypesInfo == nil {
			continue
		}
		for _, f := range pkg.Files {
			if f.Test {
				continue
			}
			for _, decl := range f.AST.Decls {
				s := site{decl, pkg.TypesInfo}
				fd, isFunc := decl.(*ast.FuncDecl)
				if !isFunc {
					// Package-level initialisers run at start-up.
					if decl.(*ast.GenDecl).Tok == token.VAR {
						queue = append(queue, s)
					}
					continue
				}
				obj := pkg.TypesInfo.Defs[fd.Name].(*types.Func)
				decls[obj] = s
				switch {
				case fd.Recv == nil && fd.Name.Name == "init",
					fd.Recv == nil && fd.Name.Name == "main" && pkg.Types.Name() == "main":
					queue = append(queue, s)
				case fd.Recv == nil && strings.HasPrefix(pkg.Dir, "internal/") && pkg.Dir != "internal/analysis":
					checked = append(checked, obj)
				}
			}
		}
	}

	reached := map[*types.Func]bool{}
	reach := func(f *types.Func) {
		f = f.Origin()
		if s, ok := decls[f]; ok && !reached[f] {
			reached[f] = true
			queue = append(queue, s)
		}
	}
	for len(queue) > 0 {
		s := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		ast.Inspect(s.node, func(n ast.Node) bool {
			id, ok := n.(*ast.Ident)
			if !ok {
				return true
			}
			switch obj := s.info.Uses[id].(type) {
			case *types.Func:
				reach(obj)
			case *types.TypeName:
				if named, ok := types.Unalias(obj.Type()).(*types.Named); ok {
					for i := 0; i < named.NumMethods(); i++ {
						reach(named.Method(i))
					}
				}
			}
			return true
		})
	}

	var orphans []string
	seen := map[string]bool{}
	for _, f := range checked {
		name := qualifiedName(f)
		_, listed := unreachedOracles[name]
		switch {
		case !reached[f] && !listed:
			orphans = append(orphans, name)
		case reached[f] && listed:
			t.Errorf("%s is reachable now: drop it from unreachedOracles", name)
		}
		seen[name] = true
	}
	sort.Strings(orphans)
	for _, name := range orphans {
		t.Errorf("%s: no entry point reaches it; delete it, or list it in unreachedOracles with the test that needs it", name)
	}
	for name := range unreachedOracles {
		if !seen[name] {
			t.Errorf("unreachedOracles lists %s, which is not a package-level function under internal/", name)
		}
	}
}
