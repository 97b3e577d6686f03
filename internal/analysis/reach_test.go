package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
	"testing"
)

// unreachedOracles are the functions and methods of non-main packages that
// no program reaches and that stay anyway, each because the named test of a
// reachable function uses it as its oracle, driver, fixture builder or data
// generator. What only a listed entry calls stays with it, unlisted.
var unreachedOracles = map[string]string{
	"internal/linalg.EigSymJacobi": "TestEigSymJacobiVsQL: the Jacobi fallback of EigSym, run alone, against the QL path",
	"internal/linalg.EigSymQL":     "TestEigSymJacobiVsQL: the QL path EigSym takes first, run alone",
	"internal/linalg.AddVec":       "TestTriangleInequalityProperty, the norm property Norm2 is held to",
	"internal/linalg.Outer":        "TestEigSymBitIdenticalToOracle: builds the Householder reflections of its repeated-eigenvalue family and its rank-1 family",
	"internal/linalg.VecEqual":     "tolerance comparison in the linalg, stats and core tests",
	"internal/linalg.FromRows":     "literal matrices in the tests of reachable functions (TestGramSchmidtDropsDependentColumns, TestEigSym2x2Known, the stats and knn tests)",

	"(*internal/linalg.Dense).Mul":                      "TestMulTMatchesMul, TestAtAMatchesNaive: the naive product MulT and AtA are held to; TestGramSchmidt's QᵀQ",
	"(*internal/linalg.Dense).Equal":                    "matrix comparison in TestMulTIsTheSequentialChain, TestMulTIndependentOfWorkers, TestAtAMatchesNaive, TestCSVRoundTrip and TestStressConcurrentEngines",
	"(*internal/linalg.Dense).AddMat":                   "TestEigSymBitIdenticalToOracle and randSym: symmetrise the random inputs of every EigSym test",
	"(*internal/linalg.Dense).SubMat":                   "checkDecomposition (VᵀV − I of every EigSym test) and TestEigSymBitIdenticalToOracle's reflections",
	"(*internal/linalg.Dense).MaxAbs":                   "checkDecomposition: the size of VᵀV − I",
	"(*internal/linalg.EigenDecomposition).Residual":    "checkDecomposition: max |A·V − V·Λ| of every EigSym test",
	"(*internal/linalg.EigenDecomposition).Reconstruct": "TestEigenReconstruct, TestEigenPropertyQuick: V Λ Vᵀ must give back EigSym's input",

	"internal/knn.SearchSet":  "the scalar reference SearchSetBatch's bit-identity is defined against (TestSearchSetBatchEquivalence, TestSearchSetBatchEqualsSearchSetOnLattices)",
	"internal/knn.PairwiseSq": "TestPropertyPCAContraction in reduction/property_test.go: all-pairs distances before and after Transform",

	"internal/stats.CorrelationMatrix": "TestTransformScoreVarianceMatchesEigenvalue in reduction/pca_test.go checks that PCA scores are decorrelated with it",
	"(internal/stats.Normal).CDF":      "TestTwoSidedMatchesDefinition: 2Φ(z) − 1 from the definition, against TwoSidedProbability's erf short-cut",
	"internal/cluster.Silhouette":      "TestSubspaceMixtureStructure: the separability KMeans must reach on SubspaceMixture's cells",

	"(*internal/dataset.Dataset).Validate":    "TestGenerateShapeAndLabels, TestNoisyDataA, TestNoisyDataB and TestSubspaceMixtureStructure: every generator's output is finite and consistently labelled",
	"(*internal/dataset.Dataset).ClassCounts": "TestGenerateShapeAndLabels: Generate balances its classes",

	"(*internal/reduction.CovarianceAccumulator).AddMatrix": "feeds the accumulator in TestAccumulatorMatchesBatchCovariance, TestAccumulatorFitMatchesBatchFit and ExampleCovarianceAccumulator",

	"internal/store.Write":                  "builds the file under every Open/Search test of store_test.go and serve/backend_store_test.go; TestStreamingWriterMatchesWrite pins it byte-for-byte to Create+Append",
	"(*internal/store.Store).DequantRow":    "TestRoundTripErrorBound: decodes every stored row to hold the encoder to |dequant − x| ≤ step/2",
	"(*internal/store.Store).Steps":         "TestRoundTripErrorBound: the per-dimension step of that bound",
	"(*internal/store.Store).PrefixDims":    "TestVariantMatrixCoversPrefixStates, TestScanSegmentTailResidues, TestBuildWithVarianceOrderStaysExact: assert the early-abandon prefix is on in the shapes that claim to test it",
	"internal/index/lsh.DecodeKey":          "inverse of EncodeKey in FuzzBucketKey and the lsh key tests",
	"internal/index/lsh.unzigzag":           "DecodeKey's half of the zigzag varint coding",
	"(*internal/index/lsh.Index).MaxProbes": "TestCrossIndexAgreementFixture: the probe depth at which KNNApprox is held against the exact indexes",
	"internal/index.NewLinearScan":          "the exact baseline in the cross-index agreement and iDistance tests",

	"(internal/experiments.LSHRecallResult).Best": "TestLSHRecallTradeoff: the acceptance bar (recall ≥ 0.9 under 20 % scanned) LSHRecall's table is held to; BenchmarkLSHRecall's headline",

	"internal/serve.RunLoad":       "the driver of TestMutateStress (the race gate); TestRunLoad pins its accounting",
	"internal/serve.VerifyMutated": "the rebuild oracle of TestMutateStress and the exact-conformance table; TestVerifyMutatedDetectsDivergence pins it",
}

// TestInternalFunctionsAreReachable is ROADMAP's "no code that nothing on a
// measured path needs" as a check: every function and method declared in a
// package that is not main (internal/analysis exempt) must be reachable from
// a program or be listed above. Roots are main in every main package (cmd/*,
// examples/*, benchmark), every init and every package-level initialiser.
// Tests are not roots.
//
// A reached declaration reaches every function and method its identifiers
// resolve to — a selector on a concrete receiver resolves to the method
// itself, promoted ones included. A selector on an interface value resolves
// to the interface's method instead, which marks that interface dispatched;
// every exported interface of a standard-library package the module imports
// (sort.Interface, heap.Interface, fmt.Stringer, io.Writer, …) and error
// count as dispatched by the library. A dispatched interface reaches, on
// every named type that reached code mentions and whose pointer implements
// it, the implementation of each of its methods: the interface is the unit,
// because a type cannot drop one method and keep satisfying it. Mentioning
// a type reaches no method by itself.
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
	decls := map[*types.Func]site{}           // every declared function and method
	typeDecls := map[*types.TypeName]site{}   // every declared type
	dispatched := map[*types.Interface]bool{} // interfaces somebody calls a method through
	var queue []site
	var checked []*types.Func // functions and methods of non-main packages
	for _, pkg := range pkgs {
		if pkg.TypesInfo == nil {
			continue
		}
		for _, imp := range pkg.Types.Imports() {
			if imp.Path() == modulePath || strings.HasPrefix(imp.Path(), modulePath+"/") {
				continue
			}
			for _, name := range imp.Scope().Names() {
				tn, _ := imp.Scope().Lookup(name).(*types.TypeName)
				if tn == nil || !tn.Exported() {
					continue
				}
				if iface, ok := tn.Type().Underlying().(*types.Interface); ok {
					dispatched[iface] = true
				}
			}
		}
		for _, f := range pkg.Files {
			if f.Test {
				continue
			}
			for _, decl := range f.AST.Decls {
				s := site{decl, pkg.TypesInfo}
				fd, isFunc := decl.(*ast.FuncDecl)
				if !isFunc {
					gd := decl.(*ast.GenDecl)
					// Package-level initialisers run at start-up.
					if gd.Tok == token.VAR {
						queue = append(queue, s)
					}
					for _, spec := range gd.Specs {
						if ts, ok := spec.(*ast.TypeSpec); ok {
							typeDecls[pkg.TypesInfo.Defs[ts.Name].(*types.TypeName)] = site{ts, pkg.TypesInfo}
						}
					}
					continue
				}
				obj := pkg.TypesInfo.Defs[fd.Name].(*types.Func)
				decls[obj] = s
				switch {
				case fd.Recv == nil && fd.Name.Name == "init",
					fd.Recv == nil && fd.Name.Name == "main" && pkg.Types.Name() == "main":
					queue = append(queue, s)
				case pkg.Types.Name() != "main" && pkg.Dir != "internal/analysis":
					checked = append(checked, obj)
				}
			}
		}
	}
	dispatched[types.Universe.Lookup("error").Type().Underlying().(*types.Interface)] = true

	reached := map[*types.Func]bool{}
	reach := func(f *types.Func) {
		f = f.Origin()
		if s, ok := decls[f]; ok && !reached[f] {
			reached[f] = true
			queue = append(queue, s)
		}
	}
	// bind reaches the mentioned type's implementation of every method of
	// the dispatched interface, if the type's pointer implements it.
	bind := func(named *types.Named, iface *types.Interface) {
		ptr := types.NewPointer(named)
		if !types.Implements(ptr, iface) {
			return
		}
		for i := 0; i < iface.NumMethods(); i++ {
			im := iface.Method(i)
			m, _, _ := types.LookupFieldOrMethod(ptr, false, im.Pkg(), im.Name())
			reach(m.(*types.Func))
		}
	}
	mentioned := map[*types.Named]bool{}
	drain := func() {
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
					recv := obj.Type().(*types.Signature).Recv()
					if recv == nil || !types.IsInterface(recv.Type()) {
						reach(obj)
					} else if iface := recv.Type().Underlying().(*types.Interface); !dispatched[iface] {
						dispatched[iface] = true
						for named := range mentioned {
							bind(named, iface)
						}
					}
				case *types.TypeName:
					named, ok := types.Unalias(obj.Type()).(*types.Named)
					if !ok || mentioned[named.Origin()] {
						return true
					}
					named = named.Origin()
					mentioned[named] = true
					if ts, ok := typeDecls[named.Obj()]; ok {
						queue = append(queue, ts) // the types of its fields are mentioned too
					}
					for iface := range dispatched {
						bind(named, iface)
					}
				}
				return true
			})
		}
	}
	drain()

	// The listed oracles must be out of every program's reach; what only
	// they reach stays with them.
	seen := map[string]bool{}
	for _, f := range checked {
		name := qualifiedName(f)
		seen[name] = true
		if _, listed := unreachedOracles[name]; !listed {
			continue
		}
		if reached[f] {
			t.Errorf("%s is reachable now: drop it from unreachedOracles", name)
		}
		reach(f)
	}
	drain()

	var orphans []string
	for _, f := range checked {
		if !reached[f] {
			orphans = append(orphans, qualifiedName(f))
		}
	}
	sort.Strings(orphans)
	for _, name := range orphans {
		t.Errorf("%s: no entry point reaches it; delete it, or list it in unreachedOracles with the test that needs it", name)
	}
	for name := range unreachedOracles {
		if !seen[name] {
			t.Errorf("unreachedOracles lists %s, which is not a function or method of a non-main package", name)
		}
	}
}
