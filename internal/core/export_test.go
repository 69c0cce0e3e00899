package core

// Exported views of the scalar references (scalar_test.go) for the
// external core_test package, whose tests and benchmarks need
// repro/internal/exp — a package that imports core.
var (
	BNLScalar            = bnlScalar
	SFSScalar            = sfsScalar
	MergeSurvivorsScalar = mergeSurvivorsScalar
)
