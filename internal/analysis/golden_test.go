package analysis_test

import (
	"testing"

	"repro/internal/analysis"
	"repro/internal/analysis/analysistest"
)

func TestAtomicfield(t *testing.T) {
	analysistest.Run(t, "testdata/atomicfield", analysis.Atomicfield)
}

func TestNoaliasretain(t *testing.T) {
	// The fixture-local scratch container and cache sink ride alongside
	// the real defaults, which cover the readonly label.FlatIndex cases.
	cfg := analysis.NoaliasConfig{
		Readonly: append([]analysis.TypeRef{}, analysis.DefaultNoaliasConfig.Readonly...),
		Scratch: append(append([]analysis.TypeRef{}, analysis.DefaultNoaliasConfig.Scratch...),
			analysis.TypeRef{Pkg: "fixture/noaliasretain", Name: "scratch"}),
		Sinks: append(append([]analysis.MethodRef{}, analysis.DefaultNoaliasConfig.Sinks...),
			analysis.MethodRef{Pkg: "fixture/noaliasretain", Typ: "cache", Method: "put"}),
	}
	analysistest.Run(t, "testdata/noaliasretain", analysis.NewNoaliasretain(cfg))
}

func TestErrnocache(t *testing.T) {
	analysistest.Run(t, "testdata/errnocache", analysis.Errnocache)
}

func TestLockscope(t *testing.T) {
	analysistest.Run(t, "testdata/lockscope", analysis.Lockscope)
}

// TestIgnoreValidation checks the opt-out contract: a well-formed
// //hopdb:ignore suppresses its line, while reason-less, unknown-name,
// and empty annotations are themselves reported and suppress nothing.
func TestIgnoreValidation(t *testing.T) {
	analysistest.Run(t, "testdata/ignore", analysis.Atomicfield)
}
