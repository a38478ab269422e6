package analysis_test

import (
	"go/types"
	"testing"

	"repro/internal/analysis"
)

// TestConfiguredRefsResolve requires every type and method the analyzers
// are configured with to exist in the module. The analyzers match them
// by name, so a rename would otherwise switch noaliasretain or
// errnocache off for that type without a finding.
func TestConfiguredRefsResolve(t *testing.T) {
	pkgs := loadModule(t)
	byPath := map[string]*types.Package{}
	for _, p := range pkgs {
		byPath[p.PkgPath] = p.Types
	}
	typeName := func(pkg, name string) *types.TypeName {
		p := byPath[pkg]
		if p == nil {
			t.Errorf("package %s is not in the module", pkg)
			return nil
		}
		tn, ok := p.Scope().Lookup(name).(*types.TypeName)
		if !ok {
			t.Errorf("%s.%s is not a type in the module", pkg, name)
			return nil
		}
		return tn
	}
	cfg := analysis.DefaultNoaliasConfig
	for _, r := range append(append([]analysis.TypeRef{}, cfg.Readonly...), cfg.Scratch...) {
		typeName(r.Pkg, r.Name)
	}
	for _, m := range append(append([]analysis.MethodRef{}, cfg.Sinks...), analysis.CacheSinks...) {
		tn := typeName(m.Pkg, m.Typ)
		if tn == nil {
			continue
		}
		obj, _, _ := types.LookupFieldOrMethod(types.NewPointer(tn.Type()), false, tn.Pkg(), m.Method)
		if _, ok := obj.(*types.Func); !ok {
			t.Errorf("%s.%s has no method %s", m.Pkg, m.Typ, m.Method)
		}
	}
}
