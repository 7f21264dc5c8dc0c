package lint

import (
	"path/filepath"
	"testing"
)

// TestLoadResolvesCrossPackageTypes is the module-graph loader's
// acceptance check: a testdata fixture importing roadrunner/internal/sim
// must see the real *sim.RNG, not a stub — the dataflow rules are type
// questions and degrade to name heuristics without it.
func TestLoadResolvesCrossPackageTypes(t *testing.T) {
	pkgs, err := Load(filepath.Join("testdata", "forkflow", "good"))
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) != 1 {
		t.Fatalf("got %d packages, want 1", len(pkgs))
	}
	pkg := pkgs[0]
	found := false
	for _, obj := range pkg.Info.Defs {
		if obj != nil && isRNGType(obj.Type()) {
			found = true
			break
		}
	}
	if !found {
		t.Fatal("no object resolved to *sim.RNG: cross-package type-checking through the module graph failed")
	}
}

// TestLoadModuleGraphOnce checks that loading two fixtures reuses one
// module graph: both packages must share the same *token.FileSet, the
// observable handle of the cached module.
func TestLoadModuleGraphOnce(t *testing.T) {
	pkgs, err := Load(
		filepath.Join("testdata", "forkflow", "good"),
		filepath.Join("testdata", "floatorder", "good"),
	)
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) != 2 {
		t.Fatalf("got %d packages, want 2", len(pkgs))
	}
	if len(pkgs[0].Files) == 0 || len(pkgs[1].Files) == 0 {
		t.Fatal("fixture package with no files")
	}
	if pkgs[0].Files[0].Fset != pkgs[1].Files[0].Fset {
		t.Fatal("fixtures loaded with distinct FileSets: module graph not shared")
	}
}

// TestLoadStubsUnresolvableImports checks the fallback chain's last link:
// an import neither in the module graph nor installed resolves to an empty
// stub package instead of failing the load.
func TestLoadStubsUnresolvableImports(t *testing.T) {
	pkgs, err := Load(filepath.Join("testdata", "crosspkg"))
	if err != nil {
		t.Fatalf("Load with unresolvable import: %v", err)
	}
	if len(pkgs) == 0 {
		t.Fatal("no packages loaded")
	}
}
