package analysis

import (
	"go/ast"
	"os"
	"path/filepath"
	"runtime"
	"testing"
)

// repoRoot locates the module root from this file's position.
func repoRoot(t *testing.T) string {
	t.Helper()
	_, file, _, ok := runtime.Caller(0)
	if !ok {
		t.Fatal("no caller info")
	}
	return filepath.Dir(filepath.Dir(filepath.Dir(file)))
}

func TestModuleInfo(t *testing.T) {
	mod, err := ModuleInfo(repoRoot(t))
	if err != nil {
		t.Fatal(err)
	}
	if mod != "nfvxai" {
		t.Fatalf("module = %q, want nfvxai", mod)
	}
}

// TestLoadRealPackage type-checks a real module package, exercising the
// module-aware importer and the stdlib source importer together.
func TestLoadRealPackage(t *testing.T) {
	l := NewLoader(repoRoot(t), "nfvxai")
	pkg, err := l.Load("nfvxai/internal/wire")
	if err != nil {
		t.Fatal(err)
	}
	if pkg.Types.Name() != "wire" {
		t.Fatalf("package name = %q, want wire", pkg.Types.Name())
	}
	if len(pkg.Syntax) == 0 || pkg.TypesInfo == nil {
		t.Fatal("missing syntax or type info")
	}
	// Loading again hits the cache and must return the same package.
	again, err := l.Load("nfvxai/internal/wire")
	if err != nil || again != pkg {
		t.Fatalf("cache miss on second load: %v", err)
	}
	// nn declares its AVX2 kernel in an _amd64 file and a stub under
	// //go:build !amd64; only the files the build takes type-check.
	if _, err := l.Load("nfvxai/internal/ml/nn"); err != nil {
		t.Fatal(err)
	}
}

func TestLoadPatternsExpandsTree(t *testing.T) {
	l := NewLoader(repoRoot(t), "nfvxai")
	pkgs, err := l.LoadPatterns("./internal/analysis/...")
	if err != nil {
		t.Fatal(err)
	}
	// The subtree holds this package plus the six analyzers and the
	// analysistest harness; testdata must have been skipped.
	if len(pkgs) < 7 {
		t.Fatalf("loaded %d packages, want >= 7", len(pkgs))
	}
	for _, p := range pkgs {
		if filepath.Base(filepath.Dir(p.Dir)) == "testdata" || filepath.Base(p.Dir) == "testdata" {
			t.Fatalf("testdata package loaded: %s", p.Path)
		}
	}
}

// TestAllowSuppression checks the //lint:allow escape hatch end to end
// with a toy analyzer that flags every `make` call.
func TestAllowSuppression(t *testing.T) {
	dir := t.TempDir()
	src := `package toy

func a() []int  { return make([]int, 1) }
func b() []int {
	//lint:allow makecall test fixture
	return make([]int, 2)
}
func c() []int { return make([]int, 3) } //lint:allow makecall same line
func d() []int { return make([]int, 4) } //lint:allow all blanket
`
	if err := writeFile(filepath.Join(dir, "toy.go"), src); err != nil {
		t.Fatal(err)
	}
	if err := writeFile(filepath.Join(dir, "go.mod"), "module toy\n"); err != nil {
		t.Fatal(err)
	}
	l := NewLoader(dir, "toy")
	pkg, err := l.Load("toy")
	if err != nil {
		t.Fatal(err)
	}
	toy := &Analyzer{
		Name: "makecall",
		Doc:  "flags every make call (test fixture)",
		Run: func(pass *Pass) (any, error) {
			for _, f := range pass.Files {
				ast.Inspect(f, func(n ast.Node) bool {
					if call, ok := n.(*ast.CallExpr); ok {
						if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "make" {
							pass.Reportf(call.Pos(), "make call")
						}
					}
					return true
				})
			}
			return nil, nil
		},
	}
	findings, err := Run([]*Package{pkg}, []*Analyzer{toy})
	if err != nil {
		t.Fatal(err)
	}
	if len(findings) != 1 {
		t.Fatalf("findings = %v, want exactly the one in a()", findings)
	}
	if findings[0].Position.Line != 3 {
		t.Fatalf("finding at line %d, want 3", findings[0].Position.Line)
	}
}

func writeFile(path, content string) error {
	return os.WriteFile(path, []byte(content), 0o644)
}
