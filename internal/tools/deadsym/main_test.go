package main

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func parseFiles(t *testing.T, srcs ...string) (*token.FileSet, []*ast.File) {
	t.Helper()
	fset := token.NewFileSet()
	var files []*ast.File
	for i, src := range srcs {
		f, err := parser.ParseFile(fset, "f"+string(rune('0'+i))+".go", src, parser.SkipObjectResolution)
		if err != nil {
			t.Fatalf("parse: %v", err)
		}
		files = append(files, f)
	}
	return fset, files
}

func TestDetectsDeadVarFuncType(t *testing.T) {
	fset, files := parseFiles(t, `package p

var deadVar = 1
var liveVar = 2

func deadFunc() {}

func liveFunc() int { return liveVar }

type deadType struct{}

type liveType struct{}

func (l liveType) m() int { return liveFunc() }

var _ = liveType{}.m
`)
	dead := deadSymbols(fset, files)
	joined := strings.Join(dead, "\n")
	for _, want := range []string{"deadVar is never used", "deadFunc is never used", "deadType is never used"} {
		if !strings.Contains(joined, want) {
			t.Errorf("missing %q in:\n%s", want, joined)
		}
	}
	for _, bad := range []string{"liveVar", "liveFunc", "liveType"} {
		if strings.Contains(joined, bad) {
			t.Errorf("live symbol %q flagged:\n%s", bad, joined)
		}
	}
}

func TestUsageInTestFileCounts(t *testing.T) {
	fset, files := parseFiles(t,
		`package p

func helper() int { return 1 }
`, `package p

import "testing"

func TestHelper(t *testing.T) { _ = helper() }
`)
	if dead := deadSymbols(fset, files); len(dead) != 0 {
		t.Fatalf("test-only usage flagged as dead: %v", dead)
	}
}

func TestSkipsMethodsMainInitAndExported(t *testing.T) {
	fset, files := parseFiles(t, `package main

func main() {}

func init() {}

func Exported() {}

type s struct{}

func (s) unusedMethod() {}

var _ = s{}
`)
	if dead := deadSymbols(fset, files); len(dead) != 0 {
		t.Fatalf("non-candidates flagged: %v", dead)
	}
}

func TestAnalyzeDirOnDisk(t *testing.T) {
	dir := t.TempDir()
	src := `package p

var orphan = []any{"open", "openat"}
`
	if err := os.WriteFile(filepath.Join(dir, "p.go"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	dead, err := analyzeDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(dead) != 1 || !strings.Contains(dead[0], "orphan is never used") {
		t.Fatalf("dead = %v", dead)
	}
}

// TestDeadMethods: a method no selector names is reported with its receiver;
// one called, one taken as a value, one named only in a test file, and one
// that satisfies a standard-library interface are not.
func TestDeadMethods(t *testing.T) {
	dir := t.TempDir()
	files := map[string]string{
		"p.go": `package p

type T struct{}

func (T) called()      {}
func (*T) valued()     {}
func (T) tested()      {}
func (T) String() string { return "" }
func (*T) Orphan() int { return 0 }

func use(t T) func() { t.called(); return t.valued }
`,
		"p_test.go": `package p

func helper(t T) { t.tested() }
`,
	}
	for name, src := range files {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	dead, err := deadMethods([]string{dir})
	if err != nil {
		t.Fatal(err)
	}
	if len(dead) != 1 || !strings.Contains(dead[0], "p.go:9: method (*T).Orphan is never used") {
		t.Fatalf("dead = %v", dead)
	}
}

// TestRepositoryIsClean runs the lint over the whole repository — the same
// invocation `make tier1` uses. A regression like the dead openSyscalls
// dictionary fails this test before it fails CI.
func TestRepositoryIsClean(t *testing.T) {
	root, err := filepath.Abs("../../..")
	if err != nil {
		t.Fatal(err)
	}
	dead, err := walk(root)
	if err != nil {
		t.Fatal(err)
	}
	methods, err := deadMethods([]string{root})
	if err != nil {
		t.Fatal(err)
	}
	if dead = append(dead, methods...); len(dead) > 0 {
		t.Fatalf("dead package-level symbols:\n%s", strings.Join(dead, "\n"))
	}
}
