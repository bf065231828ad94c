// Command deadsym is the repository's dead-symbol lint: it reports
// unexported package-level declarations that are never referenced anywhere
// else in their package (test files included). It exists because the
// correlation layer shipped a dead `openSyscalls` dictionary that silently
// widened the anchor query — `go vet` only catches unused locals, not
// unused package-level state.
//
// The analysis is name-based over the AST: a declaration is dead when its
// identifier appears nowhere in the package beyond its own definition
// sites. Name collisions (a local shadowing the package symbol) make it
// conservative: shadowed uses still count, so it reports false negatives,
// never false positives for merely-shadowed names.
//
// With -exported, deadsym additionally audits the EXPORTED package-level
// declarations of one or more package directories (comma-separated): a
// second pass scans every root for qualified references (pkg.Name selectors
// from other packages, or bare uses inside the package itself) and reports
// exported symbols nothing references. The same conservatism applies — a
// local variable that shares the package's import name makes its selector
// uses count, so the mode under-reports rather than flagging live API.
//
// Every run also audits methods: a method declared under the roots is dead
// when no selector anywhere under them spells its name. Names a type defines
// for a standard-library interface (String, Error, ServeHTTP, ...) are not
// audited, since the standard library makes the call.
//
// Usage:
//
//	deadsym [-exported <pkgdir>[,<pkgdir>...]] <dir> [<dir>...]   # each dir is walked recursively
//
// Exits 1 when any dead symbol is found.
package main

import (
	"flag"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

func main() {
	exportedDirs := flag.String("exported", "", "comma-separated package directories whose exported symbols are audited for external uses")
	flag.Parse()
	roots := flag.Args()
	if len(roots) == 0 {
		roots = []string{"."}
	}
	var dead []string
	for _, root := range roots {
		found, err := walk(root)
		if err != nil {
			fmt.Fprintln(os.Stderr, "deadsym:", err)
			os.Exit(2)
		}
		dead = append(dead, found...)
	}
	found, err := deadMethods(roots)
	if err != nil {
		fmt.Fprintln(os.Stderr, "deadsym:", err)
		os.Exit(2)
	}
	dead = append(dead, found...)
	if *exportedDirs != "" {
		for _, dir := range strings.Split(*exportedDirs, ",") {
			found, err := deadExported(strings.TrimSpace(dir), roots)
			if err != nil {
				fmt.Fprintln(os.Stderr, "deadsym:", err)
				os.Exit(2)
			}
			dead = append(dead, found...)
		}
	}
	for _, d := range dead {
		fmt.Println(d)
	}
	if len(dead) > 0 {
		fmt.Fprintf(os.Stderr, "deadsym: %d dead symbol(s)\n", len(dead))
		os.Exit(1)
	}
}

// stdlibMethods are method names a type may define only to satisfy a
// standard-library interface (fmt.Stringer, error, errors.Is/Unwrap,
// http.Handler, the JSON codecs, io, sort.Interface): the call sits in the
// standard library, so no selector under the roots names it.
var stdlibMethods = map[string]bool{
	"String": true, "Error": true, "Unwrap": true, "Is": true, "ServeHTTP": true,
	"MarshalJSON": true, "UnmarshalJSON": true, "Read": true, "Write": true,
	"Close": true, "Len": true, "Less": true, "Swap": true,
}

// deadMethods reports the methods declared in the non-test files under roots
// whose name no selector under the roots (tests included) spells: x.M calls
// it, x.M and T.M take it as a value. The scan is by name alone, so a
// method shares its name's every use with the methods of other types.
func deadMethods(roots []string) ([]string, error) {
	fset := token.NewFileSet()
	var candidates []*ast.FuncDecl
	used := make(map[string]bool)
	for _, root := range roots {
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if d.IsDir() {
				name := d.Name()
				if name != "." && (strings.HasPrefix(name, ".") || name == "testdata" || name == "vendor") {
					return filepath.SkipDir
				}
				return nil
			}
			if !strings.HasSuffix(path, ".go") {
				return nil
			}
			f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
			if err != nil {
				return err
			}
			ast.Inspect(f, func(n ast.Node) bool {
				if sel, ok := n.(*ast.SelectorExpr); ok {
					used[sel.Sel.Name] = true
				}
				return true
			})
			if strings.HasSuffix(path, "_test.go") {
				return nil
			}
			for _, d := range f.Decls {
				if fn, ok := d.(*ast.FuncDecl); ok && fn.Recv != nil && !stdlibMethods[fn.Name.Name] {
					candidates = append(candidates, fn)
				}
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	var dead []string
	for _, fn := range candidates {
		if !used[fn.Name.Name] {
			pos := fset.Position(fn.Name.Pos())
			dead = append(dead, fmt.Sprintf("%s:%d: method (%s).%s is never used",
				pos.Filename, pos.Line, types.ExprString(fn.Recv.List[0].Type), fn.Name.Name))
		}
	}
	sort.Strings(dead)
	return dead, nil
}

// deadExported reports exported package-level symbols of pkgDir that no file
// under roots references: neither a qualified pkg.Name selector from another
// package nor a bare use inside pkgDir beyond the definition sites.
func deadExported(pkgDir string, roots []string) ([]string, error) {
	fset := token.NewFileSet()
	pkgFiles, pkgName, err := parsePackageDir(fset, pkgDir)
	if err != nil {
		return nil, err
	}
	if len(pkgFiles) == 0 {
		return nil, fmt.Errorf("%s: no Go files", pkgDir)
	}

	// Pass 1: exported package-level declarations (methods excluded — a
	// name-based scan cannot attribute selector receivers).
	var candidates []decl
	defs := make(map[string]int)
	for _, f := range pkgFiles {
		for _, d := range f.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				if d.Recv != nil || !ast.IsExported(d.Name.Name) {
					continue
				}
				candidates = append(candidates, decl{d.Name.Name, fset.Position(d.Name.Pos())})
				defs[d.Name.Name]++
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch spec := spec.(type) {
					case *ast.ValueSpec:
						for _, n := range spec.Names {
							if !ast.IsExported(n.Name) {
								continue
							}
							candidates = append(candidates, decl{n.Name, fset.Position(n.Pos())})
							defs[n.Name]++
						}
					case *ast.TypeSpec:
						if !ast.IsExported(spec.Name.Name) {
							continue
						}
						candidates = append(candidates, decl{spec.Name.Name, fset.Position(spec.Name.Pos())})
						defs[spec.Name.Name]++
					}
				}
			}
		}
	}
	if len(candidates) == 0 {
		return nil, nil
	}

	// Pass 2: count uses across every root. Inside pkgDir any identifier
	// occurrence counts (definitions subtracted below); elsewhere only
	// pkgName.Ident selectors do.
	absPkg, err := filepath.Abs(pkgDir)
	if err != nil {
		return nil, err
	}
	uses := make(map[string]int)
	for _, root := range roots {
		werr := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if d.IsDir() {
				name := d.Name()
				if name != "." && (strings.HasPrefix(name, ".") || name == "testdata" || name == "vendor") {
					return filepath.SkipDir
				}
				return nil
			}
			if !strings.HasSuffix(d.Name(), ".go") {
				return nil
			}
			f, perr := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
			if perr != nil {
				return perr
			}
			abs, aerr := filepath.Abs(filepath.Dir(path))
			if aerr != nil {
				return aerr
			}
			if abs == absPkg {
				ast.Inspect(f, func(n ast.Node) bool {
					if id, ok := n.(*ast.Ident); ok {
						if _, tracked := defs[id.Name]; tracked {
							uses[id.Name]++
						}
					}
					return true
				})
				return nil
			}
			ast.Inspect(f, func(n ast.Node) bool {
				sel, ok := n.(*ast.SelectorExpr)
				if !ok {
					return true
				}
				if x, ok := sel.X.(*ast.Ident); ok && x.Name == pkgName {
					if _, tracked := defs[sel.Sel.Name]; tracked {
						uses[sel.Sel.Name]++
					}
				}
				return true
			})
			return nil
		})
		if werr != nil {
			return nil, werr
		}
	}

	var dead []string
	for _, c := range candidates {
		if uses[c.name] <= defs[c.name] {
			dead = append(dead, fmt.Sprintf("%s:%d: exported %s is never used", c.pos.Filename, c.pos.Line, c.name))
		}
	}
	sort.Strings(dead)
	return dead, nil
}

// parsePackageDir parses the non-test Go files of one directory and returns
// them with the package name.
func parsePackageDir(fset *token.FileSet, dir string) ([]*ast.File, string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, "", err
	}
	var files []*ast.File
	var pkgName string
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") || strings.HasSuffix(e.Name(), "_test.go") {
			continue
		}
		f, perr := parser.ParseFile(fset, filepath.Join(dir, e.Name()), nil, parser.SkipObjectResolution)
		if perr != nil {
			return nil, "", perr
		}
		files = append(files, f)
		pkgName = f.Name.Name
	}
	return files, pkgName, nil
}

// walk analyzes every package directory under root.
func walk(root string) ([]string, error) {
	var dead []string
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if name != "." && (strings.HasPrefix(name, ".") || name == "testdata" || name == "vendor") {
			return filepath.SkipDir
		}
		found, aerr := analyzeDir(path)
		if aerr != nil {
			return fmt.Errorf("%s: %w", path, aerr)
		}
		dead = append(dead, found...)
		return nil
	})
	return dead, err
}

// analyzeDir reports dead unexported package-level symbols in one directory
// (one Go package plus its tests). Directories without Go files yield nil.
func analyzeDir(dir string) ([]string, error) {
	fset := token.NewFileSet()
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		f, perr := parser.ParseFile(fset, filepath.Join(dir, e.Name()), nil, parser.SkipObjectResolution)
		if perr != nil {
			return nil, perr
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return nil, nil
	}
	return deadSymbols(fset, files), nil
}

// decl is one unexported package-level definition site.
type decl struct {
	name string
	pos  token.Position
}

// deadSymbols returns "path:line: name is never used" findings for the
// package formed by files.
func deadSymbols(fset *token.FileSet, files []*ast.File) []string {
	// Collect candidate declarations: unexported package-level funcs, vars,
	// consts, and types. Methods, main, init, blank names, and test entry
	// points are never candidates.
	var candidates []decl
	defs := make(map[string]int)
	for _, f := range files {
		for _, d := range f.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				if d.Recv != nil || !isCandidateName(d.Name.Name) || isTestEntry(d.Name.Name) {
					continue
				}
				candidates = append(candidates, decl{d.Name.Name, fset.Position(d.Name.Pos())})
				defs[d.Name.Name]++
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch spec := spec.(type) {
					case *ast.ValueSpec:
						for _, n := range spec.Names {
							if !isCandidateName(n.Name) {
								continue
							}
							candidates = append(candidates, decl{n.Name, fset.Position(n.Pos())})
							defs[n.Name]++
						}
					case *ast.TypeSpec:
						if !isCandidateName(spec.Name.Name) {
							continue
						}
						candidates = append(candidates, decl{spec.Name.Name, fset.Position(spec.Name.Pos())})
						defs[spec.Name.Name]++
					}
				}
			}
		}
	}
	if len(candidates) == 0 {
		return nil
	}

	// Count every identifier occurrence in the package, definition sites
	// included. A symbol is dead when nothing beyond its definitions names it.
	uses := make(map[string]int)
	for _, f := range files {
		ast.Inspect(f, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				if _, tracked := defs[id.Name]; tracked {
					uses[id.Name]++
				}
			}
			return true
		})
	}

	var dead []string
	for _, c := range candidates {
		if uses[c.name] <= defs[c.name] {
			dead = append(dead, fmt.Sprintf("%s:%d: %s is never used", c.pos.Filename, c.pos.Line, c.name))
		}
	}
	sort.Strings(dead)
	return dead
}

func isCandidateName(name string) bool {
	if name == "_" || name == "main" || name == "init" {
		return false
	}
	r := name[0]
	return r >= 'a' && r <= 'z' || r == '_'
}

func isTestEntry(name string) bool {
	for _, p := range []string{"Test", "Benchmark", "Example", "Fuzz"} {
		if strings.HasPrefix(name, p) {
			return true
		}
	}
	return false
}
