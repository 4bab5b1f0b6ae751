package logp_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestPackageComments is the repository's doc-lint gate (staticcheck's
// ST1000 rule, enforced without the external tool so `go test ./...` alone
// catches regressions): every package in the module — internal, cmd and
// examples alike — must carry a package comment on at least one of its
// non-test files. CI runs this test by name in its doc-lint step;
// staticcheck.conf enables the same rule for staticcheck runs.
func TestPackageComments(t *testing.T) {
	fset := token.NewFileSet()
	documented := map[string]bool{}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, walkErr error) error {
		if walkErr != nil {
			return walkErr
		}
		if d.IsDir() {
			name := d.Name()
			if name != "." && (strings.HasPrefix(name, ".") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, perr := parser.ParseFile(fset, path, nil, parser.PackageClauseOnly|parser.ParseComments)
		if perr != nil {
			return perr
		}
		dir := filepath.Dir(path)
		if f.Doc != nil && strings.TrimSpace(f.Doc.Text()) != "" {
			documented[dir] = true
		} else if _, seen := documented[dir]; !seen {
			documented[dir] = false
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(documented) == 0 {
		t.Fatal("no packages found: doc lint walked the wrong root")
	}
	for dir, ok := range documented {
		if !ok {
			t.Errorf("package in %s has no package comment on any file", dir)
		}
	}
}

// TestExportedDocComments tightens the doc-lint gate for the packages other
// code programs against (staticcheck's ST1020/ST1021/ST1022 family): every
// exported identifier — function, method, type, package-level const/var, and
// field of an exported struct — must carry a doc comment. Enforced for the
// model and service packages, whose exported surfaces are the ones README
// and DESIGN document; extend the list as further packages stabilize.
func TestExportedDocComments(t *testing.T) {
	pkgs := []string{"internal/topo", "internal/service", "internal/obs"}
	fset := token.NewFileSet()
	checked := 0
	for _, dir := range pkgs {
		paths, err := filepath.Glob(filepath.Join(dir, "*.go"))
		if err != nil {
			t.Fatal(err)
		}
		for _, path := range paths {
			if strings.HasSuffix(path, "_test.go") {
				continue
			}
			f, err := parser.ParseFile(fset, path, nil, parser.ParseComments)
			if err != nil {
				t.Fatal(err)
			}
			for _, decl := range f.Decls {
				switch d := decl.(type) {
				case *ast.FuncDecl:
					// Methods on unexported types are not part of the
					// package's documented surface (they typically satisfy a
					// documented interface).
					if d.Name.IsExported() && receiverExported(d) && d.Doc == nil {
						t.Errorf("%s: exported %s %s has no doc comment", path, declKind(d), d.Name.Name)
					}
					checked++
				case *ast.GenDecl:
					for _, spec := range d.Specs {
						switch s := spec.(type) {
						case *ast.TypeSpec:
							if s.Name.IsExported() {
								if d.Doc == nil && s.Doc == nil {
									t.Errorf("%s: exported type %s has no doc comment", path, s.Name.Name)
								}
								checked++
								if st, ok := s.Type.(*ast.StructType); ok {
									for _, field := range st.Fields.List {
										for _, name := range field.Names {
											if name.IsExported() && field.Doc == nil && field.Comment == nil {
												t.Errorf("%s: exported field %s.%s has no doc comment",
													path, s.Name.Name, name.Name)
											}
										}
									}
								}
							}
						case *ast.ValueSpec:
							for _, name := range s.Names {
								if name.IsExported() && d.Doc == nil && s.Doc == nil && s.Comment == nil {
									t.Errorf("%s: exported %s has no doc comment", path, name.Name)
								}
								checked++
							}
						}
					}
				}
			}
		}
	}
	if checked == 0 {
		t.Fatal("no exported identifiers found: doc lint walked the wrong root")
	}
}

// declKind names a FuncDecl for the error message.
func declKind(d *ast.FuncDecl) string {
	if d.Recv != nil {
		return "method"
	}
	return "function"
}

// receiverExported reports whether d is a plain function or a method on an
// exported receiver type.
func receiverExported(d *ast.FuncDecl) bool {
	if d.Recv == nil || len(d.Recv.List) == 0 {
		return true
	}
	typ := d.Recv.List[0].Type
	for {
		switch tt := typ.(type) {
		case *ast.StarExpr:
			typ = tt.X
		case *ast.IndexExpr: // generic receiver
			typ = tt.X
		case *ast.Ident:
			return tt.IsExported()
		default:
			return true
		}
	}
}

// TestDocsCiteDefinedNames keeps the docs' test and benchmark citations
// from rotting: every Test…, Benchmark… and Fuzz… name cited in README.md,
// DESIGN.md or EXPERIMENTS.md must be the name, or a prefix of the name, of
// a function some Go file in the repository defines (a prefix cites a
// family, as TestReset does). ROADMAP.md and CHANGES.md are left out: they
// cite planned and deleted names on purpose. CI runs this test by name in
// its doc-lint step.
func TestDocsCiteDefinedNames(t *testing.T) {
	defined, err := definedFuncs(".")
	if err != nil {
		t.Fatal(err)
	}
	cited := regexp.MustCompile(`\b(?:Test|Benchmark|Fuzz)[A-Z0-9_]\w*`)
	checked := 0
	for _, doc := range []string{"README.md", "DESIGN.md", "EXPERIMENTS.md"} {
		text, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range cited.FindAllString(string(text), -1) {
			checked++
			if !citesDefined(name, defined) {
				t.Errorf("%s cites %s, which no Go file defines", doc, name)
			}
		}
	}
	if checked == 0 {
		t.Fatal("no cited names found: doc lint read the wrong files")
	}
}

// definedFuncs returns the names of the top-level functions every Go file
// under root defines, nested modules included.
func definedFuncs(root string) ([]string, error) {
	fset := token.NewFileSet()
	var names []string
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, walkErr error) error {
		if walkErr != nil {
			return walkErr
		}
		if d.IsDir() {
			if name := d.Name(); name != "." && (strings.HasPrefix(name, ".") || name == "testdata") {
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
		for _, decl := range f.Decls {
			if fn, ok := decl.(*ast.FuncDecl); ok && fn.Recv == nil {
				names = append(names, fn.Name.Name)
			}
		}
		return nil
	})
	return names, err
}

// citesDefined reports whether name is a defined function's name or a
// prefix of one.
func citesDefined(name string, defined []string) bool {
	for _, d := range defined {
		if strings.HasPrefix(d, name) {
			return true
		}
	}
	return false
}
