// The doc-comment gate, mirroring staticcheck's ST1000/ST1020/ST1021/
// ST1022 locally (the lint job runs the real staticcheck; this test
// keeps the rules enforceable offline with the stock toolchain):
// every package has exactly one package comment, a doc comment on an
// exported function or type starts with the identifier it documents,
// and every exported declaration has one.
package packetradio

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestDocComments(t *testing.T) {
	pkgDirs := map[string][]string{} // dir -> go files (non-test)
	err := filepath.WalkDir(".", func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); path != "." && (name == "testdata" || strings.HasPrefix(name, ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		dir := filepath.Dir(path)
		pkgDirs[dir] = append(pkgDirs[dir], path)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	fset := token.NewFileSet()
	for dir, files := range pkgDirs {
		var pkgComments []string
		for _, path := range files {
			f, err := parser.ParseFile(fset, path, nil, parser.ParseComments)
			if err != nil {
				t.Fatalf("%s: %v", path, err)
			}
			if f.Doc != nil {
				pkgComments = append(pkgComments, path)
			}
			checkExportedDocs(t, fset, f)
		}
		// ST1000: one package comment per package — zero reads as an
		// undocumented package, two or more concatenate into garbage on
		// the godoc page.
		if len(pkgComments) == 0 {
			t.Errorf("%s: no package comment on any file", dir)
		}
		if len(pkgComments) > 1 {
			t.Errorf("%s: package comment on %d files (%v) — demote all but one with a blank line before the package clause",
				dir, len(pkgComments), pkgComments)
		}
	}
}

// checkExportedDocs enforces ST1020/ST1021/ST1022: a doc comment on an
// exported top-level func or type starts with the name it documents,
// and every exported func, type, and var/const group carries one.
func checkExportedDocs(t *testing.T, fset *token.FileSet, f *ast.File) {
	report := func(pos token.Pos, format string, args ...any) {
		t.Errorf("%s: %s", fset.Position(pos), fmt.Sprintf(format, args...))
	}
	checkStart := func(pos token.Pos, doc *ast.CommentGroup, name, kind string) {
		if doc == nil {
			// String and Error implement fmt.Stringer / error; their
			// meaning is the interface's, and a per-type comment would
			// only restate it.
			if name == "String" || name == "Error" {
				return
			}
			report(pos, "exported %s %s has no doc comment", kind, name)
			return
		}
		text := doc.Text()
		ok := strings.HasPrefix(text, name+" ") || strings.HasPrefix(text, name+"\n") ||
			strings.HasPrefix(text, "A "+name) || strings.HasPrefix(text, "An "+name) ||
			strings.HasPrefix(text, "The "+name) || strings.HasPrefix(text, "Deprecated:")
		if !ok {
			report(pos, "doc comment for exported %s %s should start with %q", kind, name, name)
		}
	}
	for _, decl := range f.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			if !d.Name.IsExported() {
				continue
			}
			// Methods on unexported receivers are not API surface.
			if d.Recv != nil && !exportedRecv(d.Recv) {
				continue
			}
			checkStart(d.Pos(), d.Doc, d.Name.Name, "function")
		case *ast.GenDecl:
			if d.Tok != token.TYPE && d.Tok != token.VAR && d.Tok != token.CONST {
				continue
			}
			for _, spec := range d.Specs {
				switch s := spec.(type) {
				case *ast.TypeSpec:
					if !s.Name.IsExported() {
						continue
					}
					doc := s.Doc
					if doc == nil {
						doc = d.Doc
					}
					checkStart(s.Pos(), doc, s.Name.Name, "type")
				case *ast.ValueSpec:
					for _, name := range s.Names {
						if !name.IsExported() {
							continue
						}
						// A group doc ("const ( ... )") covers its
						// members; per-spec docs and line comments
						// count too.
						if d.Doc == nil && s.Doc == nil && s.Comment == nil {
							report(name.Pos(), "exported %s %s has no doc comment (group or per-line)", d.Tok, name.Name)
						}
					}
				}
			}
		}
	}
}

// exportedRecv reports whether a method receiver's base type is
// exported.
func exportedRecv(recv *ast.FieldList) bool {
	if len(recv.List) == 0 {
		return false
	}
	t := recv.List[0].Type
	if star, ok := t.(*ast.StarExpr); ok {
		t = star.X
	}
	if idx, ok := t.(*ast.IndexExpr); ok { // generic receiver
		t = idx.X
	}
	id, ok := t.(*ast.Ident)
	return ok && id.IsExported()
}
