package upkit_test

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// stdMethods are method names a type implements to satisfy a standard
// interface (error, fmt.Stringer, io.*, encoding.*, http.Handler,
// sort.Interface, heap.Interface, flag.Value, json.Marshaler). Their
// callers are in the standard library, so the scan cannot see them.
var stdMethods = map[string]bool{
	"Error": true, "String": true, "Unwrap": true, "Is": true,
	"Read": true, "Write": true, "Seek": true, "Close": true,
	"ReadAt": true, "WriteAt": true, "ReadFrom": true, "WriteTo": true,
	"MarshalBinary": true, "UnmarshalBinary": true,
	"MarshalText": true, "UnmarshalText": true,
	"MarshalJSON": true, "UnmarshalJSON": true,
	"ServeHTTP": true, "Len": true, "Less": true, "Swap": true,
	"Push": true, "Pop": true, "Set": true, "Format": true,
}

// exportAllow lists exported names that may have no non-test caller,
// keyed "pkg.Name" or "pkg.*" (pkg is the last path element).
var exportAllow = map[string]string{
	"adversary.*":              "test-support package: the adversarial suites call it",
	"testbed.*":                "test-support package: wires whole deployments for tests",
	"flash.ClearFault":         "fault hook: power-loss tests disarm an injected fault",
	"flash.Corrupt":            "fault hook: bit-flip tests damage stored bytes",
	"lzss.NewReferenceDecoder": "reference decoder the batched decoder is fuzzed against",
	"suit.MatchesUpKit":        "stays until the SUIT roadmap item decides whether the export goes",
	"coap.NonConfirmable":      "RFC 7252 message type, kept with the codec's table",
	"coap.CodeEmpty":           "RFC 7252 code, kept with the codec's table",
	"coap.CodeChanged":         "RFC 7252 code, kept with the codec's table",
	"coap.OptBlock1":           "RFC 7252 option number, kept with the codec's table",
}

// sourceFile is one parsed Go file of the repository: the root module,
// bench/ or examples/.
type sourceFile struct {
	rel  string // slash path relative to the repo root
	file *ast.File
}

// walkGo parses every .go file under the repo root, _test.go files only
// when tests is set, skipping testdata and dot directories (build
// output). mode selects how much to parse.
func walkGo(t *testing.T, fset *token.FileSet, mode parser.Mode, tests bool) []sourceFile {
	t.Helper()
	var files []sourceFile
	err := filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if p != "." && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(p, ".go") || !tests && strings.HasSuffix(p, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, p, nil, mode)
		if err != nil {
			return err
		}
		files = append(files, sourceFile{rel: filepath.ToSlash(p), file: f})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return files
}

// TestDeadCodeGuard keeps the module free of code nothing uses: every
// internal/ package has an importer, and every exported name declared
// under internal/ is used by some non-test file.
func TestDeadCodeGuard(t *testing.T) {
	t.Run("packages", func(t *testing.T) {
		// An internal/ package that no other package imports is dead.
		// Test files and bench/ count as importers; a package's own
		// tests do not.
		fset := token.NewFileSet()
		files := walkGo(t, fset, parser.ImportsOnly, true)
		pkgs := map[string]bool{}
		imported := map[string]bool{}
		for _, f := range files {
			dir := path.Dir(f.rel)
			if strings.HasPrefix(dir, "internal/") {
				pkgs["upkit/"+dir] = true
			}
			for _, imp := range f.file.Imports {
				p, _ := strconv.Unquote(imp.Path.Value)
				if p != "upkit/"+dir {
					imported[p] = true
				}
			}
		}
		var unused []string
		for p := range pkgs {
			if !imported[p] {
				unused = append(unused, p)
			}
		}
		sort.Strings(unused)
		if len(unused) > 0 {
			t.Errorf("internal packages no other package imports:\n%s", strings.Join(unused, "\n"))
		}
	})

	t.Run("exports", func(t *testing.T) {
		// A name counts as used when an identifier with that name
		// appears in a non-test file anywhere but at a declaration.
		// Matching by name, not by type, makes the list a lower bound
		// on dead code: a method is "used" as soon as any other use
		// shares its name.
		fset := token.NewFileSet()
		files := walkGo(t, fset, parser.SkipObjectResolution, false)
		var decls []*ast.Ident
		declPkg := map[*ast.Ident]string{}
		isDecl := map[*ast.Ident]bool{}
		uses := map[string]bool{}
		for _, f := range files {
			pkg := ""
			if strings.HasPrefix(f.rel, "internal/") {
				pkg = path.Base(path.Dir(f.rel))
			}
			add := func(id *ast.Ident, method bool) {
				isDecl[id] = true
				if pkg != "" && id.IsExported() && !(method && stdMethods[id.Name]) {
					decls = append(decls, id)
					declPkg[id] = pkg
				}
			}
			for _, d := range f.file.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					add(d.Name, d.Recv != nil)
				case *ast.GenDecl:
					for _, s := range d.Specs {
						switch s := s.(type) {
						case *ast.TypeSpec:
							add(s.Name, false)
						case *ast.ValueSpec:
							for _, id := range s.Names {
								add(id, false)
							}
						}
					}
				}
			}
			ast.Inspect(f.file, func(n ast.Node) bool {
				if id, ok := n.(*ast.Ident); ok && !isDecl[id] {
					uses[id.Name] = true
				}
				return true
			})
		}
		var offenders []string
		allowed := map[string]bool{} // allow-list keys that excused a name
		for _, id := range decls {
			if uses[id.Name] {
				continue
			}
			pkg := declPkg[id]
			if key := pkg + "." + id.Name; exportAllow[key] != "" {
				allowed[key] = true
				continue
			}
			if key := pkg + ".*"; exportAllow[key] != "" {
				allowed[key] = true
				continue
			}
			p := fset.Position(id.Pos())
			offenders = append(offenders, fmt.Sprintf("%s:%d %s", filepath.ToSlash(p.Filename), p.Line, id.Name))
		}
		sort.Strings(offenders)
		if len(offenders) > 0 {
			t.Errorf("%d exported names with no non-test caller:\n%s", len(offenders), strings.Join(offenders, "\n"))
		}
		// An entry that excuses nothing has gone stale: drop it.
		for key := range exportAllow {
			if !allowed[key] {
				t.Errorf("allow-list entry %q excuses no name; remove it", key)
			}
		}
	})
}
