package core

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// Knob/prose drift guards: README's option tables must list exactly the
// exported fields of the option structs, and every LMON_* variable this
// package declares must be both planted by the FE and read by a daemon —
// so a knob cannot be retired (or added) in code and linger (or go
// missing) in the docs, and an environment variable cannot outlive its
// reader or grow a second one outside the codec.

// readmeTable returns the backticked first-column names of the README
// table whose header row starts with the given first-column title.
func readmeTable(t *testing.T, readme, title string) map[string]bool {
	t.Helper()
	rows := map[string]bool{}
	in := false
	for _, line := range strings.Split(readme, "\n") {
		switch {
		case strings.HasPrefix(line, "| "+title+" |"):
			in = true
		case in && !strings.HasPrefix(line, "|"):
			return rows
		case in && strings.HasPrefix(line, "| `"):
			rows[strings.SplitN(line[len("| `"):], "`", 2)[0]] = true
		}
	}
	if !in {
		t.Fatalf("README.md has no table headed %q", title)
	}
	return rows
}

func TestReadmeKnobTablesMatchOptionStructs(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "..", "README.md"))
	if err != nil {
		t.Fatal(err)
	}
	for title, typ := range map[string]reflect.Type{
		"Option":        reflect.TypeOf(Options{}),
		"MW option":     reflect.TypeOf(MWOptions{}),
		"Health option": reflect.TypeOf(HealthOptions{}),
	} {
		rows := readmeTable(t, string(data), title)
		for i := 0; i < typ.NumField(); i++ {
			f := typ.Field(i)
			if !f.IsExported() {
				continue
			}
			if !rows[f.Name] {
				t.Errorf("%s.%s has no row in README's %q table", typ.Name(), f.Name, title)
			}
			delete(rows, f.Name)
		}
		for name := range rows {
			t.Errorf("README's %q table has a row for %q, which is not a field of %s", title, name, typ.Name())
		}
	}
}

func TestEveryLMONVariableIsPlantedAndRead(t *testing.T) {
	fset := token.NewFileSet()
	file, err := parser.ParseFile(fset, "core.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	var consts []string // names of the LMON_* string constants
	ast.Inspect(file, func(n ast.Node) bool {
		spec, ok := n.(*ast.ValueSpec)
		if !ok || len(spec.Names) != 1 || len(spec.Values) != 1 {
			return true
		}
		lit, ok := spec.Values[0].(*ast.BasicLit)
		if !ok || lit.Kind != token.STRING {
			return true
		}
		if v, err := strconv.Unquote(lit.Value); err == nil && strings.HasPrefix(v, "LMON_") {
			consts = append(consts, spec.Names[0].Name)
		}
		return true
	})
	if len(consts) == 0 {
		t.Fatal("found no LMON_* constants in core.go")
	}

	// The bootstrap-environment codec (env.go) is the one place allowed to
	// know the variables: every constant must appear in both halves of it,
	// and in no other function of the package.
	uses := map[string]map[string]bool{} // enclosing function → constants it names
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		if strings.HasSuffix(f, "_test.go") {
			continue
		}
		parsed, err := parser.ParseFile(fset, f, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, decl := range parsed.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			qualified := map[*ast.Ident]bool{} // pkg.Name selectors: other packages' constants
			ast.Inspect(fn.Body, func(n ast.Node) bool {
				if sel, ok := n.(*ast.SelectorExpr); ok {
					qualified[sel.Sel] = true
				}
				if id, ok := n.(*ast.Ident); ok && !qualified[id] && slices.Contains(consts, id.Name) {
					if uses[fn.Name.Name] == nil {
						uses[fn.Name.Name] = map[string]bool{}
					}
					uses[fn.Name.Name][id.Name] = true
				}
				return true
			})
		}
	}
	for _, name := range consts {
		if !uses["plant"][name] {
			t.Errorf("%s is never planted into a daemon environment (bootEnv.plant does not name it)", name)
		}
		if !uses["parseBootEnv"][name] {
			t.Errorf("%s is never read by a daemon (parseBootEnv does not name it)", name)
		}
	}
	for fn, names := range uses {
		if fn != "plant" && fn != "parseBootEnv" {
			t.Errorf("%s touches %v outside the bootstrap-environment codec", fn, names)
		}
	}
}
