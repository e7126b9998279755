package launchmon_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// TestEveryKnobHasASetter keeps DESIGN.md's "Substrate ledger" closed: an
// exported field of an option struct (a type named Config, Options,
// *Options or *Opts) that no file but the declaring one ever sets is not
// an option, it is a constant with plumbing — every such field must be set
// somewhere in internal/, cmd/, examples/ or benchmark/, tests included,
// by a composite-literal key or a selector assignment. Literal keys are
// matched to the struct they build (through the file's imports), and so
// is an assignment through a variable whose declaration spells its type
// (a parameter, a receiver, a var, a := of a literal); any other selector
// assignment names no type, so it counts for every option struct with a
// field of that name in a package the assigning file can see (its own or
// one it imports).
func TestEveryKnobHasASetter(t *testing.T) {
	optionType := regexp.MustCompile(`^(Config|Options|\w+Options|\w+Opts)$`)
	fset := token.NewFileSet()

	type knob struct{ typ, field string } // typ is "import/path.Type"
	declared := map[knob]string{}         // knob → declaring file
	type use struct {
		knob
		file string
	}
	var literalKeys []use // T{Field: v}
	var assigned []use    // x.Field = v: typ is a package the file sees

	for _, root := range []string{"internal", "cmd", "examples", "benchmark"} {
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") {
				return err
			}
			file, err := parser.ParseFile(fset, path, nil, 0)
			if err != nil {
				return err
			}
			// Import path of this file's package, and of each package it
			// names: both modules root their packages at "launchmon".
			self := "launchmon/" + filepath.ToSlash(filepath.Dir(path))
			imports := map[string]string{}
			for _, imp := range file.Imports {
				p, _ := strconv.Unquote(imp.Path.Value)
				name := p[strings.LastIndexByte(p, '/')+1:]
				if imp.Name != nil {
					name = imp.Name.Name
				}
				imports[name] = p
			}
			typeOf := func(e ast.Expr) string {
				switch e := e.(type) {
				case *ast.Ident:
					return self + "." + e.Name
				case *ast.SelectorExpr:
					if pkg, ok := e.X.(*ast.Ident); ok && imports[pkg.Name] != "" {
						return imports[pkg.Name] + "." + e.Sel.Name
					}
				}
				return ""
			}
			var literal func(lit *ast.CompositeLit, typ ast.Expr)
			literal = func(lit *ast.CompositeLit, typ ast.Expr) {
				if lit.Type != nil {
					typ = lit.Type
				}
				var elem ast.Expr // what an untyped element literal builds
				switch tt := typ.(type) {
				case *ast.ArrayType:
					elem = tt.Elt
				case *ast.MapType:
					elem = tt.Value
				}
				if star, ok := elem.(*ast.StarExpr); ok {
					elem = star.X
				}
				name := typeOf(typ)
				for _, el := range lit.Elts {
					v := el
					if kv, ok := el.(*ast.KeyValueExpr); ok {
						v = kv.Value
						if id, ok := kv.Key.(*ast.Ident); ok && name != "" {
							literalKeys = append(literalKeys, use{knob{name, id.Name}, path})
						}
					}
					if inner, ok := v.(*ast.CompositeLit); ok && inner.Type == nil {
						literal(inner, elem)
					}
				}
			}
			ast.Inspect(file, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.TypeSpec:
					st, ok := n.Type.(*ast.StructType)
					if !ok || !optionType.MatchString(n.Name.Name) || strings.HasSuffix(path, "_test.go") {
						return true
					}
					for _, f := range st.Fields.List {
						for _, id := range f.Names {
							if id.IsExported() {
								declared[knob{self + "." + n.Name.Name, id.Name}] = path
							}
						}
					}
				case *ast.CompositeLit:
					if n.Type != nil {
						literal(n, nil)
					}
				case *ast.AssignStmt:
					for _, lhs := range n.Lhs {
						sel, ok := lhs.(*ast.SelectorExpr)
						if !ok {
							continue
						}
						if name := typeOf(declaredType(sel.X)); name != "" {
							literalKeys = append(literalKeys, use{knob{name, sel.Sel.Name}, path})
							continue
						}
						assigned = append(assigned, use{knob{self, sel.Sel.Name}, path})
						for _, pkg := range imports {
							assigned = append(assigned, use{knob{pkg, sel.Sel.Name}, path})
						}
					}
				}
				return true
			})
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	if len(declared) == 0 {
		t.Fatal("found no option structs")
	}

	set := map[knob]bool{}
	for _, u := range literalKeys {
		if file, ok := declared[u.knob]; ok && file != u.file {
			set[u.knob] = true
		}
	}
	for _, u := range assigned {
		for k, file := range declared {
			if k.field == u.field && file != u.file && strings.HasPrefix(k.typ, u.typ+".") {
				set[k] = true
			}
		}
	}
	var unset []string
	for k, file := range declared {
		if !set[k] {
			unset = append(unset, strings.TrimPrefix(k.typ, "launchmon/")+"."+k.field+" ("+file+")")
		}
	}
	sort.Strings(unset)
	for _, u := range unset {
		t.Errorf("%s is set by no file but the one declaring it: make it a constant", u)
	}
}

// declaredType returns the type expression the declaration of the variable
// x spells out (pointers stripped), nil when x is not a plain variable or
// its declaration leaves the type to inference from a call.
func declaredType(x ast.Expr) ast.Expr {
	id, ok := x.(*ast.Ident)
	if !ok || id.Obj == nil {
		return nil
	}
	var typ ast.Expr
	switch decl := id.Obj.Decl.(type) {
	case *ast.Field:
		typ = decl.Type
	case *ast.ValueSpec:
		typ = decl.Type
		if typ == nil && len(decl.Values) == len(decl.Names) {
			for i, name := range decl.Names {
				if name.Name == id.Name {
					typ = literalType(decl.Values[i])
				}
			}
		}
	case *ast.AssignStmt:
		if len(decl.Lhs) == len(decl.Rhs) {
			for i, lhs := range decl.Lhs {
				if l, ok := lhs.(*ast.Ident); ok && l.Name == id.Name {
					typ = literalType(decl.Rhs[i])
				}
			}
		}
	}
	if star, ok := typ.(*ast.StarExpr); ok {
		typ = star.X
	}
	return typ
}

// literalType returns the type of a T{...} or &T{...} expression.
func literalType(e ast.Expr) ast.Expr {
	if u, ok := e.(*ast.UnaryExpr); ok && u.Op == token.AND {
		e = u.X
	}
	if lit, ok := e.(*ast.CompositeLit); ok {
		return lit.Type
	}
	return nil
}
