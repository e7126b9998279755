package launchmon_test

import (
	"go/ast"
	"go/token"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// TestEveryKnobHasASetter holds the knob rule of DESIGN.md "Rules held by
// tests": an exported field of an option struct (a type named Config, Options,
// *Options or *Opts) that no program sets is not an option, it is a
// constant with plumbing. Every such field must be set by a non-test file
// in internal/, cmd/ or benchmark/ other than the declaring one — tests
// and examples are not setters, except of core's paper-API options
// (Options, MWOptions, HealthOptions), which a tool sets — by a
// composite-literal key or a selector assignment. Literal keys are
// matched to the struct they build (through the file's imports), and so
// is an assignment through a variable whose declaration spells its type
// (a parameter, a receiver, a var, a := of a literal); any other selector
// assignment names no type, so it counts for every option struct with a
// field of that name in a package the assigning file can see (its own or
// one it imports).
func TestEveryKnobHasASetter(t *testing.T) {
	optionType := regexp.MustCompile(`^(Config|Options|\w+Options|\w+Opts)$`)
	paperAPI := map[string]bool{"launchmon/internal/core.Options": true, "launchmon/internal/core.MWOptions": true, "launchmon/internal/core.HealthOptions": true}
	// Fault injection (DESIGN.md "Injection") is set by the tests that
	// inject the fault.
	injection := map[string]bool{"internal/simnet.Options.SlowHosts": true, "internal/cluster.Options.Net": true}

	type knob struct{ typ, field string } // typ is "import/path.Type"
	declared := map[knob]string{}         // knob → declaring file
	type use struct {
		knob
		file    string
		program bool // neither a test nor an example
	}
	var literalKeys []use // T{Field: v}
	var assigned []use    // x.Field = v: typ is a package the file sees

	for _, f := range parsedTree(t) {
		path, self, imports := f.path, f.pkg, f.imports
		program := !f.test && !strings.HasPrefix(path, "examples/")
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
						literalKeys = append(literalKeys, use{knob{name, id.Name}, path, program})
					}
				}
				if inner, ok := v.(*ast.CompositeLit); ok && inner.Type == nil {
					literal(inner, elem)
				}
			}
		}
		ast.Inspect(f.file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.TypeSpec:
				st, ok := n.Type.(*ast.StructType)
				if !ok || !optionType.MatchString(n.Name.Name) || f.test {
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
						literalKeys = append(literalKeys, use{knob{name, sel.Sel.Name}, path, program})
						continue
					}
					assigned = append(assigned, use{knob{self, sel.Sel.Name}, path, program})
					for _, pkg := range imports {
						assigned = append(assigned, use{knob{pkg, sel.Sel.Name}, path, program})
					}
				}
			}
			return true
		})
	}
	if len(declared) == 0 {
		t.Fatal("found no option structs")
	}

	set := map[knob]bool{}
	for _, u := range literalKeys {
		if file, ok := declared[u.knob]; ok && file != u.file && (u.program || paperAPI[u.typ]) {
			set[u.knob] = true
		}
	}
	for _, u := range assigned {
		for k, file := range declared {
			if k.field == u.field && file != u.file && strings.HasPrefix(k.typ, u.typ+".") && (u.program || paperAPI[k.typ]) {
				set[k] = true
			}
		}
	}
	var unset []string
	for k, file := range declared {
		if name := strings.TrimPrefix(k.typ, "launchmon/") + "." + k.field; !set[k] && !injection[name] {
			unset = append(unset, name+" ("+file+")")
		}
	}
	sort.Strings(unset)
	for _, u := range unset {
		t.Errorf("%s is set by no program but the file declaring it: make it a constant", u)
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
