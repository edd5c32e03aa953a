package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// WireCheck guards the control protocol's wire-struct surface. The
// binary frame codec (like gob before it) only moves exported fields,
// and cannot carry interface values, channels or funcs — a field of one
// of those shapes silently vanishes from (or breaks) the wire. Wire
// structs must therefore keep every field exported and concretely
// typed.
//
// Wire types are discovered two ways: explicit //lint:wire annotations,
// and concrete args/replies at "Call"-shaped RPC sites (method named
// Call taking (Method, args, reply)); the field graph is then closed
// transitively across packages.
//
// The zero-before-decode half of this analyzer retired with the gob
// wire path: the binary codec writes every schema field explicitly, so
// decoding into a reused target cannot resurrect a previous message's
// values.
var WireCheck = &Analyzer{
	Name: "wirecheck",
	Doc:  "control-protocol wire structs carry only exported, concretely typed fields",
	Run:  runWireCheck,
}

func runWireCheck(pass *Pass) {
	checkWireStructs(pass)
}

// checkWireStructs closes the wire-type graph from this package's roots
// and validates every reachable struct's fields.
func checkWireStructs(pass *Pass) {
	if pass.Prog == nil {
		return
	}
	roots := collectWireRoots(pass)
	seen := make(map[*typeFact]bool)
	for _, named := range roots {
		walkWireType(pass, named, seen)
	}
}

// collectWireRoots finds the package's wire root types in deterministic
// order: annotated types first, then RPC call-site operands.
func collectWireRoots(pass *Pass) []*types.Named {
	var roots []*types.Named
	add := func(t types.Type) {
		if named := namedStructOf(t); named != nil {
			roots = append(roots, named)
		}
	}
	for _, name := range sortedKeys(pass.Prog.typeIndex[pass.Pkg.Path]) {
		tf := pass.Prog.typeIndex[pass.Pkg.Path][name]
		if !tf.wire {
			continue
		}
		if obj, ok := pass.Pkg.TypesInfo.Defs[tf.spec.Name].(*types.TypeName); ok {
			if named, ok := obj.Type().(*types.Named); ok {
				add(named)
			}
		}
	}
	for _, f := range pass.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if isCallShaped(pass.Pkg, call) {
				add(pass.Pkg.TypesInfo.Types[call.Args[1]].Type)
				add(pass.Pkg.TypesInfo.Types[call.Args[2]].Type)
			}
			return true
		})
	}
	return roots
}

// namedStructOf unwraps pointers down to a module-local named struct.
func namedStructOf(t types.Type) *types.Named {
	for {
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
			continue
		}
		break
	}
	named, ok := t.(*types.Named)
	if !ok {
		return nil
	}
	if _, ok := named.Underlying().(*types.Struct); !ok {
		return nil
	}
	return named
}

// walkWireType validates one wire struct and recurses into its fields.
func walkWireType(pass *Pass, named *types.Named, seen map[*typeFact]bool) {
	tf := pass.Prog.typeFactFor(named)
	if tf == nil || seen[tf] {
		return
	}
	seen[tf] = true
	st, ok := tf.spec.Type.(*ast.StructType)
	if !ok {
		return
	}
	typeName := tf.spec.Name.Name
	structT, _ := named.Underlying().(*types.Struct)
	for _, field := range st.Fields.List {
		var ft types.Type
		if structT != nil {
			for i := 0; i < structT.NumFields(); i++ {
				fv := structT.Field(i)
				for _, name := range field.Names {
					if fv.Name() == name.Name {
						ft = fv.Type()
					}
				}
				if len(field.Names) == 0 && fv.Embedded() {
					if tf.pkg.Fset.Position(field.Pos()).Line == tf.pkg.Fset.Position(fv.Pos()).Line {
						ft = fv.Type()
					}
				}
			}
		}
		names := field.Names
		if len(names) == 0 { // embedded
			names = []*ast.Ident{embeddedName(field.Type)}
		}
		for _, name := range names {
			if name == nil {
				continue
			}
			if !name.IsExported() {
				pass.Reportf(name.Pos(),
					"wire struct %s has unexported field %s; the wire codec only carries exported fields", typeName, name.Name)
			}
		}
		if ft == nil {
			continue
		}
		reportWireUnsafe(pass, field.Pos(), typeName, fieldName(field), ft)
		walkWireFieldType(pass, ft, seen)
	}
}

// walkWireFieldType recurses through containers to nested wire structs.
func walkWireFieldType(pass *Pass, t types.Type, seen map[*typeFact]bool) {
	switch u := t.(type) {
	case *types.Pointer:
		walkWireFieldType(pass, u.Elem(), seen)
		return
	case *types.Slice:
		walkWireFieldType(pass, u.Elem(), seen)
		return
	case *types.Array:
		walkWireFieldType(pass, u.Elem(), seen)
		return
	case *types.Map:
		walkWireFieldType(pass, u.Elem(), seen)
		return
	}
	if named := namedStructOf(t); named != nil {
		walkWireType(pass, named, seen)
	}
}

// reportWireUnsafe flags field types the wire codec cannot carry
// faithfully.
func reportWireUnsafe(pass *Pass, pos token.Pos, typeName, field string, t types.Type) {
	switch u := t.Underlying().(type) {
	case *types.Interface:
		pass.Reportf(pos,
			"wire struct %s field %s is interface-typed; the wire codec needs concrete types", typeName, field)
	case *types.Map:
		if types.IsInterface(u.Elem().Underlying()) {
			pass.Reportf(pos,
				"wire struct %s field %s is a map with interface values; the wire codec cannot encode them", typeName, field)
		}
	case *types.Chan:
		pass.Reportf(pos, "wire struct %s field %s is a channel; the wire codec cannot encode it", typeName, field)
	case *types.Signature:
		pass.Reportf(pos, "wire struct %s field %s is a func; the wire codec cannot encode it", typeName, field)
	}
}

func fieldName(field *ast.Field) string {
	if len(field.Names) > 0 {
		return field.Names[0].Name
	}
	if id := embeddedName(field.Type); id != nil {
		return id.Name
	}
	return "(embedded)"
}

func embeddedName(expr ast.Expr) *ast.Ident {
	switch e := ast.Unparen(expr).(type) {
	case *ast.Ident:
		return e
	case *ast.StarExpr:
		return embeddedName(e.X)
	case *ast.SelectorExpr:
		return e.Sel
	}
	return nil
}

// isCallShaped reports whether call is an RPC dispatch: a method named
// Call taking (m Method, args, reply) — the rpcio Transport's shape,
// where Method is a named integer type numbering the wire methods.
func isCallShaped(pkg *Package, call *ast.CallExpr) bool {
	if len(call.Args) != 3 {
		return false
	}
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Call" {
		return false
	}
	fn, ok := pkg.TypesInfo.Uses[sel.Sel].(*types.Func)
	if !ok {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil || sig.Params().Len() != 3 {
		return false
	}
	first, ok := sig.Params().At(0).Type().(*types.Named)
	if !ok || first.Obj().Name() != "Method" {
		return false
	}
	basic, ok := first.Underlying().(*types.Basic)
	return ok && basic.Info()&types.IsInteger != 0
}
