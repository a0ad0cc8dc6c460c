package lint

// reach.go implements the unreachable rule: production code that only
// tests reach. Reachability runs over the call graph's function nodes,
// starting from the roots of a linked program or library surface:
//
//   - every main (in package main) and every init function;
//   - every package-level var declaration, initializer included;
//   - the exported functions and types of every API package: a non-main
//     package outside any internal/ directory, which other modules can
//     import (in this repo, gptune and gptune/client).
//
// From a reachable function, every reference to a function counts as an
// edge, whether called or used as a value (callbacks, registrations,
// method values). Every type a reachable function mentions, including the
// types of its expressions, makes the type's whole method set reachable,
// along with the types its declaration embeds or holds in fields. That is
// how interface dispatch is covered, the module's own interfaces and the
// ones the analysis cannot see (fmt.Stringer, http.Handler) alike: a value
// can only reach an interface through code that mentions its type, so an
// implementation whose type no live code mentions is dead.

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// reacher is the worklist state of one reachability pass.
type reacher struct {
	g     *graph
	local map[*types.Package]bool // the analyzed packages
	fns   map[*types.Func]bool
	types map[*types.TypeName]bool
	queue []*fnNode
}

// reachable returns the set of function nodes reachable from the roots.
func (g *graph) reachable(pkgs []*Package) map[*types.Func]bool {
	r := &reacher{
		g:     g,
		local: make(map[*types.Package]bool, len(pkgs)),
		fns:   make(map[*types.Func]bool),
		types: make(map[*types.TypeName]bool),
	}
	for _, pkg := range pkgs {
		r.local[pkg.Types] = true
	}
	for _, n := range g.order {
		if isRootFunc(n) || (isAPIPackage(n.pkg) && n.fn.Exported() && recvNamed(n.fn) == nil) {
			r.addFunc(n.fn)
		}
	}
	for _, pkg := range pkgs {
		for _, file := range pkg.Files {
			for _, d := range file.Decls {
				if gd, ok := d.(*ast.GenDecl); ok && gd.Tok == token.VAR {
					r.walk(pkg, gd)
				}
			}
		}
		if isAPIPackage(pkg) {
			scope := pkg.Types.Scope()
			for _, name := range scope.Names() {
				if tn, ok := scope.Lookup(name).(*types.TypeName); ok && tn.Exported() {
					r.markType(tn.Type())
				}
			}
		}
	}
	for len(r.queue) > 0 {
		n := r.queue[len(r.queue)-1]
		r.queue = r.queue[:len(r.queue)-1]
		r.walk(n.pkg, n.decl)
	}
	return r.fns
}

// isRootFunc reports whether n is a program entry point: main in package
// main, or any package's init.
func isRootFunc(n *fnNode) bool {
	if recvNamed(n.fn) != nil {
		return false
	}
	return n.fn.Name() == "init" || (n.fn.Name() == "main" && n.pkg.Types.Name() == "main")
}

// isAPIPackage reports whether other modules can import pkg: it is not a
// command and no element of its path is "internal".
func isAPIPackage(pkg *Package) bool {
	if pkg.Types.Name() == "main" {
		return false
	}
	for _, elem := range strings.Split(pkg.Path, "/") {
		if elem == "internal" {
			return false
		}
	}
	return true
}

// addFunc marks fn reachable, queueing its body the first time.
func (r *reacher) addFunc(fn *types.Func) {
	fn = fn.Origin()
	if r.fns[fn] {
		return
	}
	r.fns[fn] = true
	if n := r.g.nodes[fn]; n != nil {
		r.queue = append(r.queue, n)
	}
}

// walk records every function reference and every type in node.
func (r *reacher) walk(pkg *Package, node ast.Node) {
	ast.Inspect(node, func(x ast.Node) bool {
		e, ok := x.(ast.Expr)
		if !ok {
			return true
		}
		if id, isID := e.(*ast.Ident); isID {
			if fn, isFn := pkg.Info.Uses[id].(*types.Func); isFn {
				r.addFunc(fn)
			}
		}
		if t := pkg.Info.TypeOf(e); t != nil {
			r.markType(t)
		}
		return true
	})
}

// markType makes the named types inside t mentioned: each module type's
// methods become reachable and its declaration's own types are marked in
// turn.
func (r *reacher) markType(t types.Type) {
	switch t := types.Unalias(t).(type) {
	case *types.Named:
		for i := 0; i < t.TypeArgs().Len(); i++ {
			r.markType(t.TypeArgs().At(i))
		}
		tn := t.Origin().Obj()
		if r.types[tn] {
			return
		}
		r.types[tn] = true
		if !r.local[tn.Pkg()] {
			return // outside the analyzed set: no nodes to reach
		}
		named := t.Origin()
		for i := 0; i < named.NumMethods(); i++ {
			r.addFunc(named.Method(i))
		}
		r.markType(named.Underlying())
	case *types.Pointer:
		r.markType(t.Elem())
	case *types.Slice:
		r.markType(t.Elem())
	case *types.Array:
		r.markType(t.Elem())
	case *types.Chan:
		r.markType(t.Elem())
	case *types.Map:
		r.markType(t.Key())
		r.markType(t.Elem())
	case *types.Signature:
		r.markTuple(t.Params())
		r.markTuple(t.Results())
	case *types.Struct:
		for i := 0; i < t.NumFields(); i++ {
			r.markType(t.Field(i).Type())
		}
	case *types.Interface:
		for i := 0; i < t.NumEmbeddeds(); i++ {
			r.markType(t.EmbeddedType(i))
		}
	}
}

func (r *reacher) markTuple(tup *types.Tuple) {
	for i := 0; i < tup.Len(); i++ {
		r.markType(tup.At(i).Type())
	}
}

// unreachableFuncs reports every function in scope that no root reaches.
func (g *graph) unreachableFuncs(pkgs []*Package, report func(pos token.Position, rule, format string, args ...any)) {
	live := g.reachable(pkgs)
	for _, n := range g.order {
		if live[n.fn] {
			continue
		}
		report(n.pkg.Fset.Position(n.decl.Name.Pos()), RuleUnreachable,
			"%s is unreachable from every main, init, package-level var and API export (only tests reach it, if anything); delete it or move it into a _test.go file",
			fnName(n.fn))
	}
}
