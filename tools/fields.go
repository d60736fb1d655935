//go:build ignore

// Field audit: lists the exported struct fields of the root module that no
// non-test code writes, and compares that list with tools/fields.allow,
// which gives one "pkg.Type.Field<TAB>reason" line per field kept on
// purpose.
//
// Every exported field of every exported struct type is audited. A write
// is a composite-literal key or positional element, the left side of an
// assignment, an operand of ++ or --, an operand of &, or the operand of a
// pointer-receiver method called on an addressable value (an implicit &),
// anywhere in the non-test Go files of the root module and of bench/,
// except inside the struct's own withDefaults method or Default<T>() T
// function: a default that fills a field is not a caller setting it, and a
// field only its Default<T>() sets holds one value in every run, so it
// belongs in a constant. A selector chain such as a.B.C = v writes both B
// and C, and a write of a promoted field (opts.F, with F declared in an
// embedded E) writes E too.
//
// Fails when a field is unwritten but not allowlisted, and when the
// allowlist names a field that is written, gone or listed twice, or gives
// no reason.
//
// Run from the repo root: go run tools/fields.go
package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
)

const allowFile = "tools/fields.allow"

var (
	fset    = token.NewFileSet()
	export  = map[string]string{}   // standard library import path -> export data
	dirs    = map[string]string{}   // module import path -> directory
	goFiles = map[string][]string{} // module import path -> non-test files
	checked = map[string]*types.Package{}
	infos   = map[string]*types.Info{}
	files   = map[string][]*ast.File{}
	gc      = importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		return os.Open(export[path])
	})
)

// source type-checks module packages from their non-test files and takes
// the standard library from export data.
type source struct{}

func (source) Import(path string) (*types.Package, error) {
	if pkg, ok := checked[path]; ok {
		return pkg, nil
	}
	if _, ok := dirs[path]; !ok {
		return gc.Import(path)
	}
	var fs []*ast.File
	for _, name := range goFiles[path] {
		f, err := parser.ParseFile(fset, filepath.Join(dirs[path], name), nil, 0)
		if err != nil {
			return nil, err
		}
		fs = append(fs, f)
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
	pkg, err := (&types.Config{Importer: source{}}).Check(path, fset, fs, info)
	if err != nil {
		return nil, err
	}
	checked[path], infos[path], files[path] = pkg, info, fs
	return pkg, nil
}

func main() {
	unwritten, err := audit()
	if err != nil {
		fmt.Fprintln(os.Stderr, "fields:", err)
		os.Exit(2)
	}
	allow, err := os.ReadFile(allowFile)
	if err != nil {
		fmt.Fprintln(os.Stderr, "fields:", err)
		os.Exit(2)
	}
	listed := map[string]bool{}
	var bare, twice, unlisted, stale []string
	for _, line := range strings.Split(string(allow), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		name, reason, _ := strings.Cut(line, "\t")
		if strings.TrimSpace(reason) == "" {
			bare = append(bare, name)
		}
		if listed[name] {
			twice = append(twice, name)
		}
		listed[name] = true
	}
	for _, name := range unwritten {
		if !listed[name] {
			unlisted = append(unlisted, name)
		}
		delete(listed, name)
	}
	for name := range listed {
		stale = append(stale, name)
	}
	sort.Strings(stale)
	failed := false
	for _, r := range []struct {
		head  string
		names []string
	}{
		{allowFile + " lines without a reason:", bare},
		{allowFile + " lists these fields twice:", twice},
		{"No non-test code writes these fields; delete them or allowlist them with a reason:", unlisted},
		{allowFile + " names fields that are written or gone:", stale},
	} {
		if len(r.names) > 0 {
			failed = true
			fmt.Println(r.head)
			fmt.Println("  " + strings.Join(r.names, "\n  "))
		}
	}
	if failed {
		os.Exit(1)
	}
	fmt.Printf("fields: %d exported fields without a non-test writer, all allowlisted\n", len(unwritten))
}

// audit returns the sorted names of the exported fields nothing writes.
func audit() ([]string, error) {
	for _, dir := range []string{".", "bench"} {
		cmd := exec.Command("go", "list", "-e", "-deps", "-export", "-json=ImportPath,Dir,GoFiles,Export,Standard", "./...")
		cmd.Dir, cmd.Stderr = dir, os.Stderr
		out, err := cmd.Output()
		if err != nil {
			return nil, fmt.Errorf("go list in %s: %w", dir, err)
		}
		for dec := json.NewDecoder(bytes.NewReader(out)); dec.More(); {
			var p struct {
				ImportPath, Dir, Export string
				GoFiles                 []string
				Standard                bool
			}
			if err := dec.Decode(&p); err != nil {
				return nil, err
			}
			if p.Standard {
				export[p.ImportPath] = p.Export
			} else if p.ImportPath == "deepnote" || strings.HasPrefix(p.ImportPath, "deepnote/") {
				dirs[p.ImportPath], goFiles[p.ImportPath] = p.Dir, p.GoFiles
			}
		}
	}
	paths := make([]string, 0, len(dirs))
	for p := range dirs {
		if _, err := (source{}).Import(p); err != nil {
			return nil, err
		}
		paths = append(paths, p)
	}
	sort.Strings(paths)

	// Every exported field of every exported struct, and its struct.
	name := map[*types.Var]string{}
	owner := map[*types.Var]types.Type{}
	for _, p := range paths {
		scope := checked[p].Scope()
		for _, tn := range scope.Names() {
			obj, ok := scope.Lookup(tn).(*types.TypeName)
			if !ok || !obj.Exported() || obj.IsAlias() {
				continue
			}
			st, ok := obj.Type().Underlying().(*types.Struct)
			for i := 0; ok && i < st.NumFields(); i++ {
				if f := st.Field(i); f.Exported() {
					name[f], owner[f] = p+"."+tn+"."+f.Name(), obj.Type()
				}
			}
		}
	}

	written := map[*types.Var]bool{}
	for _, p := range paths {
		for _, f := range files[p] {
			for _, d := range f.Decls {
				filler := filled(d, infos[p])
				collectWrites(d, infos[p], func(v *types.Var) {
					if filler == nil || !types.Identical(owner[v], filler) {
						written[v] = true
					}
				})
			}
		}
	}
	var unwritten []string
	for v, n := range name {
		if !written[v] {
			unwritten = append(unwritten, n)
		}
	}
	sort.Strings(unwritten)
	return unwritten, nil
}

// filled returns the struct type d fills with defaults, or nil: the
// receiver of a withDefaults method, or T of a function Default<T>() T.
func filled(d ast.Decl, info *types.Info) types.Type {
	fd, ok := d.(*ast.FuncDecl)
	if !ok {
		return nil
	}
	sig := info.Defs[fd.Name].Type().(*types.Signature)
	if fd.Recv != nil && fd.Name.Name == "withDefaults" {
		return sig.Recv().Type()
	}
	if fd.Recv == nil && sig.Params().Len() == 0 && sig.Results().Len() == 1 {
		if t, ok := sig.Results().At(0).Type().(*types.Named); ok && fd.Name.Name == "Default"+t.Obj().Name() {
			return t
		}
	}
	return nil
}

// collectWrites calls write for every struct field that n writes.
func collectWrites(n ast.Node, info *types.Info, write func(*types.Var)) {
	// lvalue writes each field selected along e: x.A.B[i].C writes A, B and C,
	// and a field promoted from an embedded E (x.F for x.E.F) writes E too.
	var lvalue func(e ast.Expr)
	lvalue = func(e ast.Expr) {
		switch e := e.(type) {
		case *ast.ParenExpr:
			lvalue(e.X)
		case *ast.StarExpr:
			lvalue(e.X)
		case *ast.IndexExpr:
			lvalue(e.X)
		case *ast.SelectorExpr:
			if sel, ok := info.Selections[e]; ok && sel.Kind() == types.FieldVal {
				t, path := sel.Recv(), sel.Index()
				for _, i := range path[:len(path)-1] {
					if p, isPtr := t.Underlying().(*types.Pointer); isPtr {
						t = p.Elem()
					}
					f := t.Underlying().(*types.Struct).Field(i)
					write(f)
					t = f.Type()
				}
				write(sel.Obj().(*types.Var))
				lvalue(e.X)
			}
		}
	}
	ast.Inspect(n, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CompositeLit:
			st, ok := info.Types[n].Type.Underlying().(*types.Struct)
			for i, el := range n.Elts {
				if kv, isKV := el.(*ast.KeyValueExpr); isKV {
					if id, isID := kv.Key.(*ast.Ident); isID {
						if v, isVar := info.Uses[id].(*types.Var); isVar && v.IsField() {
							write(v)
						}
					}
				} else if ok && i < st.NumFields() {
					write(st.Field(i))
				}
			}
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				lvalue(lhs)
			}
		case *ast.IncDecStmt:
			lvalue(n.X)
		case *ast.RangeStmt:
			if n.Tok == token.ASSIGN {
				lvalue(n.Key)
				lvalue(n.Value)
			}
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				lvalue(n.X)
			}
		case *ast.SelectorExpr:
			// x.M with a pointer receiver on a non-pointer x takes &x.
			if sel, ok := info.Selections[n]; ok && sel.Kind() == types.MethodVal {
				_, ptrRecv := sel.Obj().Type().(*types.Signature).Recv().Type().(*types.Pointer)
				_, ptrX := info.Types[n.X].Type.Underlying().(*types.Pointer)
				if ptrRecv && !ptrX {
					lvalue(n.X)
				}
			}
		}
		return true
	})
}
