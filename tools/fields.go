//go:build ignore

// Field audit: lists the exported fields of the root module's config
// structs that no non-test code writes, and compares that list with
// tools/fields.allow, which gives one "pkg.Type.Field<TAB>reason" line per
// field kept on purpose.
//
// A config struct is an exported struct type whose name ends in Config,
// Spec or Options, that has a withDefaults method, or that an exported
// Default<Type> function returns. A write is a composite-literal key or
// positional element, the left side of an assignment, an operand of ++ or
// --, or an operand of &, anywhere in the non-test Go files of the root
// module and of bench/, except inside the struct's own withDefaults: a
// default that fills an unset field is not a caller setting it. A selector
// chain such as a.B.C = v writes both B and C.
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
	fmt.Printf("fields: %d exported config fields without a non-test writer, all allowlisted\n", len(unwritten))
}

// audit returns the sorted names of the config fields nothing writes.
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

	// Every exported field of every config struct, and its struct.
	name := map[*types.Var]string{}
	owner := map[*types.Var]types.Type{}
	for _, p := range paths {
		scope := checked[p].Scope()
		for _, tn := range scope.Names() {
			obj, ok := scope.Lookup(tn).(*types.TypeName)
			if !ok || !obj.Exported() || obj.IsAlias() || !isConfig(obj) {
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
				var filler types.Type // the receiver type of a withDefaults
				if fd, ok := d.(*ast.FuncDecl); ok && fd.Recv != nil && fd.Name.Name == "withDefaults" {
					filler = infos[p].Defs[fd.Name].Type().(*types.Signature).Recv().Type()
				}
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

// isConfig reports whether tn names a config struct.
func isConfig(tn *types.TypeName) bool {
	for _, suffix := range []string{"Config", "Spec", "Options"} {
		if strings.HasSuffix(tn.Name(), suffix) {
			return true
		}
	}
	if m, _, _ := types.LookupFieldOrMethod(tn.Type(), true, tn.Pkg(), "withDefaults"); m != nil {
		return true
	}
	f, ok := tn.Pkg().Scope().Lookup("Default" + tn.Name()).(*types.Func)
	if !ok {
		return false
	}
	res := f.Type().(*types.Signature).Results()
	return res.Len() == 1 && types.Identical(res.At(0).Type(), tn.Type())
}

// collectWrites calls write for every struct field that n writes.
func collectWrites(n ast.Node, info *types.Info, write func(*types.Var)) {
	// lvalue writes each field selected along e: x.A.B[i].C writes A, B and C.
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
		}
		return true
	})
}
