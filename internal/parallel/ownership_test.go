package parallel

import (
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// syncOwners are the only packages whose values a second goroutine can
// reach: the metrics registry every worker publishes into, and this
// package's own pool state. Every other value has one owner: a worker
// builds its own clock → drive → disk → server stack and touches nothing
// else but read-only inputs, so it needs no lock.
var syncOwners = map[string]bool{
	"internal/metrics":  true,
	"internal/parallel": true,
}

// TestOnlySyncOwnersImportSync keeps the ownership rule: no package of
// the module outside syncOwners imports sync or sync/atomic in non-test
// code. A lock elsewhere would either hide state shared between workers
// (which the rule forbids) or guard state that has one owner (which
// costs time for nothing). Nested modules are skipped; they have their
// own rules.
func TestOnlySyncOwnersImportSync(t *testing.T) {
	root := moduleRoot(t)
	fset := token.NewFileSet()
	files, seen := 0, map[string]bool{}
	err := filepath.WalkDir(root, func(path string, e fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if e.IsDir() {
			name := e.Name()
			if path != root && (strings.HasPrefix(name, ".") || name == "testdata" || exists(filepath.Join(path, "go.mod"))) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		f, err := parser.ParseFile(fset, path, nil, parser.ImportsOnly)
		if err != nil {
			return err
		}
		files++
		if dir := filepath.ToSlash(filepath.Dir(rel)); syncOwners[dir] {
			seen[dir] = true
			return nil
		}
		for _, imp := range f.Imports {
			p, err := strconv.Unquote(imp.Path.Value)
			if err != nil {
				return err
			}
			if p == "sync" || p == "sync/atomic" {
				t.Errorf("%s imports %q: only internal/metrics and internal/parallel may; give each goroutine its own state instead",
					filepath.ToSlash(rel), p)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if files == 0 {
		t.Fatalf("no Go files found under %s", root)
	}
	for dir := range syncOwners {
		if !seen[dir] {
			t.Errorf("sync owner %s has no non-test Go files; drop it from syncOwners", dir)
		}
	}
}

// moduleRoot returns the nearest directory at or above the working
// directory that holds a go.mod.
func moduleRoot(t *testing.T) string {
	t.Helper()
	dir, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	for !exists(filepath.Join(dir, "go.mod")) {
		parent := filepath.Dir(dir)
		if parent == dir {
			t.Fatal("no go.mod above the working directory")
		}
		dir = parent
	}
	return dir
}

func exists(path string) bool {
	_, err := os.Stat(path)
	return err == nil
}
