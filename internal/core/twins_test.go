package core

import (
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"strings"
	"testing"
)

// TestOneEntryPointPerStage guards the pipeline packages against twins
// growing back: no exported function or method X may sit next to an XCtx
// form, and internal/core may open an obs stage span only inside the stage
// handle (stage.go), exactly once.
func TestOneEntryPointPerStage(t *testing.T) {
	startStage := map[string]int{} // core file → StartStage call sites
	for _, dir := range []string{".", "../cluster", "../sim"} {
		files, err := filepath.Glob(filepath.Join(dir, "*.go"))
		if err != nil {
			t.Fatal(err)
		}
		funcs := map[string]bool{} // "Recv.Name", or ".Name" for functions
		fset := token.NewFileSet()
		for _, path := range files {
			if strings.HasSuffix(path, "_test.go") {
				continue
			}
			f, err := parser.ParseFile(fset, path, nil, 0)
			if err != nil {
				t.Fatal(err)
			}
			for _, d := range f.Decls {
				if fd, ok := d.(*ast.FuncDecl); ok {
					funcs[recvType(fd)+"."+fd.Name.Name] = true
				}
			}
			if dir != "." {
				continue
			}
			ast.Inspect(f, func(n ast.Node) bool {
				if call, ok := n.(*ast.CallExpr); ok {
					if sel, ok := call.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "StartStage" {
						startStage[filepath.Base(path)]++
					}
				}
				return true
			})
		}
		for key := range funcs {
			twin, ok := strings.CutSuffix(key, "Ctx")
			if !ok || !funcs[twin] {
				continue
			}
			if name := twin[strings.LastIndex(twin, ".")+1:]; ast.IsExported(name) {
				t.Errorf("%s: %s has a non-ctx twin %s", dir, key, twin)
			}
		}
	}
	if len(startStage) != 1 || startStage["stage.go"] != 1 {
		t.Errorf("StartStage call sites in internal/core: %v, want exactly one, in stage.go", startStage)
	}
}

// recvType names a method's receiver type ("" for a plain function).
func recvType(fd *ast.FuncDecl) string {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return ""
	}
	typ := fd.Recv.List[0].Type
	if star, ok := typ.(*ast.StarExpr); ok {
		typ = star.X
	}
	if ix, ok := typ.(*ast.IndexExpr); ok {
		typ = ix.X
	}
	if id, ok := typ.(*ast.Ident); ok {
		return id.Name
	}
	return ""
}
