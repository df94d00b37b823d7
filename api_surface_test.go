package powerstack

import (
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

// apiSurfaceAllowed names the exported functions and methods under
// internal/ that no production code names but that stay on purpose, keyed
// "pkgdir.Name" for functions and "pkgdir.Recv.Name" for methods. Most are
// reference oracles or harnesses that tests in more than one package call,
// which a _test.go file cannot export.
var apiSurfaceAllowed = map[string]string{
	"internal/bsp.HostError.Unwrap":           "errors.Is and errors.As call it through the error-chain interface",
	"internal/fault.NewPlan":                  "builds hand-written fault plans for the campaign, cluster, facility, sim and telemetry tests",
	"internal/kernel.Config.TotalWorkPerHost": "builds the 18-rank host phases of the cpumodel and cluster tests and fuzz corpus",
	"internal/kernel.Vectors":                 "the vector widths the root benchmarks and the cpumodel tests sweep",
	"internal/msr.Device.SnapshotWords":       "register-state oracle behind node.Node.SnapshotWords",
	"internal/node.Node.SnapshotWords":        "register-state oracle: the bsp, rm and facility tests compare pools word for word",
	"internal/rapl.Domain.ReadDRAMEnergy":     "DRAM counter decode the rapl and node tests check the DRAM accounting against",
	"internal/rm.Scheduler.CanDispatch":       "dispatch-stable invariant of the facility fuzz target",
	"internal/sim.Runner.RunCell":             "one-cell reference the root paper tests and benchmarks compare the grid against",
}

// surfaceDecl is one exported function or method declared under internal/.
type surfaceDecl struct {
	dir, recv, name string
	pos             token.Position
}

func (d surfaceDecl) key() string {
	if d.recv == "" {
		return d.dir + "." + d.name
	}
	return d.dir + "." + d.recv + "." + d.name
}

// TestNoTestOnlyAPI fails when an exported function or method declared in a
// non-test file under internal/ is named by no non-test file of the module,
// cmd/, examples/ or perfbench/. It reads syntax only (go/parser, no type
// checking), so it decides a use by name:
//   - a function is used when its package names it bare, or another file
//     selects it through an import of its package;
//   - a method is used when any file selects that name (x.Name) or an
//     interface declares it.
//
// Code reached only from tests is deleted or moved into a _test.go file;
// whatever stays regardless is listed in apiSurfaceAllowed with its reason.
func TestNoTestOnlyAPI(t *testing.T) {
	const module = "powerstack"
	fset := token.NewFileSet()
	var decls []surfaceDecl
	bare := map[string]map[string]bool{}      // package dir -> bare identifiers
	qualified := map[string]map[string]bool{} // import path -> selected names
	selected := map[string]bool{}             // every x.Name selector and interface method

	err := filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if p != "." && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		dir := filepath.ToSlash(filepath.Dir(p))
		imports := map[string]string{} // local name -> import path
		for _, im := range f.Imports {
			ip, _ := strconv.Unquote(im.Path.Value)
			local := path.Base(ip)
			if im.Name != nil {
				local = im.Name.Name
			}
			imports[local] = ip
		}
		for _, dcl := range f.Decls {
			fd, ok := dcl.(*ast.FuncDecl)
			if !ok || !fd.Name.IsExported() || !strings.HasPrefix(dir, "internal/") {
				continue
			}
			decls = append(decls, surfaceDecl{dir: dir, recv: recvName(fd), name: fd.Name.Name, pos: fset.Position(fd.Pos())})
		}
		if bare[dir] == nil {
			bare[dir] = map[string]bool{}
		}
		// self is the name of the function being walked: a function naming
		// itself (recursion, or delegation to a same-named method) is not a
		// caller.
		var self string
		var visit func(n ast.Node) bool
		visit = func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				// Sel is a selected name, never a bare use; X is walked
				// on its own.
				if x, ok := n.X.(*ast.Ident); ok {
					if ip, ok := imports[x.Name]; ok {
						if qualified[ip] == nil {
							qualified[ip] = map[string]bool{}
						}
						qualified[ip][n.Sel.Name] = true
					}
				}
				if n.Sel.Name != self {
					selected[n.Sel.Name] = true
				}
				ast.Inspect(n.X, visit)
				return false
			case *ast.InterfaceType:
				for _, m := range n.Methods.List {
					for _, id := range m.Names {
						selected[id.Name] = true
					}
				}
			case *ast.Ident:
				if n.Name != self {
					bare[dir][n.Name] = true
				}
			}
			return true
		}
		for _, dcl := range f.Decls {
			self = ""
			if fd, ok := dcl.(*ast.FuncDecl); ok {
				self = fd.Name.Name
			}
			ast.Inspect(dcl, visit)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	var unused []surfaceDecl
	for _, d := range decls {
		used := selected[d.name]
		if d.recv == "" {
			used = bare[d.dir][d.name] || qualified[module+"/"+d.dir][d.name]
		}
		if !used {
			if _, ok := apiSurfaceAllowed[d.key()]; !ok {
				unused = append(unused, d)
			}
		}
	}
	sort.Slice(unused, func(i, j int) bool { return unused[i].key() < unused[j].key() })
	for _, d := range unused {
		t.Errorf("%s: %s has no caller outside tests; delete it, move it into a _test.go file, or list it in apiSurfaceAllowed with a reason", d.pos, d.key())
	}
	for k := range apiSurfaceAllowed {
		found := false
		for _, d := range decls {
			found = found || d.key() == k
		}
		if !found {
			t.Errorf("apiSurfaceAllowed lists %s, which is not declared any more", k)
		}
	}
}

// recvName is the receiver's type name without pointer or type parameters,
// or "" for a function.
func recvName(fd *ast.FuncDecl) string {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return ""
	}
	x := fd.Recv.List[0].Type
	if s, ok := x.(*ast.StarExpr); ok {
		x = s.X
	}
	switch v := x.(type) {
	case *ast.IndexExpr:
		x = v.X
	case *ast.IndexListExpr:
		x = v.X
	}
	if id, ok := x.(*ast.Ident); ok {
		return id.Name
	}
	return ""
}
