package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/build"
	"go/parser"
	"go/token"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
)

// modulePath is the product module whose functions the gate accounts for.
const modulePath = "golts"

// harnessDir is the nested benchmark module. It is built as one more
// binary; its own functions are not accounted for.
const harnessDir = "benchmark"

// Func is one non-test func declaration of the product.
type Func struct {
	Key   string // "internal/sem.Elastic3D.AddKu" or "internal/ckpt.ReadFile"
	File  string // relative to the module root
	Line  int
	Lines int // from the func line to the closing brace
}

// pkg is one package of the product as the default build sees it.
type pkg struct {
	path  string          // import path
	rel   string          // directory relative to the module root
	name  string          // package name
	types map[string]bool // names of its top-level types
	files []*ast.File
	fset  *token.FileSet
}

// Result is what a run found: every product function, the keys the
// binaries link, and the binaries that were built.
type Result struct {
	Funcs    []Func
	Linked   map[string]bool
	Binaries []string
}

// Unlinked returns the functions no binary links, in key order.
func (r *Result) Unlinked() []Func {
	var out []Func
	for _, f := range r.Funcs {
		if !r.Linked[f.Key] {
			out = append(out, f)
		}
	}
	return out
}

// Analyse builds every main package of the module at root, the
// benchmark harness and a generated root over the exported API of wave,
// all without inlining, and matches their text symbols against the
// product's func declarations. overlay, when non-nil, maps absolute
// file paths to replacement files, as go build -overlay does; the
// declaration scan sees it too.
func Analyse(root string, overlay map[string]string) (*Result, error) {
	root, err := filepath.Abs(root)
	if err != nil {
		return nil, err
	}
	pkgs, err := scan(root, overlay)
	if err != nil {
		return nil, err
	}
	tmp, err := os.MkdirTemp("", "reach-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(tmp)
	flags := []string{"build", "-gcflags=all=-l"}
	if overlay != nil {
		b, err := json.Marshal(map[string]any{"Replace": overlay})
		if err != nil {
			return nil, err
		}
		ov := filepath.Join(tmp, "overlay.json")
		if err := os.WriteFile(ov, b, 0o644); err != nil {
			return nil, err
		}
		flags = append(flags, "-overlay", ov)
	}

	// What to build: the directory to build in, the name to report, and
	// the import path that the binary's "main." symbols stand for.
	type binary struct{ dir, name, mainPath string }
	var bins []binary
	for _, p := range pkgs {
		if p.name == "main" {
			bins = append(bins, binary{filepath.Join(root, p.rel), p.rel, p.path})
		}
	}
	bins = append(bins, binary{filepath.Join(root, harnessDir), harnessDir, modulePath + "/" + harnessDir})
	api := filepath.Join(tmp, "api")
	if err := writeRoot(api, root, pkgs); err != nil {
		return nil, err
	}
	bins = append(bins, binary{api, "wave API root", "main"})

	res := &Result{Linked: map[string]bool{}, Funcs: funcs(root, pkgs)}
	for i, b := range bins {
		out := filepath.Join(tmp, fmt.Sprint("bin", i))
		if err := run(b.dir, append(flags[:len(flags):len(flags)], "-o", out, ".")...); err != nil {
			return nil, err
		}
		syms, err := textSymbols(out)
		if err != nil {
			return nil, err
		}
		for _, s := range syms {
			if strings.HasPrefix(s, "main.") {
				s = b.mainPath + s[len("main"):]
			}
			if k := symbolKey(s, pkgs); k != "" {
				res.Linked[k] = true
			}
		}
		res.Binaries = append(res.Binaries, b.name)
	}
	return res, nil
}

// run runs the go command in dir and folds its output into the error.
func run(dir string, args ...string) error {
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	cmd.Env = append(os.Environ(), "GOWORK=off")
	out, err := cmd.CombinedOutput()
	if err != nil {
		return fmt.Errorf("go %s in %s: %v\n%s", strings.Join(args, " "), dir, err, out)
	}
	return nil
}

// scan parses the non-test files of every product package that the
// default build context compiles. Nested modules (benchmark/, tools/...)
// and testdata are not product.
func scan(root string, overlay map[string]string) ([]*pkg, error) {
	ctx := build.Default
	ctx.OpenFile = func(name string) (io.ReadCloser, error) {
		if o, ok := overlay[name]; ok {
			name = o
		}
		return os.Open(name)
	}
	added := map[string][]string{} // dir -> overlay files not on disk
	for name := range overlay {
		if _, err := os.Stat(name); os.IsNotExist(err) {
			added[filepath.Dir(name)] = append(added[filepath.Dir(name)], filepath.Base(name))
		}
	}

	var pkgs []*pkg
	fset := token.NewFileSet()
	err := filepath.WalkDir(root, func(dir string, d os.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if dir != root {
			base := d.Name()
			if base == "testdata" || strings.HasPrefix(base, ".") || strings.HasPrefix(base, "_") {
				return filepath.SkipDir
			}
			if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
				return filepath.SkipDir
			}
		}
		ents, err := os.ReadDir(dir)
		if err != nil {
			return err
		}
		names := append([]string{}, added[dir]...)
		for _, e := range ents {
			if !e.IsDir() {
				names = append(names, e.Name())
			}
		}
		sort.Strings(names)
		rel, _ := filepath.Rel(root, dir)
		p := &pkg{rel: filepath.ToSlash(rel), path: modulePath + "/" + filepath.ToSlash(rel), fset: fset, types: map[string]bool{}}
		for _, n := range names {
			if !strings.HasSuffix(n, ".go") || strings.HasSuffix(n, "_test.go") {
				continue
			}
			ok, err := ctx.MatchFile(dir, n)
			if err != nil {
				return err
			}
			if !ok {
				continue
			}
			full := filepath.Join(dir, n)
			src := full
			if o, ok := overlay[full]; ok {
				src = o
			}
			b, err := os.ReadFile(src)
			if err != nil {
				return err
			}
			f, err := parser.ParseFile(fset, full, b, parser.SkipObjectResolution)
			if err != nil {
				return err
			}
			p.name = f.Name.Name
			p.files = append(p.files, f)
			for _, decl := range f.Decls {
				if g, ok := decl.(*ast.GenDecl); ok && g.Tok == token.TYPE {
					for _, s := range g.Specs {
						p.types[s.(*ast.TypeSpec).Name.Name] = true
					}
				}
			}
		}
		if len(p.files) > 0 && dir != root {
			pkgs = append(pkgs, p)
		}
		return nil
	})
	return pkgs, err
}

// funcs lists every func declaration of pkgs except init.
func funcs(root string, pkgs []*pkg) []Func {
	var out []Func
	for _, p := range pkgs {
		for _, f := range p.files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || (fd.Recv == nil && fd.Name.Name == "init") {
					continue
				}
				key := p.rel + "."
				if fd.Recv != nil {
					key += recvName(fd.Recv.List[0].Type) + "."
				}
				key += fd.Name.Name
				start := p.fset.Position(fd.Pos())
				end := p.fset.Position(fd.End())
				file, _ := filepath.Rel(root, start.Filename)
				out = append(out, Func{Key: key, File: filepath.ToSlash(file), Line: start.Line, Lines: end.Line - start.Line + 1})
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out
}

// recvName is the receiver's type name without pointer or type parameters.
func recvName(e ast.Expr) string {
	for {
		switch t := e.(type) {
		case *ast.StarExpr:
			e = t.X
		case *ast.IndexExpr:
			e = t.X
		case *ast.IndexListExpr:
			e = t.X
		case *ast.ParenExpr:
			e = t.X
		case *ast.Ident:
			return t.Name
		default:
			return ""
		}
	}
}

// writeRoot writes a module at dir whose main takes the value of every
// exported, non-generic function and method of package wave. The values
// go into a slice that main may print, so that the compiler cannot drop
// them: a blank package-level var of the same slice is discarded, and
// every export would then look unlinked.
func writeRoot(dir, root string, pkgs []*pkg) error {
	var api *pkg
	for _, p := range pkgs {
		if p.rel == "wave" {
			api = p
		}
	}
	if api == nil {
		return fmt.Errorf("no package wave under %s", root)
	}
	var refs []string
	for _, f := range api.files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || !fd.Name.IsExported() || fd.Type.TypeParams != nil {
				continue
			}
			if fd.Recv == nil {
				refs = append(refs, "wave."+fd.Name.Name)
				continue
			}
			t := fd.Recv.List[0].Type
			star, ptr := t.(*ast.StarExpr)
			if ptr {
				t = star.X
			}
			id, ok := t.(*ast.Ident)
			if !ok || !id.IsExported() {
				continue // generic or unexported receiver
			}
			if ptr {
				refs = append(refs, "(*wave."+id.Name+")."+fd.Name.Name)
			} else {
				refs = append(refs, "wave."+id.Name+"."+fd.Name.Name)
			}
		}
	}
	sort.Strings(refs)
	var src bytes.Buffer
	src.WriteString("package main\n\nimport (\n\t\"fmt\"\n\t\"os\"\n\n\t\"" + api.path + "\"\n)\n\nfunc main() {\n\troots := []any{\n")
	for _, r := range refs {
		src.WriteString("\t\t" + r + ",\n")
	}
	src.WriteString("\t}\n\tif len(os.Args) > 1 {\n\t\tfmt.Println(roots...)\n\t}\n}\n")
	mod := fmt.Sprintf("module apiroot\n\ngo 1.21\n\nrequire %s v0.0.0\n\nreplace %s => %s\n", modulePath, modulePath, root)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(dir, "go.mod"), []byte(mod), 0o644); err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "main.go"), src.Bytes(), 0o644)
}

// textSymbols lists the text symbols of a binary, each name whole: a
// generic instantiation's name may hold spaces ("go.shape.struct { ... }").
func textSymbols(bin string) ([]string, error) {
	out, err := exec.Command("go", "tool", "nm", bin).Output()
	if err != nil {
		return nil, fmt.Errorf("go tool nm %s: %v", bin, err)
	}
	var syms []string
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(make([]byte, 1<<16), 1<<22)
	for sc.Scan() {
		if name, ok := textSymbol(sc.Text()); ok {
			syms = append(syms, name)
		}
	}
	return syms, sc.Err()
}

// textSymbol parses one go tool nm line ("  4a1b20 T name with spaces")
// and reports the name if the symbol is text.
func textSymbol(line string) (string, bool) {
	f := strings.TrimLeft(line, " ")
	addr := strings.IndexByte(f, ' ')
	if addr < 0 || len(f) < addr+3 || f[addr+2] != ' ' {
		return "", false
	}
	if t := f[addr+1]; t != 'T' && t != 't' {
		return "", false
	}
	return f[addr+3:], true
}

// symbolKey maps a text symbol to the key of the product function it
// belongs to, or "" when it belongs to none. Closures, method-value
// wrappers (-fm), assembly ABI wrappers (.abi0) and generic
// instantiations (Name[shape...]) all map to their declaring function.
func symbolKey(sym string, pkgs []*pkg) string {
	var p *pkg
	for _, q := range pkgs {
		if strings.HasPrefix(sym, q.path+".") && (p == nil || len(q.path) > len(p.path)) {
			p = q
		}
	}
	if p == nil {
		return ""
	}
	rest := sym[len(p.path)+1:]
	if strings.HasPrefix(rest, "(*") {
		j := closing(rest, 0)
		if j < 0 || j+1 >= len(rest) || rest[j+1] != '.' {
			return ""
		}
		recv := rest[2:j]
		if k := strings.IndexByte(recv, '['); k >= 0 {
			recv = recv[:k]
		}
		m := ident(rest[j+2:])
		if m == "" {
			return ""
		}
		return p.rel + "." + recv + "." + m
	}
	first := ident(rest)
	if first == "" {
		return ""
	}
	rest = rest[len(first):]
	if strings.HasPrefix(rest, "[") {
		j := closing(rest, 0)
		if j < 0 {
			return ""
		}
		rest = rest[j+1:]
	}
	if strings.HasPrefix(rest, ".") && p.types[first] {
		if m := ident(rest[1:]); m != "" {
			return p.rel + "." + first + "." + m
		}
	}
	return p.rel + "." + first
}

// closing returns the index of the bracket that closes s[open], counting
// nested () and [], or -1.
func closing(s string, open int) int {
	depth := 0
	for i := open; i < len(s); i++ {
		switch s[i] {
		case '(', '[':
			depth++
		case ')', ']':
			depth--
			if depth == 0 {
				return i
			}
		}
	}
	return -1
}

// ident returns the Go identifier at the start of s.
func ident(s string) string {
	i := 0
	for i < len(s) {
		c := s[i]
		if c == '_' || c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || i > 0 && c >= '0' && c <= '9' || c >= 0x80 {
			i++
			continue
		}
		break
	}
	return s[:i]
}
