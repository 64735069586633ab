package doccheck

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// repoRoot walks up from the package directory to the module root (the
// directory holding go.mod), so the checks work from any test cwd.
func repoRoot(t *testing.T) string {
	t.Helper()
	dir, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			t.Fatal("go.mod not found above the test directory")
		}
		dir = parent
	}
}

// markdownFiles lists the documents under link protection: the top-level
// markdown files and everything in docs/.
func markdownFiles(t *testing.T, root string) []string {
	t.Helper()
	files := []string{"README.md", "ROADMAP.md"}
	entries, err := os.ReadDir(filepath.Join(root, "docs"))
	if err != nil {
		t.Fatalf("reading docs/: %v", err)
	}
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), ".md") {
			files = append(files, filepath.Join("docs", e.Name()))
		}
	}
	return files
}

var mdLink = regexp.MustCompile(`\]\(([^)\s]+)\)`)

// TestMarkdownLinksResolve: every relative markdown link in README,
// ROADMAP and docs/ must point at an existing file or directory. External
// (http/https/mailto) links and pure in-page anchors are skipped.
func TestMarkdownLinksResolve(t *testing.T) {
	root := repoRoot(t)
	for _, rel := range markdownFiles(t, root) {
		blob, err := os.ReadFile(filepath.Join(root, rel))
		if err != nil {
			t.Errorf("%s: %v", rel, err)
			continue
		}
		for _, m := range mdLink.FindAllStringSubmatch(string(blob), -1) {
			target := m[1]
			if strings.HasPrefix(target, "http://") || strings.HasPrefix(target, "https://") ||
				strings.HasPrefix(target, "mailto:") || strings.HasPrefix(target, "#") {
				continue
			}
			if i := strings.IndexByte(target, '#'); i >= 0 {
				target = target[:i]
			}
			if target == "" {
				continue
			}
			resolved := filepath.Join(root, filepath.Dir(rel), target)
			if _, err := os.Stat(resolved); err != nil {
				t.Errorf("%s: broken link %q (resolved %s)", rel, m[1], resolved)
			}
		}
	}
}

// TestExportedSymbolsDocumented: every exported top-level identifier in
// the public nd package must carry a doc comment — the package is the
// library's face, and an undocumented export is an API regression. A doc
// comment on a grouped const/var/type declaration covers its members.
func TestExportedSymbolsDocumented(t *testing.T) {
	root := repoRoot(t)
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, filepath.Join(root, "nd"), func(fi os.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	for _, pkg := range pkgs {
		for fname, file := range pkg.Files {
			for _, decl := range file.Decls {
				switch d := decl.(type) {
				case *ast.FuncDecl:
					if d.Recv == nil && d.Name.IsExported() && d.Doc == nil {
						t.Errorf("%s: exported function %s has no doc comment",
							relPos(fset, root, d.Pos(), fname), d.Name.Name)
					}
				case *ast.GenDecl:
					checkGenDecl(t, fset, root, fname, d)
				}
			}
		}
	}
}

func checkGenDecl(t *testing.T, fset *token.FileSet, root, fname string, d *ast.GenDecl) {
	t.Helper()
	groupDoc := d.Doc != nil
	for _, spec := range d.Specs {
		switch sp := spec.(type) {
		case *ast.TypeSpec:
			if sp.Name.IsExported() && !groupDoc && sp.Doc == nil && sp.Comment == nil {
				t.Errorf("%s: exported type %s has no doc comment",
					relPos(fset, root, sp.Pos(), fname), sp.Name.Name)
			}
		case *ast.ValueSpec:
			for _, name := range sp.Names {
				if name.IsExported() && !groupDoc && sp.Doc == nil && sp.Comment == nil {
					t.Errorf("%s: exported %s has no doc comment",
						relPos(fset, root, sp.Pos(), fname), name.Name)
				}
			}
		}
	}
}

// TestRequiredDocSections: the hot-path, sharding, service and
// observability layers must stay documented — the architecture guide
// needs its Hot path & exact mode, Sharded execution, Service layer and
// Observability sections, and the README must cover the exact-mode flag,
// the shard/merge/journal flags, the ndd daemon (flags and endpoints),
// the progress flag, the profiling flags and the benchmark trajectory
// workflow. A doc that silently drops one of these would strand the
// features it explains.
func TestRequiredDocSections(t *testing.T) {
	root := repoRoot(t)
	requirements := map[string][]string{
		"docs/ARCHITECTURE.md": {
			"## Hot path & exact mode",
			"Scratch",
			"exact_mode",
			"batch windows",
			"## Sharded execution",
			"ndshard/1",
			"ndjournal/1",
			"continuation",
			"## Service layer",
			"POST /v1/jobs",
			"singleflight",
			"result_cache_hit",
			"Last-Event-ID",
			"resumed_points",
			"## Observability",
			"RunMetrics",
			"StripRuntime",
			"BENCH_",
			"## Correctness tooling",
			"nodeterminism",
			"maprange",
			"intaccum",
			"atomicfields",
			"goldenpurity",
			"ndlint.json",
			"cmd/ndlint",
		},
		"README.md": {
			"-exact",
			"exact_mode",
			"-shard",
			"-merge",
			"-snapshot",
			"-resume",
			"-journal",
			"-strip",
			"ndshard/1",
			"## The ndd daemon",
			"-addr",
			"-runners",
			"/v1/jobs",
			"/healthz",
			"Retry-After",
			"-progress",
			"-cpuprofile",
			"-memprofile",
			"-trace",
			"ndbench",
			"BENCH_",
			"ndlint",
			"ndlint.json",
			"docs/ARCHITECTURE.md",
		},
	}
	for rel, wants := range requirements {
		blob, err := os.ReadFile(filepath.Join(root, rel))
		if err != nil {
			t.Errorf("%s: %v", rel, err)
			continue
		}
		text := string(blob)
		for _, want := range wants {
			if !strings.Contains(text, want) {
				t.Errorf("%s: required documentation %q missing", rel, want)
			}
		}
	}
}

func relPos(fset *token.FileSet, root string, pos token.Pos, fallback string) string {
	p := fset.Position(pos)
	if p.Filename == "" {
		return fallback
	}
	if rel, err := filepath.Rel(root, p.Filename); err == nil {
		return rel + ":" + strconv.Itoa(p.Line)
	}
	return p.Filename
}

// docPackages maps the package names the documents cite as `pkg.X` to
// their directories under the module root.
var docPackages = map[string]string{
	"sim":    "internal/sim",
	"engine": "internal/engine",
	"obs":    "internal/obs",
	"eval":   "internal/eval",
	"nd":     "nd",
}

var (
	codeSpan = regexp.MustCompile("`[^`\n]+`")
	pkgRef   = regexp.MustCompile(`\b(sim|engine|obs|eval|nd)\.([A-Z]\w*)(?:\.([A-Z]\w*))?`)
)

// pkgDecls is one package's top-level declarations: every declared name,
// plus the fields and methods of its locally defined types (nil members
// for aliases and structs with embedded fields, whose member sets are not
// known locally).
type pkgDecls struct {
	names   map[string]bool
	members map[string]map[string]bool
}

func parseDecls(t *testing.T, dir string) pkgDecls {
	t.Helper()
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, dir, func(fi os.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	d := pkgDecls{names: map[string]bool{}, members: map[string]map[string]bool{}}
	var methods [][2]string
	for _, pkg := range pkgs {
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				switch decl := decl.(type) {
				case *ast.FuncDecl:
					if decl.Recv == nil {
						d.names[decl.Name.Name] = true
						continue
					}
					recv := decl.Recv.List[0].Type
					if star, ok := recv.(*ast.StarExpr); ok {
						recv = star.X
					}
					if id, ok := recv.(*ast.Ident); ok {
						methods = append(methods, [2]string{id.Name, decl.Name.Name})
					}
				case *ast.GenDecl:
					for _, spec := range decl.Specs {
						switch sp := spec.(type) {
						case *ast.TypeSpec:
							d.names[sp.Name.Name] = true
							if sp.Assign.IsValid() {
								continue // alias: members live elsewhere
							}
							set := map[string]bool{}
							if st, ok := sp.Type.(*ast.StructType); ok {
								for _, f := range st.Fields.List {
									if len(f.Names) == 0 {
										set = nil // embedded: promoted members
										break
									}
									for _, n := range f.Names {
										set[n.Name] = true
									}
								}
							}
							d.members[sp.Name.Name] = set
						case *ast.ValueSpec:
							for _, n := range sp.Names {
								d.names[n.Name] = true
							}
						}
					}
				}
			}
		}
	}
	for _, m := range methods {
		if set := d.members[m[0]]; set != nil {
			set[m[1]] = true
		}
	}
	return d
}

// TestDocIdentifiersResolve: every backticked `pkg.X` (or `pkg.X.Y`) in
// README, ROADMAP and docs/ for the sim, engine, obs, eval and nd
// packages must name a top-level declaration of that package — and Y a
// field or method of the type X — so a rename or deletion cannot leave
// the documents pointing at code that no longer exists.
func TestDocIdentifiersResolve(t *testing.T) {
	root := repoRoot(t)
	decls := map[string]pkgDecls{}
	for name, dir := range docPackages {
		decls[name] = parseDecls(t, filepath.Join(root, dir))
	}
	for _, rel := range markdownFiles(t, root) {
		blob, err := os.ReadFile(filepath.Join(root, rel))
		if err != nil {
			t.Errorf("%s: %v", rel, err)
			continue
		}
		for _, span := range codeSpan.FindAllString(string(blob), -1) {
			for _, m := range pkgRef.FindAllStringSubmatch(span, -1) {
				d := decls[m[1]]
				if !d.names[m[2]] {
					t.Errorf("%s: %s names no declaration of package %s", rel, span, m[1])
					continue
				}
				if set := d.members[m[2]]; m[3] != "" && set != nil && !set[m[3]] {
					t.Errorf("%s: %s names no field or method of %s.%s", rel, span, m[1], m[2])
				}
			}
		}
	}
}
