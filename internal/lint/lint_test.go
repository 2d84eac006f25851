package lint

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// corpusConfig analyzes the golden corpus under testdata/src with the same
// shape of configuration the real tree uses: a critical-prefix scope and a
// goroutine-site allowlist.
func corpusConfig(t *testing.T) Config {
	t.Helper()
	dir, err := filepath.Abs(filepath.Join("testdata", "src"))
	if err != nil {
		t.Fatal(err)
	}
	return Config{
		Dir:              dir,
		CriticalPrefixes: []string{"x/crit/"},
		GoroutineSites: map[string]bool{
			"x/crit/gr.ApprovedLaunch":          true,
			"x/crit/methodsite.(*Pool).dialAll": true,
		},
	}
}

// mark is one expected finding: a "want <check...>" marker in a corpus file.
type mark struct {
	file  string // corpus-root-relative, forward slashes
	line  int
	check string
}

func (m mark) String() string { return fmt.Sprintf("%s:%d [%s]", m.file, m.line, m.check) }

// wantMarks parses every corpus file and collects its want markers. A marker
// is any comment whose text starts with "want " followed by space-separated
// check names; it expects those findings on its own line. Block-comment
// markers (/* want directive */) let directive-diagnostic lines carry a
// marker without the marker text being swallowed into the directive.
func wantMarks(t *testing.T, root string) []mark {
	t.Helper()
	var marks []mark
	fset := token.NewFileSet()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") {
			return err
		}
		file, perr := parser.ParseFile(fset, path, nil, parser.ParseComments)
		if perr != nil {
			return perr
		}
		rel, rerr := filepath.Rel(root, path)
		if rerr != nil {
			return rerr
		}
		rel = filepath.ToSlash(rel)
		for _, cg := range file.Comments {
			for _, c := range cg.List {
				text := strings.TrimSpace(strings.TrimSuffix(strings.TrimPrefix(strings.TrimPrefix(c.Text, "/*"), "//"), "*/"))
				checks, ok := strings.CutPrefix(text, "want ")
				if !ok {
					continue
				}
				line := fset.Position(c.Pos()).Line
				for _, check := range strings.Fields(checks) {
					marks = append(marks, mark{file: rel, line: line, check: check})
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return marks
}

// TestGoldenCorpus runs every check over the corpus and diffs the findings
// against the want markers in both directions: a finding without a marker is
// a false positive, a marker without a finding is a false negative. The
// x/crit/enginesbroken package is the acceptance golden: it reproduces the
// pre-fix SimulateLogging hot-set ranking, so deleting the sorted-ranking
// fix from the real tree recreates a shape this test proves ags-vet flags.
func TestGoldenCorpus(t *testing.T) {
	cfg := corpusConfig(t)
	findings, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}

	got := make(map[mark]bool)
	for _, f := range findings {
		got[mark{file: f.File, line: f.Line, check: f.Check}] = true
	}
	want := make(map[mark]bool)
	for _, m := range wantMarks(t, cfg.Dir) {
		want[m] = true
	}

	var missing, extra []string
	for m := range want {
		if !got[m] {
			missing = append(missing, m.String())
		}
	}
	for m := range got {
		if !want[m] {
			extra = append(extra, m.String())
		}
	}
	sort.Strings(missing)
	sort.Strings(extra)
	for _, m := range missing {
		t.Errorf("expected finding not reported: %s", m)
	}
	for _, m := range extra {
		t.Errorf("unexpected finding: %s", m)
	}
	if t.Failed() {
		for _, f := range findings {
			t.Logf("reported: %s", f)
		}
	}
}

// TestBrokenHotSetIsCaught pins the ISSUE acceptance criterion explicitly:
// the pre-fix SimulateLogging shapes (order-dependent admission, and
// collect-without-sort — i.e. the fixed shape with its slices.SortFunc call
// deleted) must each produce a maprange finding, while the repaired shape in
// x/crit/enginesfixed stays clean with no suppression.
func TestBrokenHotSetIsCaught(t *testing.T) {
	findings, err := Run(corpusConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	broken := 0
	for _, f := range findings {
		switch {
		case strings.HasPrefix(f.File, "crit/enginesfixed/"):
			t.Errorf("fixed hot-set ranking flagged: %s", f)
		case strings.HasPrefix(f.File, "crit/enginesbroken/") && f.Check == CheckMapRange:
			broken++
		}
	}
	if broken != 2 {
		t.Errorf("want 2 maprange findings in crit/enginesbroken, got %d", broken)
	}
}

// TestFindingString pins the file:line:col: [check] message format the CLI,
// CI log matchers and editors rely on.
func TestFindingString(t *testing.T) {
	f := Finding{File: "internal/splat/render.go", Line: 42, Col: 7, Check: CheckHotAlloc, Message: "make allocates"}
	want := "internal/splat/render.go:42:7: [hotalloc] make allocates"
	if got := f.String(); got != want {
		t.Errorf("Finding.String() = %q, want %q", got, want)
	}
}

// TestRepoIsClean is the self-test: ags-vet over this repository must report
// nothing. Every real finding has been fixed or carries a written
// //ags:allow justification, and stale suppressions are findings themselves,
// so this test failing means a contract regression (or a leftover excuse)
// snuck into the tree.
func TestRepoIsClean(t *testing.T) {
	findings, err := Run(Config{Dir: repoRoot(t)})
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range findings {
		t.Errorf("repo not vet-clean: %s", f)
	}
}

func repoRoot(t *testing.T) string {
	t.Helper()
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(root, "go.mod")); err != nil {
		t.Fatalf("repo root not found: %v", err)
	}
	return root
}

// TestGoroutineSitesAreLive checks the allowlist against the tree: every
// DefaultGoroutineSites key must name a function that still contains a go
// statement, so an entry whose launch site was removed or renamed fails here
// instead of silently approving whatever lands under that name later.
func TestGoroutineSitesAreLive(t *testing.T) {
	pkgs, module, err := load(repoRoot(t))
	if err != nil {
		t.Fatal(err)
	}
	launches := make(map[string]bool)
	for _, pkg := range pkgs {
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				ast.Inspect(fd.Body, func(n ast.Node) bool {
					if _, ok := n.(*ast.GoStmt); ok {
						launches[pkg.Path+"."+funcKey(fd)] = true
					}
					return true
				})
			}
		}
	}
	sites := DefaultGoroutineSites(module)
	keys := make([]string, 0, len(sites))
	for key := range sites {
		keys = append(keys, key)
	}
	sort.Strings(keys)
	for _, key := range keys {
		if !launches[key] {
			t.Errorf("goroutine-site allowlist names %s, which has no go statement in the tree", key)
		}
	}
}

// TestSuppressionInventory pins how many //ags:allow directives each check
// has in the code ags-vet analyzes (no tests, no testdata). A new excuse, or
// one that is no longer needed, shows up here as a diff to review. The
// maprange four: two close-every-conn collections (fleet/node.go,
// fleet/chaos) and two integer counts (metrics.FalsePositiveRate, bench
// fig6).
func TestSuppressionInventory(t *testing.T) {
	want := map[string]int{CheckMapRange: 4, CheckNondet: 0, CheckHotAlloc: 0, CheckGoroutine: 0}
	pkgs, _, err := load(repoRoot(t))
	if err != nil {
		t.Fatal(err)
	}
	got := make(map[string]int)
	for _, pkg := range pkgs {
		for _, file := range pkg.Files {
			for _, cg := range file.Comments {
				for _, c := range cg.List {
					if text, ok := strings.CutPrefix(c.Text, "//ags:allow("); ok {
						check, _, _ := strings.Cut(text, ",")
						got[strings.TrimSpace(check)]++
					}
				}
			}
		}
	}
	for _, check := range allowable {
		if got[check] != want[check] {
			t.Errorf("%d //ags:allow(%s, ...) directives in the tree, inventory says %d", got[check], check, want[check])
		}
		delete(got, check)
	}
	for check, n := range got {
		t.Errorf("%d directives name unknown check %q", n, check)
	}
}
