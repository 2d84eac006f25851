// Package lint is the repo-specific static-analysis framework behind the
// ags-vet CLI. It loads every package in the module with the standard
// library's go/parser + go/types toolchain (no external dependencies) and
// enforces the two contracts the rest of the tree is built on:
//
//   - Determinism: every output — trajectories, digests, bench tables,
//     hardware-model numbers — must be byte-identical at every
//     GOMAXPROCS/-jobs/-sessions value, whoever takes a splat pass's tiles.
//     The maprange check flags `range` over a map in determinism-critical
//     packages unless it is the collect-then-sort idiom (see
//     checkMapRange); the nondetsource check
//     flags wall-clock reads (time.Now and friends), the unseeded global
//     math/rand source, and select statements that let the runtime pick
//     between multiple ready cases; the goroutine-site check flags `go`
//     statements outside the approved worker-pool launch sites, so new
//     concurrency cannot bypass the reviewed ordered-reduction designs.
//   - Zero allocation on the hot path: functions marked //ags:hotpath (the
//     splat render/backward/projection/tile kernels and the tracker/mapper
//     inner loops) must not allocate in steady state. The hotalloc check
//     flags make calls, slice/map composite literals, closures, and
//     append growth of function-local slices inside them.
//
// # Directives
//
// Findings are suppressed with source directives only — there is no baseline
// file, so the tree is always clean and every suppression carries a written
// justification next to the code it excuses:
//
//	//ags:allow(check, reason)  — on the finding's line or the line above,
//	                              suppresses that check there. The reason is
//	                              mandatory and should say why the flagged
//	                              construct cannot perturb outputs.
//	//ags:hotpath               — in a function's doc comment, opts the
//	                              function into the hotalloc check.
//
// Malformed //ags: comments and suppressions that no longer match a finding
// are themselves reported (check "directive"), so stale or typoed
// suppressions cannot silently disable enforcement.
//
// # What the checks do NOT see
//
// The analysis is intraprocedural: a call into another function is trusted
// (hotalloc does not follow calls), and maprange admits one loop shape
// rather than proving order-insensitivity, so every other map range carries
// its reason in an //ags:allow. The dynamic gates — the digest-equality
// tests, the -race suite, the allocation budget in
// TestRenderContextAllocationFree — remain the ground truth; ags-vet exists to catch the regression classes
// they historically caught (map-iteration-order nondeterminism in
// engines.SimulateLogging, allocation creep in the splat kernels) before a
// run ever happens.
package lint

import (
	"fmt"
	"sort"
)

// Finding is one reported violation, formatted "file:line:col: [check] msg".
type Finding struct {
	File    string // module-root-relative, forward slashes
	Line    int
	Col     int
	Check   string
	Message string
}

func (f Finding) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", f.File, f.Line, f.Col, f.Check, f.Message)
}

// Check names, in report order.
const (
	CheckMapRange  = "maprange"
	CheckNondet    = "nondetsource"
	CheckHotAlloc  = "hotalloc"
	CheckGoroutine = "goroutine-site"
	checkDirective = "directive" // internal: malformed/stale //ags: comments
)

// allowable lists the checks an //ags:allow directive may name, in the order
// diagnostics print them.
var allowable = []string{CheckMapRange, CheckNondet, CheckHotAlloc, CheckGoroutine}

// Config selects what Run analyzes.
type Config struct {
	// Dir is the module root (the directory holding go.mod).
	Dir string
	// CriticalPrefixes are the import-path prefixes of determinism-critical
	// packages — the scope of maprange, nondetsource and goroutine-site
	// (hotalloc follows //ags:hotpath annotations anywhere). Nil defaults to
	// "<module>/internal/": every internal package feeds the digests.
	CriticalPrefixes []string
	// GoroutineSites is the allowlist of approved `go` launch sites, keyed
	// "importpath.FuncName" or "importpath.(*Type).Method". Nil defaults to
	// DefaultGoroutineSites. New sites either join the list here (reviewed
	// worker pools) or carry an //ags:allow(goroutine-site, reason).
	GoroutineSites map[string]bool
}

// DefaultGoroutineSites returns the approved worker-pool launch sites: the
// places whose goroutines are part of the reviewed deterministic designs
// (each system's mapping tail, whose producer helps its splat passes, the
// bounded batch scheduler, ray-traced dataset generation, a fleet node's
// accept loop and connection handlers).
func DefaultGoroutineSites(module string) map[string]bool {
	return map[string]bool{
		module + "/internal/slam.(*System).startTail":   true, // one mapping tail per system, joined before anything reads or writes the map
		module + "/internal/scene.(*World).RenderFrame": true, // per-row ray tracing, disjoint pixel writes
		module + "/internal/bench.RunBatch":             true, // bounded warm pool, render in plan order
		module + "/internal/fleet.(*Node).StartOn":      true, // single accept-loop goroutine (Start delegates here), joined by Close
		module + "/internal/fleet.(*Node).Serve":        true, // one handler per connection, which runs its session's frames in push order
	}
}

// pass bundles what every check needs for one package.
type pass struct {
	cfg      *Config
	pkg      *Package
	critical bool
	report   func(Finding)
}

// Run loads every package under cfg.Dir and applies every check, returning
// the surviving findings sorted by (file, line, col, check).
// Directive-suppressed findings are dropped; malformed or stale directives
// become findings themselves.
func Run(cfg Config) ([]Finding, error) {
	pkgs, module, err := load(cfg.Dir)
	if err != nil {
		return nil, err
	}
	if cfg.CriticalPrefixes == nil {
		cfg.CriticalPrefixes = []string{module + "/internal/"}
	}
	if cfg.GoroutineSites == nil {
		cfg.GoroutineSites = DefaultGoroutineSites(module)
	}

	var raw []Finding
	for _, pkg := range pkgs {
		p := &pass{
			cfg:      &cfg,
			pkg:      pkg,
			critical: hasPrefix(pkg.Path, cfg.CriticalPrefixes),
			report:   func(f Finding) { raw = append(raw, f) },
		}
		if p.critical {
			checkMapRange(p)
			checkNondetSource(p)
			checkGoroutineSite(p)
		}
		checkHotAlloc(p)
	}

	findings := applyDirectives(pkgs, raw)
	sort.Slice(findings, func(i, j int) bool {
		a, b := findings[i], findings[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		return a.Check < b.Check
	})
	return findings, nil
}

func hasPrefix(path string, prefixes []string) bool {
	for _, p := range prefixes {
		if path == p || (len(path) >= len(p) && path[:len(p)] == p) {
			return true
		}
	}
	return false
}
