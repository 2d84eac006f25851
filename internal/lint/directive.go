package lint

import (
	"fmt"
	"go/ast"
	"slices"
	"strings"
)

// allowDirective is one parsed //ags:allow(check, reason) suppression.
type allowDirective struct {
	file   string // module-root-relative
	line   int    // the directive's own line
	target int    // the line it suppresses: its own, or the code line after its comment group
	col    int
	check  string
	reason string
	used   bool
}

// applyDirectives filters raw findings through the //ags:allow suppressions
// found in pkgs and appends directive findings: malformed //ags: comments,
// //ags:hotpath markers outside function doc comments, and suppressions that
// matched nothing, so a fixed finding cannot leave its excuse behind.
func applyDirectives(pkgs []*Package, raw []Finding) []Finding {
	var allows []*allowDirective
	var out []Finding

	for _, pkg := range pkgs {
		hotpathDocs := funcDocComments(pkg)
		for _, file := range pkg.Files {
			for _, cg := range file.Comments {
				_, groupEnd, _ := pkg.Position(cg.End())
				for _, c := range cg.List {
					text, ok := strings.CutPrefix(c.Text, "//ags:")
					if !ok {
						continue
					}
					fname, line, col := pkg.Position(c.Pos())
					if text == "hotpath" {
						if !hotpathDocs[c] {
							out = append(out, Finding{
								File: fname, Line: line, Col: col, Check: checkDirective,
								Message: "//ags:hotpath must appear in a function's doc comment",
							})
						}
						continue
					}
					check, reason, perr := parseAllow(text)
					if perr != "" {
						out = append(out, Finding{
							File: fname, Line: line, Col: col, Check: checkDirective,
							Message: perr,
						})
						continue
					}
					if !slices.Contains(allowable, check) {
						out = append(out, Finding{
							File: fname, Line: line, Col: col, Check: checkDirective,
							Message: fmt.Sprintf("//ags:allow names unknown check %q (known: %s)", check, strings.Join(allowable, ", ")),
						})
						continue
					}
					// A trailing comment suppresses its own line; a comment
					// block above a statement suppresses the line right after
					// the block, so stacked directives all reach it.
					allows = append(allows, &allowDirective{
						file: fname, line: line, target: groupEnd + 1,
						col: col, check: check, reason: reason,
					})
				}
			}
		}
	}

	for _, f := range raw {
		suppressed := false
		for _, a := range allows {
			if a.check == f.Check && a.file == f.File && (a.line == f.Line || a.target == f.Line) {
				a.used = true
				suppressed = true
			}
		}
		if !suppressed {
			out = append(out, f)
		}
	}

	for _, a := range allows {
		if !a.used {
			out = append(out, Finding{
				File: a.file, Line: a.line, Col: a.col, Check: checkDirective,
				Message: fmt.Sprintf("//ags:allow(%s, ...) suppresses nothing here — remove the stale directive", a.check),
			})
		}
	}
	return out
}

// parseAllow parses the text after "//ags:" for the allow form, returning a
// non-empty error message on malformed input. The reason may contain commas;
// only the first comma separates it from the check name.
func parseAllow(text string) (check, reason, errMsg string) {
	const malformed = "malformed //ags: directive — expected //ags:hotpath or //ags:allow(check, reason)"
	body, ok := strings.CutPrefix(text, "allow(")
	if !ok {
		return "", "", malformed
	}
	body, ok = strings.CutSuffix(strings.TrimRight(body, " \t"), ")")
	if !ok {
		return "", "", malformed
	}
	check, reason, ok = strings.Cut(body, ",")
	check = strings.TrimSpace(check)
	reason = strings.TrimSpace(reason)
	if !ok || check == "" || reason == "" {
		return "", "", "//ags:allow requires a check name and a non-empty reason: //ags:allow(check, reason)"
	}
	return check, reason, ""
}

// funcDocComments returns the set of comments that live inside a function
// declaration's doc comment — the only valid home for //ags:hotpath.
func funcDocComments(pkg *Package) map[*ast.Comment]bool {
	docs := make(map[*ast.Comment]bool)
	for _, file := range pkg.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Doc == nil {
				continue
			}
			for _, c := range fd.Doc.List {
				docs[c] = true
			}
		}
	}
	return docs
}

// isHotpath reports whether the function declaration opts into the hotalloc
// check via //ags:hotpath in its doc comment.
func isHotpath(fd *ast.FuncDecl) bool {
	if fd.Doc == nil {
		return false
	}
	for _, c := range fd.Doc.List {
		if c.Text == "//ags:hotpath" {
			return true
		}
	}
	return false
}
