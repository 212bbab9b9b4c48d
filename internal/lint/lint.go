// Package lint is dcstream's project-invariant static analyzer. The go
// compiler cannot see the properties the paper's results rest on — that every
// experiment is seed-reproducible, that the center/transport/journal stack
// follows its lock discipline, and that the crash-safety write path never
// discards an error — so this package encodes them as mechanical rules over
// the type-checked AST, stdlib-only (go/ast, go/parser, go/types; the module
// stays dependency-free).
//
// The framework is deliberately small: a Rule is a name plus a function over
// a type-checked Pass; findings carry exact token positions; a finding is
// silenced by a same-line or preceding-line comment
//
//	//dcslint:ignore <rule>[,<rule>...] <reason>
//
// where the reason is mandatory — an undocumented suppression is itself a
// finding. cmd/dcslint runs every rule over the whole module and exits
// non-zero on any unsuppressed finding; the golden corpus under testdata/src
// pins each rule's behaviour analysistest-style (`// want "regexp"`).
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"sort"
	"strings"
)

// Finding is one diagnostic produced by a rule.
type Finding struct {
	// Pos locates the offending token.
	Pos token.Position
	// Rule is the name of the rule that fired.
	Rule string
	// Message states the violated invariant.
	Message string
	// Suppressed is true when a //dcslint:ignore comment covers the finding;
	// SuppressReason is that comment's justification.
	Suppressed     bool
	SuppressReason string
}

func (f Finding) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", f.Pos.Filename, f.Pos.Line, f.Pos.Column, f.Rule, f.Message)
}

// Rule is one named invariant check.
type Rule struct {
	// Name is the identifier used in diagnostics and ignore comments.
	Name string
	// Doc is a one-line statement of the invariant the rule encodes.
	Doc string
	// Run inspects one package and reports findings through the pass.
	Run func(*Pass)
}

// Rules returns the full registry, sorted by name. The slice is fresh on
// every call so callers may filter it freely.
func Rules() []Rule {
	rules := []Rule{
		seededrandRule,
		walltimeRule,
		lockdisciplineRule,
		errcritRule,
		maporderRule,
		gorolifecycleRule,
	}
	sort.Slice(rules, func(i, j int) bool { return rules[i].Name < rules[j].Name })
	return rules
}

// ruleKnown reports whether name is a registered rule.
func ruleKnown(name string) bool {
	for _, r := range Rules() {
		if r.Name == name {
			return true
		}
	}
	return false
}

// Pass is one rule's view of one package.
type Pass struct {
	// Pkg is the loaded, type-checked package under analysis.
	Pkg *Package
	// rule is the running rule's name, stamped on every report.
	rule     string
	findings *[]Finding
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.findings = append(*p.findings, Finding{
		Pos:     p.Pkg.Fset.Position(pos),
		Rule:    p.rule,
		Message: fmt.Sprintf(format, args...),
	})
}

// PathHasSegment reports whether the package's import path contains the
// given path segment — the scoping primitive rules use ("aligned",
// "journal", ...) so they apply identically to the real module and to the
// golden corpus's relative import paths.
func (p *Pass) PathHasSegment(segments ...string) bool {
	for _, seg := range strings.Split(p.Pkg.Path, "/") {
		for _, want := range segments {
			if seg == want {
				return true
			}
		}
	}
	return false
}

// suppression is one parsed //dcslint:ignore comment.
type suppression struct {
	rules  []string
	reason string
	used   bool
	pos    token.Position
}

func (s *suppression) covers(rule string) bool {
	for _, r := range s.rules {
		if r == rule {
			return true
		}
	}
	return false
}

var ignoreRe = regexp.MustCompile(`^//\s*dcslint:ignore\s+(\S+)(?:\s+(.*))?$`)

// collectSuppressions parses every //dcslint:ignore comment in the package.
// A suppression covers findings on its own line (trailing comment) and on
// the immediately following line (comment-above style). Malformed
// suppressions — no reason, or an unknown rule name — are reported as
// findings themselves so the escape hatch stays auditable.
func collectSuppressions(pkg *Package, findings *[]Finding) map[string][]*suppression {
	byFile := make(map[string][]*suppression)
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := ignoreRe.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				reason := strings.TrimSpace(m[2])
				if reason == "" {
					*findings = append(*findings, Finding{
						Pos:     pos,
						Rule:    "dcslint",
						Message: "suppression without a reason; write //dcslint:ignore <rule> <why it is safe>",
					})
					continue
				}
				s := &suppression{rules: strings.Split(m[1], ","), reason: reason, pos: pos}
				for _, r := range s.rules {
					if !ruleKnown(r) {
						*findings = append(*findings, Finding{
							Pos:     pos,
							Rule:    "dcslint",
							Message: fmt.Sprintf("suppression names unknown rule %q", r),
						})
					}
				}
				byFile[pos.Filename] = append(byFile[pos.Filename], s)
			}
		}
	}
	return byFile
}

// applySuppressions marks findings covered by an ignore comment and reports
// ignore comments that cover nothing (stale suppressions rot; they must be
// deleted when the code they excused is fixed).
func applySuppressions(byFile map[string][]*suppression, findings []Finding) []Finding {
	for i := range findings {
		f := &findings[i]
		if f.Rule == "dcslint" {
			continue // meta-findings about suppressions are not suppressible
		}
		for _, s := range byFile[f.Pos.Filename] {
			if !s.covers(f.Rule) {
				continue
			}
			if f.Pos.Line == s.pos.Line || f.Pos.Line == s.pos.Line+1 {
				f.Suppressed = true
				f.SuppressReason = s.reason
				s.used = true
			}
		}
	}
	for _, file := range sortedKeys(byFile) {
		for _, s := range byFile[file] {
			if !s.used {
				findings = append(findings, Finding{
					Pos:     s.pos,
					Rule:    "dcslint",
					Message: fmt.Sprintf("stale suppression: no %s finding on this or the next line", strings.Join(s.rules, "/")),
				})
			}
		}
	}
	return findings
}

func sortedKeys(m map[string][]*suppression) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// RunRules executes the given rules over one package and returns the
// findings — suppressions applied — sorted by position.
func RunRules(pkg *Package, rules []Rule) []Finding {
	var findings []Finding
	for _, r := range rules {
		pass := &Pass{Pkg: pkg, rule: r.Name, findings: &findings}
		r.Run(pass)
	}
	byFile := collectSuppressions(pkg, &findings)
	findings = applySuppressions(byFile, findings)
	sort.Slice(findings, func(i, j int) bool {
		a, b := findings[i].Pos, findings[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Column != b.Column {
			return a.Column < b.Column
		}
		return findings[i].Rule < findings[j].Rule
	})
	return findings
}

// Unsuppressed filters findings down to the ones that should fail a build.
func Unsuppressed(findings []Finding) []Finding {
	var out []Finding
	for _, f := range findings {
		if !f.Suppressed {
			out = append(out, f)
		}
	}
	return out
}

// funcUnit is one lock-state analysis unit: a function declaration or
// function literal body, with the set of identifiers (receiver + parameters,
// including those of enclosing functions for a literal) whose guarded-field
// accesses are checked. Shared by lockdiscipline; defined here so the
// traversal helpers live next to the framework.
type funcUnit struct {
	name string // "" for function literals
	doc  string
	body *ast.BlockStmt
	// checked maps identifier names of receivers and parameters (own and
	// enclosing) to true; guarded-field accesses through other bases (locals,
	// globals) are exempt — a value still local to its constructor is not
	// shared yet.
	checked map[string]bool
}

// funcUnits flattens every function declaration and literal in the file into
// analysis units. Literal bodies are excluded from their enclosing unit (lock
// state does not flow into a goroutine or deferred closure) but inherit the
// enclosing receiver/parameter name set.
func funcUnits(file *ast.File) []funcUnit {
	var units []funcUnit
	var collect func(body *ast.BlockStmt, name, doc string, checked map[string]bool)
	collect = func(body *ast.BlockStmt, name, doc string, checked map[string]bool) {
		units = append(units, funcUnit{name: name, doc: doc, body: body, checked: checked})
		ast.Inspect(body, func(n ast.Node) bool {
			lit, ok := n.(*ast.FuncLit)
			if !ok {
				return true
			}
			inner := make(map[string]bool, len(checked))
			for k := range checked {
				inner[k] = true
			}
			addFieldNames(lit.Type.Params, inner)
			collect(lit.Body, "", "", inner)
			return false // the recursive call handles nested literals
		})
	}
	for _, decl := range file.Decls {
		fd, ok := decl.(*ast.FuncDecl)
		if !ok || fd.Body == nil {
			continue
		}
		checked := make(map[string]bool)
		if fd.Recv != nil {
			addFieldNames(fd.Recv, checked)
		}
		addFieldNames(fd.Type.Params, checked)
		doc := ""
		if fd.Doc != nil {
			doc = fd.Doc.Text()
		}
		collect(fd.Body, fd.Name.Name, doc, checked)
	}
	return units
}

func addFieldNames(fl *ast.FieldList, into map[string]bool) {
	if fl == nil {
		return
	}
	for _, f := range fl.List {
		for _, n := range f.Names {
			into[n.Name] = true
		}
	}
}

// inspectSkipFuncLits walks the statements of a unit body without descending
// into nested function literals (they are separate units).
func inspectSkipFuncLits(body *ast.BlockStmt, fn func(ast.Node) bool) {
	ast.Inspect(body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		return fn(n)
	})
}

// exprString renders a selector/identifier chain for diagnostics.
func exprString(e ast.Expr) string {
	switch v := e.(type) {
	case *ast.Ident:
		return v.Name
	case *ast.SelectorExpr:
		return exprString(v.X) + "." + v.Sel.Name
	case *ast.IndexExpr:
		return exprString(v.X) + "[...]"
	case *ast.StarExpr:
		return "*" + exprString(v.X)
	}
	return "expression"
}

// typeFromPackage reports whether t (or its pointee) is declared in pkgPath.
func typeFromPackage(t types.Type, pkgPath string) bool {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj != nil && obj.Pkg() != nil && obj.Pkg().Path() == pkgPath
}
