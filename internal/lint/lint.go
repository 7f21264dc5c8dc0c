// Package lint implements roadlint, the project's determinism-and-
// concurrency static-analysis suite. The framework's core promise — a
// configuration and a seed fully determine an experiment run (paper
// requirement 6) — is a property of the whole codebase, not of any single
// module: one stray math/rand call, one wall-clock read inside the
// simulation, or one unsorted map iteration feeding simulation state
// silently breaks byte-identical reproducibility. roadlint makes those
// invariants machine-checked so every change lands against a correctness
// backstop.
//
// The suite is built entirely on the standard library (go/parser, go/ast,
// go/token, go/types); go.mod stays dependency-free. Analysis is
// best-effort: packages are type-checked with a stub importer that leaves
// cross-package symbols unresolved, so analyzers use type information when
// available and fall back to syntactic reasoning when it is not.
//
// Findings can be suppressed per line with an allow comment on the
// offending line or the line directly above it:
//
//	//roadlint:allow <rule>[,<rule>...] [justification]
//
// Suppressions are rule-scoped; a comment allowing wallclock does not
// silence maporder on the same line.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// Diagnostic is one finding, reported as file:line:col: rule: message.
type Diagnostic struct {
	Pos  token.Position
	Rule string
	Msg  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Rule, d.Msg)
}

// File is one parsed source file plus its package context.
type File struct {
	// Path is the file's path as given to the loader.
	Path string
	Fset *token.FileSet
	AST  *ast.File
	// Pkg points back to the enclosing package.
	Pkg *Package

	// allow maps line numbers to the suppression directives on that line.
	allow map[int][]*allowEntry
}

// Package groups the files of one directory with best-effort type
// information shared by all analyzers.
type Package struct {
	// Dir is the package directory as given to the loader.
	Dir string
	// Rel is Dir relative to the enclosing module root (slash-separated,
	// "." for the root package). Analyzers use it for path-scoped rules
	// such as detrand's internal/sim exemption.
	Rel   string
	Files []*File
	// Info holds partial type information: identifiers and expressions
	// whose types involve imported packages may be unresolved. Never nil.
	Info *types.Info
}

// Analyzer is one roadlint rule.
type Analyzer interface {
	// Name is the rule identifier used in diagnostics and allow comments.
	Name() string
	// Doc is a one-line description of what the rule enforces.
	Doc() string
	// Check reports the rule's findings in one file. Suppression is
	// applied by Run, not by the analyzer.
	Check(f *File) []Diagnostic
}

// Analyzers returns the full rule suite in stable order.
func Analyzers() []Analyzer {
	return []Analyzer{
		DetRand{}, WallClock{}, MapOrder{}, ForkLabel{},
		ForkFlow{}, GoroutineJoin{}, FloatOrder{}, SuppressAudit{},
	}
}

// Run applies the analyzers to every file of every package, drops
// suppressed findings, and returns the rest sorted by position. When the
// analyzer set includes SuppressAudit, allow directives that suppressed
// nothing during the pass are reported as findings of their own.
func Run(pkgs []*Package, analyzers []Analyzer) []Diagnostic {
	var out []Diagnostic
	audit := false
	active := make(map[string]bool, len(analyzers))
	for _, a := range analyzers {
		active[a.Name()] = true
		if a.Name() == RuleSuppressAudit {
			audit = true
		}
	}
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, a := range analyzers {
				for _, d := range a.Check(f) {
					if !f.suppressed(d.Rule, d.Pos.Line) {
						out = append(out, d)
					}
				}
			}
		}
	}
	if audit {
		// The audit runs after every analyzer has claimed its
		// suppressions across all packages, so usage is final.
		for _, pkg := range pkgs {
			for _, f := range pkg.Files {
				for _, d := range auditAllows(f, active) {
					if !f.suppressed(d.Rule, d.Pos.Line) {
						out = append(out, d)
					}
				}
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Rule < b.Rule
	})
	return out
}

// diag builds a Diagnostic at the position of node n.
func (f *File) diag(n ast.Node, rule, format string, args ...any) Diagnostic {
	return Diagnostic{
		Pos:  f.Fset.Position(n.Pos()),
		Rule: rule,
		Msg:  fmt.Sprintf(format, args...),
	}
}

// typeOf returns the best-effort type of e, or nil when unresolved.
func (f *File) typeOf(e ast.Expr) types.Type {
	t := f.Pkg.Info.TypeOf(e)
	if t == nil || t == types.Typ[types.Invalid] {
		return nil
	}
	return t
}

// objectOf resolves an identifier to its object, or nil.
func (f *File) objectOf(id *ast.Ident) types.Object {
	if obj := f.Pkg.Info.ObjectOf(id); obj != nil {
		return obj
	}
	return nil
}

// functionBodies returns every function body in the file — declarations
// and function literals — each paired with the node that owns it. Nested
// literals appear as their own entry, so analyzers that reason per
// function (forklabel's duplicate detection, maporder's sorted-later
// exemption) scope their state to the innermost enclosing function.
func functionBodies(file *ast.File) []*ast.BlockStmt {
	var bodies []*ast.BlockStmt
	ast.Inspect(file, func(n ast.Node) bool {
		switch fn := n.(type) {
		case *ast.FuncDecl:
			if fn.Body != nil {
				bodies = append(bodies, fn.Body)
			}
		case *ast.FuncLit:
			bodies = append(bodies, fn.Body)
		}
		return true
	})
	return bodies
}

// inspectShallow walks the statements of body without descending into
// nested function literals, which own their statements for per-function
// analyses.
func inspectShallow(body *ast.BlockStmt, fn func(ast.Node) bool) {
	ast.Inspect(body, func(n ast.Node) bool {
		if _, isLit := n.(*ast.FuncLit); isLit {
			return false
		}
		return fn(n)
	})
}

// importNames returns every local name binding the given import path in
// the file (a path may be imported more than once under different names).
// Blank imports are excluded: they cannot draw.
func importNames(file *ast.File, path string) []string {
	var names []string
	for _, imp := range file.Imports {
		p := importPath(imp)
		if p != path {
			continue
		}
		if imp.Name != nil {
			if imp.Name.Name == "_" {
				continue
			}
			names = append(names, imp.Name.Name)
			continue
		}
		// Default name: the last path element.
		base := p
		for i := len(p) - 1; i >= 0; i-- {
			if p[i] == '/' {
				base = p[i+1:]
				break
			}
		}
		names = append(names, base)
	}
	return names
}

// importName returns the first local name binding the import path, or "".
func importName(file *ast.File, path string) string {
	if names := importNames(file, path); len(names) > 0 {
		return names[0]
	}
	return ""
}

func importPath(imp *ast.ImportSpec) string {
	p := imp.Path.Value
	if len(p) >= 2 && p[0] == '"' {
		p = p[1 : len(p)-1]
	}
	return p
}

// isPkgSelector reports whether sel is a selection name on the package
// bound to local name pkgName (e.g. rand.Intn with pkgName "rand"). A
// shadowing local identifier named pkgName disables the match when type
// information can prove the identifier is not a package.
func (f *File) isPkgSelector(sel *ast.SelectorExpr, pkgName string) bool {
	id, ok := sel.X.(*ast.Ident)
	if !ok || id.Name != pkgName {
		return false
	}
	if obj := f.objectOf(id); obj != nil {
		_, isPkg := obj.(*types.PkgName)
		return isPkg
	}
	// Unresolved (stub importer): trust the name match.
	return true
}
