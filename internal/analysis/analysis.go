// Package analysis is a self-contained, stdlib-only analogue of
// golang.org/x/tools/go/analysis: just enough framework to write the
// repo's custom vet checks (cmd/secvet) without a network dependency.
//
// The shape mirrors go/analysis on purpose — an Analyzer bundles a name,
// a doc string and a Run function over a type-checked package — so the
// analyzers port mechanically to the real framework if x/tools ever
// becomes available. Two deliberate simplifications:
//
//   - no Facts: cross-package state is handled by loading the whole
//     module into one Program (the standalone driver), so a whole-program
//     analyzer like hotpathalloc sees every function body at once;
//   - no Requires/ResultOf: the four analyzers are independent.
//
// Escape hatches are structured comments ("annotations") of the form
//
//	//secsim:<verb> <reason...>
//
// attached to a function declaration or an individual line. Verbs that
// suppress a diagnostic require a non-empty reason; an annotation with a
// missing reason is itself a diagnostic, so escapes stay audited.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Analyzer is one static check. Exactly one of Run (invoked once per
// loaded package) or RunProgram (invoked once over the whole Program,
// for checks that need cross-package reachability) must be set.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and flags.
	Name string
	// Doc is a one-paragraph description (first line = summary).
	Doc string
	// Run analyzes one package.
	Run func(*Pass) error
	// RunProgram analyzes the whole loaded program at once.
	RunProgram func(*ProgramPass) error
}

// Pass carries one package through one analyzer.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Pkg      *Package
	// Report records a diagnostic. The driver sorts and deduplicates.
	Report func(Diagnostic)
}

// ProgramPass is Pass for whole-program analyzers.
type ProgramPass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Prog     *Program
	Report   func(Diagnostic)
}

// Diagnostic is one finding at one position.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s [%s]", d.Pos, d.Message, d.Analyzer)
}

// Program is the loaded view of the module: every package source-parsed
// and type-checked, dependencies (stdlib included) resolved from the go
// toolchain's export data.
type Program struct {
	Fset     *token.FileSet
	Packages []*Package // sorted by import path
}

// Package is one source-loaded, type-checked package.
type Package struct {
	Path  string
	Dir   string
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info

	anns map[annKey][]Annotation
}

// Annotation is one parsed //secsim:<verb> <reason> comment.
type Annotation struct {
	Verb   string
	Reason string
	Pos    token.Position
	// Standalone reports that no code shares the annotation's line: only
	// standalone annotations apply to the line below them, so a trailing
	// escape cannot leak onto its neighbor.
	Standalone bool
}

type annKey struct {
	file string
	line int
}

// Annotation verbs understood by the shipped analyzers.
const (
	// VerbHotpath marks a function as an additional hotpathalloc root.
	VerbHotpath = "hotpath"
	// VerbAllowAlloc suppresses hotpathalloc on a line or function; the
	// reason documents why the allocation is audited (cold branch,
	// amortized scratch growth gated by an AllocsPerRun test, ...).
	VerbAllowAlloc = "allowalloc"
	// VerbDetach marks a function as an intentional context-detachment
	// seam (memo owners, shed sweeps) for detachedctx.
	VerbDetach = "detach"
	// VerbNondet suppresses determinism on a line (audited map range or
	// wall-clock read that provably never feeds rendered output).
	VerbNondet = "nondet"
	// VerbRawWire suppresses wireenvelope on a line (a handler that must
	// bypass the api error envelope, e.g. a raw streaming protocol).
	VerbRawWire = "rawwire"
	// VerbDeterministic opts a function outside the determinism
	// analyzer's package scope into its checks (figure rendering).
	VerbDeterministic = "deterministic"
)

// parseAnnotations indexes every //secsim: comment in f by file:line.
func (p *Package) parseAnnotations(fset *token.FileSet, f *ast.File) {
	if p.anns == nil {
		p.anns = make(map[annKey][]Annotation)
	}
	// Lines where code starts, to tell trailing annotations (code before
	// the comment) from standalone ones.
	codeLines := make(map[int]bool)
	ast.Inspect(f, func(n ast.Node) bool {
		switch n.(type) {
		case nil, *ast.Comment, *ast.CommentGroup:
			return false
		}
		if n.Pos().IsValid() {
			codeLines[fset.Position(n.Pos()).Line] = true
		}
		return true
	})
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			text, ok := strings.CutPrefix(c.Text, "//secsim:")
			if !ok {
				continue
			}
			verb, reason, _ := strings.Cut(text, " ")
			// A reason never contains a comment marker: anything from a
			// nested "//" on is a following comment (the analysistest
			// fixtures put their "// want" expectations there).
			if i := strings.Index(reason, "//"); i >= 0 {
				reason = reason[:i]
			}
			pos := fset.Position(c.Pos())
			k := annKey{pos.Filename, pos.Line}
			p.anns[k] = append(p.anns[k], Annotation{
				Verb:       strings.TrimSpace(verb),
				Reason:     strings.TrimSpace(reason),
				Pos:        pos,
				Standalone: !codeLines[pos.Line],
			})
		}
	}
}

// lineAnnotation returns the verb's annotation on the given file:line.
func (p *Package) lineAnnotation(file string, line int, verb string) (Annotation, bool) {
	for _, a := range p.anns[annKey{file, line}] {
		if a.Verb == verb {
			return a, true
		}
	}
	return Annotation{}, false
}

// NodeAnnotation reports an annotation attached to n: on n's first line,
// or as a standalone comment on the line directly above it. A trailing
// annotation on the previous line does not carry over.
func (p *Package) NodeAnnotation(n ast.Node, verb string) (Annotation, bool) {
	pos := p.Fset.Position(n.Pos())
	if a, ok := p.lineAnnotation(pos.Filename, pos.Line, verb); ok {
		return a, true
	}
	if a, ok := p.lineAnnotation(pos.Filename, pos.Line-1, verb); ok && a.Standalone {
		return a, true
	}
	return Annotation{}, false
}

// FuncAnnotation reports an annotation attached to the declaration of
// fd: anywhere in its doc comment, or trailing its first line.
func (p *Package) FuncAnnotation(fd *ast.FuncDecl, verb string) (Annotation, bool) {
	if fd.Doc != nil {
		for _, c := range fd.Doc.List {
			pos := p.Fset.Position(c.Pos())
			if a, ok := p.lineAnnotation(pos.Filename, pos.Line, verb); ok {
				return a, true
			}
		}
	}
	return p.NodeAnnotation(fd, verb)
}

// KnownVerbs lists every annotation verb the suite understands; the
// driver flags unknown //secsim: verbs so a typo cannot silently
// disable an escape.
var KnownVerbs = map[string]bool{
	VerbHotpath:       true,
	VerbAllowAlloc:    true,
	VerbDetach:        true,
	VerbNondet:        true,
	VerbRawWire:       true,
	VerbDeterministic: true,
}

// ReasonRequired reports whether the verb suppresses diagnostics and so
// must carry a non-empty reason.
func ReasonRequired(verb string) bool {
	switch verb {
	case VerbAllowAlloc, VerbDetach, VerbNondet, VerbRawWire:
		return true
	}
	return false
}

// FuncFor returns the innermost function declaration enclosing pos in
// any of the package's files, or nil.
func (p *Package) FuncFor(pos token.Pos) *ast.FuncDecl {
	for _, f := range p.Files {
		if f.Pos() <= pos && pos <= f.End() {
			for _, d := range f.Decls {
				if fd, ok := d.(*ast.FuncDecl); ok && fd.Pos() <= pos && pos <= fd.End() {
					return fd
				}
			}
		}
	}
	return nil
}

// Run applies the analyzers to the program and returns the merged,
// position-sorted, deduplicated findings. Structural problems with the
// annotations themselves (unknown verb, missing required reason) are
// reported under the pseudo-analyzer "secsim-annotation".
func Run(prog *Program, analyzers []*Analyzer) ([]Diagnostic, error) {
	var diags []Diagnostic
	report := func(d Diagnostic) { diags = append(diags, d) }

	for _, pkg := range prog.Packages {
		for _, as := range pkg.anns {
			for _, a := range as {
				switch {
				case !KnownVerbs[a.Verb]:
					report(Diagnostic{a.Pos, "secsim-annotation",
						fmt.Sprintf("unknown annotation //secsim:%s (known: hotpath, allowalloc, detach, nondet, rawwire, deterministic)", a.Verb)})
				case ReasonRequired(a.Verb) && a.Reason == "":
					report(Diagnostic{a.Pos, "secsim-annotation",
						fmt.Sprintf("//secsim:%s needs a reason (\"//secsim:%s why this is safe\")", a.Verb, a.Verb)})
				}
			}
		}
	}

	for _, a := range analyzers {
		switch {
		case a.RunProgram != nil:
			pp := &ProgramPass{Analyzer: a, Fset: prog.Fset, Prog: prog, Report: report}
			if err := a.RunProgram(pp); err != nil {
				return nil, fmt.Errorf("%s: %w", a.Name, err)
			}
		case a.Run != nil:
			for _, pkg := range prog.Packages {
				pass := &Pass{Analyzer: a, Fset: prog.Fset, Pkg: pkg, Report: report}
				if err := a.Run(pass); err != nil {
					return nil, fmt.Errorf("%s: %s: %w", a.Name, pkg.Path, err)
				}
			}
		default:
			return nil, fmt.Errorf("%s: analyzer has neither Run nor RunProgram", a.Name)
		}
	}

	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
	out := diags[:0]
	var last Diagnostic
	for i, d := range diags {
		if i > 0 && d == last {
			continue
		}
		out = append(out, d)
		last = d
	}
	return out, nil
}
