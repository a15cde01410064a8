package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// FrozenTypes is the registry of shared-artifact types whose values are
// immutable once published: every concurrent sweep cell (and, per the
// roadmap, every distributed sweep process) reads them without
// synchronization, so a single post-publication store is a data race the
// dynamic detector only catches probabilistically. Each listed type must
// carry a `//popt:frozen` directive on its declaration (the sharefreeze
// analyzer cross-checks registry and annotation), and unexported frozen
// types are picked up from their annotation alone — the registry exists so
// packages that only *import* a frozen type (where the declaration's
// comments are invisible) still get stores through it flagged.
var FrozenTypes = []string{
	"popt/internal/core.Table",
	"popt/internal/core.LineRefs",
	"popt/internal/graph.Graph",
	"popt/internal/graph.Adj",
	"popt/internal/trace.LLCTrace",
	"popt/internal/corpus.Entry",
}

// NewShareFreeze builds the freeze analyzer over the given registry
// (default: FrozenTypes). A type is frozen if it is in the registry or its
// declaration in the analyzed package carries `//popt:frozen`. The
// analyzer enforces the shared-artifact freeze contract (DESIGN.md §9):
//
//   - A frozen value is mutable only while it is *fresh* — locally
//     constructed (composite literal, new) and not yet published. Field
//     stores, element stores, and append/copy into its storage are allowed
//     while fresh, including through same-package helpers, closures, and
//     goroutines launched during construction (the parallel table fills).
//   - Publication — storing the value into a package variable, a field or
//     element of a non-fresh value, or a channel, or passing it to a
//     function the analyzer cannot see into — ends construction. Any store
//     reachable through the value afterwards is flagged, interprocedurally:
//     same-package helpers get per-parameter (and per-receiver) summaries
//     recording whether they write through or publish the argument, and
//     call sites with published arguments inherit the helper's offending
//     store chain in the diagnostic.
//   - Aliases of a published value's interior storage (a field slice, a
//     pointer into it) are tracked like borrowflow's borrowed slice:
//     writes through them, appends to them, and copies into them are
//     stores to frozen memory and are flagged wherever they occur.
//   - Lazy initialization inside the value's own sync.Once is construction
//     by definition: stores to e's fields inside e.once.Do(func(){...})
//     are allowed (the artifact-cache entry idiom). The lockguard analyzer
//     separately checks that readers sequence after the Do.
//   - An exported function or method that writes through a frozen-typed
//     parameter or receiver is flagged at its declaration: callers outside
//     the package cannot be analyzed, so no such mutator may exist.
//     Unexported helpers are judged at their call sites instead, so
//     constructors may freely delegate to fill helpers.
func NewShareFreeze(registry ...string) *Analyzer {
	if len(registry) == 0 {
		registry = FrozenTypes
	}
	a := &Analyzer{
		Name: "sharefreeze",
		Doc: "flags stores to //popt:frozen shared-artifact types after the " +
			"value escapes its constructor, tracking aliases and helper calls " +
			"interprocedurally; frozen values may only be mutated while fresh " +
			"or inside their own sync.Once.Do",
	}
	a.Run = func(pass *Pass) error {
		return runShareFreeze(pass, registry)
	}
	return a
}

// freezeKind classifies how an expression relates to frozen memory.
type freezeKind int

const (
	fkNone freezeKind = iota
	// fkFresh: an under-construction frozen value (or storage inside one);
	// stores are constructor work and allowed.
	fkFresh
	// fkPub: a published frozen value; stores through it are violations.
	fkPub
	// fkStore: interior storage (slice/map/pointer) of a published frozen
	// value; writes through it mutate frozen memory.
	fkStore
)

func runShareFreeze(pass *Pass, registry []string) error {
	an := &freezeAnalysis{
		pass:      pass,
		frozen:    make(map[*types.TypeName]bool),
		decls:     make(map[*types.Func]*ast.FuncDecl),
		summaries: make(map[freezeSumKey]freezeSummary),
		inFlight:  make(map[freezeSumKey]bool),
	}
	reg := make(map[string]bool, len(registry))
	for _, name := range registry {
		reg[name] = true
	}
	an.registry = reg

	// Pass 1: frozen type set = registry entries + locally annotated types;
	// cross-check that registry types declared here carry the annotation.
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok || gd.Tok != token.TYPE {
				continue
			}
			for _, spec := range gd.Specs {
				ts, ok := spec.(*ast.TypeSpec)
				if !ok {
					continue
				}
				tn, ok := pass.TypesInfo.Defs[ts.Name].(*types.TypeName)
				if !ok {
					continue
				}
				annotated := hasFrozenDirective(gd.Doc) || hasFrozenDirective(ts.Doc) || hasFrozenDirective(ts.Comment)
				switch {
				case annotated:
					an.frozen[tn] = true
				case reg[qualifiedTypeName(tn)]:
					pass.Reportf(ts.Name.Pos(),
						"%s is registered in lint.FrozenTypes but its declaration has no //popt:frozen directive; annotate the type so the freeze contract is visible at the definition",
						tn.Name())
					an.frozen[tn] = true
				}
			}
		}
	}

	// Index declarations for helper summaries.
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok {
				if fn, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func); ok {
					an.decls[fn] = fd
				}
			}
		}
	}

	// Pass 2: walk every function as an entry point.
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			w := newFreezeWalker(an, fd)
			w.walkBlock(fd.Body.List)
			an.checkExportedMutator(fd)
		}
	}
	return nil
}

// hasFrozenDirective reports whether a comment group contains //popt:frozen.
func hasFrozenDirective(cg *ast.CommentGroup) bool {
	if cg == nil {
		return false
	}
	for _, c := range cg.List {
		text := strings.TrimSpace(c.Text)
		if text == "//popt:frozen" || strings.HasPrefix(text, "//popt:frozen ") {
			return true
		}
	}
	return false
}

func qualifiedTypeName(tn *types.TypeName) string {
	if tn.Pkg() == nil {
		return tn.Name()
	}
	return tn.Pkg().Path() + "." + tn.Name()
}

// freezeAnalysis carries per-package state: the frozen type set, the
// declaration index, and memoized helper summaries.
type freezeAnalysis struct {
	pass      *Pass
	registry  map[string]bool
	frozen    map[*types.TypeName]bool
	decls     map[*types.Func]*ast.FuncDecl
	summaries map[freezeSumKey]freezeSummary
	inFlight  map[freezeSumKey]bool
}

// freezeSumKey identifies one (function, parameter) summary; param -1 is
// the receiver.
type freezeSumKey struct {
	fn    *types.Func
	param int
}

// freezeSummary describes what a helper does when the given parameter (or
// receiver) is a published frozen value.
type freezeSummary struct {
	writes    bool   // stores into frozen memory reachable from the param
	publishes bool   // stores the param where it outlives the call
	where     string // offending store chain, e.g. "t.entries[i] at file.go:12"
	known     bool
}

// isFrozen reports whether t (after stripping pointers) is a frozen named
// type: locally annotated or in the registry.
func (an *freezeAnalysis) isFrozen(t types.Type) bool {
	named, ok := derefAll(t).(*types.Named)
	if !ok {
		return false
	}
	tn := named.Obj()
	return an.frozen[tn] || an.registry[qualifiedTypeName(tn)]
}

func derefAll(t types.Type) types.Type {
	for {
		p, ok := t.Underlying().(*types.Pointer)
		if !ok {
			return t
		}
		t = p.Elem()
	}
}

// refLike reports whether a value of type t can reference memory (rather
// than copy it): writing through such a value can reach frozen storage.
func refLike(t types.Type) bool {
	switch t.Underlying().(type) {
	case *types.Slice, *types.Map, *types.Pointer, *types.Chan:
		return true
	}
	return false
}

// checkExportedMutator flags exported functions whose summary writes
// frozen memory through a parameter or receiver: external callers cannot
// be analyzed, so the frozen contract forbids exported mutators outright.
func (an *freezeAnalysis) checkExportedMutator(fd *ast.FuncDecl) {
	if !fd.Name.IsExported() {
		return
	}
	fn, ok := an.pass.TypesInfo.Defs[fd.Name].(*types.Func)
	if !ok {
		return
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return
	}
	check := func(idx int, v *types.Var, what string) {
		if v == nil || !an.isFrozen(v.Type()) {
			return
		}
		s := an.summaryFor(fn, idx)
		if s.writes {
			an.pass.Reportf(fd.Name.Pos(),
				"exported %s writes frozen %s through its %s (%s); frozen types may only be mutated inside their constructors",
				fd.Name.Name, typeShort(v.Type()), what, s.where)
		}
	}
	if recv := sig.Recv(); recv != nil {
		check(-1, recv, "receiver")
	}
	for i := 0; i < sig.Params().Len(); i++ {
		p := sig.Params().At(i)
		check(i, p, "parameter "+p.Name())
	}
}

// typeShort renders a type's base name for diagnostics.
func typeShort(t types.Type) string {
	t = derefAll(t)
	if named, ok := t.(*types.Named); ok {
		return named.Obj().Name()
	}
	return t.String()
}

// summaryFor computes (memoized) what fn does with its param-th parameter
// (-1 = receiver) when that argument is a published frozen value.
// Recursive cycles resolve optimistically, like borrowflow.
func (an *freezeAnalysis) summaryFor(fn *types.Func, param int) freezeSummary {
	key := freezeSumKey{fn, param}
	if s, ok := an.summaries[key]; ok {
		return s
	}
	if an.inFlight[key] {
		return freezeSummary{known: true}
	}
	fd := an.decls[fn]
	if fd == nil || fd.Body == nil {
		return freezeSummary{} // external or bodyless: unknown
	}
	var obj types.Object
	if param < 0 {
		if fd.Recv != nil && len(fd.Recv.List) > 0 && len(fd.Recv.List[0].Names) > 0 {
			name := fd.Recv.List[0].Names[0]
			if name.Name != "_" {
				obj = an.pass.TypesInfo.Defs[name]
			}
		}
	} else {
		obj = paramObject(an.pass, fd, param)
	}
	if obj == nil {
		s := freezeSummary{known: true}
		an.summaries[key] = s
		return s
	}
	an.inFlight[key] = true
	w := newFreezeWalker(an, fd)
	w.summary = &freezeSummary{known: true}
	w.pub[obj] = true
	w.walkBlock(fd.Body.List)
	delete(an.inFlight, key)
	an.summaries[key] = *w.summary
	return *w.summary
}

// freezeWalker is one flow-sensitive pass over a function body. In entry
// mode (summary == nil) locally constructed frozen values are tracked as
// fresh, published ones as pub, and violations are reported; parameters
// are deliberately untracked — writes through them are judged at call
// sites via summaries (and at the declaration for exported functions). In
// summary mode only the subject parameter starts in pub and problems set
// summary bits instead of reporting.
type freezeWalker struct {
	an    *freezeAnalysis
	fd    *ast.FuncDecl
	fresh map[types.Object]bool
	store map[types.Object]bool
	pub   map[types.Object]bool

	summary *freezeSummary

	reported map[string]bool
}

func newFreezeWalker(an *freezeAnalysis, fd *ast.FuncDecl) *freezeWalker {
	return &freezeWalker{
		an:       an,
		fd:       fd,
		fresh:    map[types.Object]bool{},
		store:    map[types.Object]bool{},
		pub:      map[types.Object]bool{},
		reported: map[string]bool{},
	}
}

const (
	fproblemWrite = iota
	fproblemPublish
)

// problem records a violation as a diagnostic (entry mode) or summary bits
// (summary mode). where is the store-chain rendering carried by summaries
// so call-site diagnostics can name the offending store.
func (w *freezeWalker) problem(kind int, pos token.Pos, where string, format string, args ...any) {
	if w.summary != nil {
		if kind == fproblemWrite {
			w.summary.writes = true
			if w.summary.where == "" {
				w.summary.where = where + " at " + w.an.pass.Fset.Position(pos).String()
			}
		} else {
			w.summary.publishes = true
		}
		return
	}
	position := w.an.pass.Fset.Position(pos)
	key := position.String() + "|" + format
	if w.reported[key] {
		return
	}
	w.reported[key] = true
	w.an.pass.Reportf(pos, format, args...)
}

// --- statement walking -------------------------------------------------

func (w *freezeWalker) walkBlock(stmts []ast.Stmt) {
	for _, s := range stmts {
		w.walkStmt(s)
	}
}

func (w *freezeWalker) walkStmt(s ast.Stmt) {
	switch s := s.(type) {
	case nil:
	case *ast.BlockStmt:
		w.walkBlock(s.List)
	case *ast.AssignStmt:
		w.walkAssign(s)
	case *ast.IncDecStmt:
		w.checkWrite(s.X)
	case *ast.ExprStmt:
		w.eval(s.X)
	case *ast.ReturnStmt:
		for _, r := range s.Results {
			w.eval(r)
		}
	case *ast.SendStmt:
		w.eval(s.Chan)
		if k, root := w.eval(s.Value); k == fkFresh {
			// Sending the fresh value publishes it to the receiver.
			w.publish(root)
		}
	case *ast.GoStmt:
		// The goroutine body runs under the current construction state:
		// writes to fresh values are constructor parallelism (the table
		// fills), writes to published values are races and flagged.
		w.evalCall(s.Call)
	case *ast.DeferStmt:
		w.evalCall(s.Call)
	case *ast.IfStmt:
		if s.Init != nil {
			w.walkStmt(s.Init)
		}
		w.eval(s.Cond)
		then := w.fork()
		then.walkStmt(s.Body)
		w.merge(then)
		if s.Else != nil {
			els := w.fork()
			els.walkStmt(s.Else)
			w.merge(els)
		}
	case *ast.ForStmt:
		if s.Init != nil {
			w.walkStmt(s.Init)
		}
		if s.Cond != nil {
			w.eval(s.Cond)
		}
		w.loopBody(func(it *freezeWalker) {
			it.walkStmt(s.Body)
			if s.Post != nil {
				it.walkStmt(s.Post)
			}
		})
	case *ast.RangeStmt:
		xKind, _ := w.eval(s.X)
		w.loopBody(func(it *freezeWalker) {
			it.bindRange(s.Key, fkNone)
			vk := fkNone
			if s.Value != nil && xKind != fkNone {
				if tv, ok := w.an.pass.TypesInfo.Types[s.Value]; ok {
					switch {
					case w.an.isFrozen(tv.Type):
						if xKind == fkFresh {
							vk = fkFresh
						} else {
							vk = fkPub
						}
					case refLike(tv.Type):
						if xKind == fkFresh {
							vk = fkFresh
						} else {
							vk = fkStore
						}
					}
				}
			}
			it.bindRange(s.Value, vk)
			it.walkStmt(s.Body)
		})
	case *ast.SwitchStmt:
		if s.Init != nil {
			w.walkStmt(s.Init)
		}
		if s.Tag != nil {
			w.eval(s.Tag)
		}
		w.walkClauses(s.Body)
	case *ast.TypeSwitchStmt:
		if s.Init != nil {
			w.walkStmt(s.Init)
		}
		w.walkClauses(s.Body)
	case *ast.SelectStmt:
		w.walkClauses(s.Body)
	case *ast.LabeledStmt:
		w.walkStmt(s.Stmt)
	case *ast.DeclStmt:
		gd, ok := s.Decl.(*ast.GenDecl)
		if !ok {
			return
		}
		for _, spec := range gd.Specs {
			vs, ok := spec.(*ast.ValueSpec)
			if !ok {
				continue
			}
			for i, name := range vs.Names {
				kind := fkNone
				if i < len(vs.Values) {
					kind, _ = w.eval(vs.Values[i])
				} else if len(vs.Values) == 1 && len(vs.Names) > 1 {
					if i == 0 {
						kind, _ = w.eval(vs.Values[0])
					}
				} else if len(vs.Values) == 0 && w.summary == nil {
					// var t Table: the zero value is fresh.
					if obj := w.an.pass.TypesInfo.Defs[name]; obj != nil && w.an.isFrozen(obj.Type()) {
						kind = fkFresh
					}
				}
				if obj := w.an.pass.TypesInfo.Defs[name]; obj != nil {
					w.bind(obj, kind)
				}
			}
		}
	}
}

func (w *freezeWalker) walkClauses(body *ast.BlockStmt) {
	for _, clause := range body.List {
		c := w.fork()
		switch cl := clause.(type) {
		case *ast.CaseClause:
			for _, e := range cl.List {
				c.eval(e)
			}
			c.walkBlock(cl.Body)
		case *ast.CommClause:
			if cl.Comm != nil {
				c.walkStmt(cl.Comm)
			}
			c.walkBlock(cl.Body)
		}
		w.merge(c)
	}
}

// loopBody reaches a bounded fixpoint so aliases created in one iteration
// are live in the next; findings are deduplicated, so re-walking is safe.
func (w *freezeWalker) loopBody(body func(*freezeWalker)) {
	for i := 0; i < 4; i++ {
		before := len(w.fresh) + len(w.store) + len(w.pub)
		it := w.fork()
		body(it)
		w.merge(it)
		if len(w.fresh)+len(w.store)+len(w.pub) == before {
			return
		}
	}
}

func (w *freezeWalker) bindRange(e ast.Expr, kind freezeKind) {
	id, ok := e.(*ast.Ident)
	if !ok || id.Name == "_" {
		return
	}
	if obj := lhsObject(w.an.pass, id); obj != nil {
		w.bind(obj, kind)
	}
}

func (w *freezeWalker) fork() *freezeWalker {
	c := *w
	c.fresh = copySet(w.fresh)
	c.store = copySet(w.store)
	c.pub = copySet(w.pub)
	return &c
}

func copySet(m map[types.Object]bool) map[types.Object]bool {
	c := make(map[types.Object]bool, len(m))
	for k := range m { //lint:ordered
		c[k] = true
	}
	return c
}

// merge joins a branch path-insensitively: published state and aliases
// union in, but freshness must survive on BOTH paths — a branch that
// publishes or rebinds the value ends its construction window.
func (w *freezeWalker) merge(c *freezeWalker) {
	for k := range w.fresh { //lint:ordered
		if !c.fresh[k] {
			delete(w.fresh, k)
		}
	}
	for k := range c.store { //lint:ordered
		w.store[k] = true
	}
	for k := range c.pub { //lint:ordered
		if !w.fresh[k] {
			w.pub[k] = true
		}
	}
}

func (w *freezeWalker) bind(obj types.Object, kind freezeKind) {
	delete(w.fresh, obj)
	delete(w.store, obj)
	delete(w.pub, obj)
	switch kind {
	case fkFresh:
		w.fresh[obj] = true
	case fkStore:
		w.store[obj] = true
	case fkPub:
		w.pub[obj] = true
	}
}

// publish ends a value's construction window: the local now names a
// published value and later stores through it are violations.
func (w *freezeWalker) publish(root types.Object) {
	if root == nil {
		return
	}
	if w.fresh[root] {
		delete(w.fresh, root)
		w.pub[root] = true
	}
}

// --- assignments -------------------------------------------------------

func (w *freezeWalker) walkAssign(as *ast.AssignStmt) {
	kinds := make([]freezeKind, len(as.Lhs))
	roots := make([]types.Object, len(as.Lhs))
	if len(as.Rhs) == len(as.Lhs) {
		for i, rhs := range as.Rhs {
			kinds[i], roots[i] = w.eval(rhs)
		}
	} else if len(as.Rhs) == 1 {
		k, r := w.eval(as.Rhs[0])
		for i := range as.Lhs {
			kinds[i], roots[i] = k, r
		}
	}
	for i, lhs := range as.Lhs {
		w.assignTo(lhs, kinds[i], roots[i])
	}
}

func (w *freezeWalker) assignTo(lhs ast.Expr, kind freezeKind, rhsRoot types.Object) {
	if id, ok := lhs.(*ast.Ident); ok {
		if id.Name == "_" {
			return
		}
		obj := lhsObject(w.an.pass, id)
		if obj == nil {
			return
		}
		if kind == fkFresh && isPackageLevel(obj) {
			// Assigning to a package variable publishes the value. The
			// package variable itself classifies as published by type on
			// every later use.
			w.publish(rhsRoot)
			return
		}
		w.bind(obj, kind)
		return
	}
	// Structured target: first, is the write itself legal?
	w.checkWrite(lhs)
	// Second, does the store publish a fresh RHS? Storing into a fresh
	// container keeps construction open; anything else ends it.
	if kind == fkFresh && rhsRoot != nil {
		root, _ := writeRoot(w.an.pass, lhs)
		if root == nil || !w.fresh[root] {
			w.publish(rhsRoot)
		}
	}
}

// checkWrite flags a structured store whose target memory belongs to a
// published frozen value. It peels the LHS chain outside-in: a field
// selection owned by a frozen struct is judged by its owner's
// classification, and any base classifying as published frozen (or
// interior storage of one) is a violation.
func (w *freezeWalker) checkWrite(lhs ast.Expr) {
	e := lhs
	for {
		switch x := e.(type) {
		case *ast.ParenExpr:
			e = x.X
		case *ast.SelectorExpr:
			if owner, ok := w.frozenFieldOwner(x); ok {
				switch k, _ := w.eval(x.X); k {
				case fkFresh:
					// Constructor work on an under-construction value.
				case fkPub, fkStore:
					w.problem(fproblemWrite, lhs.Pos(), exprString(lhs),
						"%s stores to %s, mutating frozen %s after publication; frozen shared artifacts are immutable once they escape their constructor",
						w.fd.Name.Name, exprString(lhs), owner)
				}
				// fkNone: untracked base (e.g. a parameter) — the write is
				// judged at this function's call sites via its summary.
				return
			}
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.SliceExpr:
			e = x.X
		case *ast.Ident:
			if e == lhs {
				return // plain rebind, handled by bind
			}
			obj := lhsObject(w.an.pass, x)
			if obj == nil {
				return
			}
			switch {
			case w.fresh[obj]:
			case w.store[obj]:
				w.problem(fproblemWrite, lhs.Pos(), exprString(lhs),
					"%s writes frozen shared storage through alias %s; copy the data out instead of mutating the shared artifact",
					w.fd.Name.Name, x.Name)
			case w.pub[obj] || w.pkgLevelFrozen(obj):
				w.problem(fproblemWrite, lhs.Pos(), exprString(lhs),
					"%s stores to %s, mutating frozen %s after publication; frozen shared artifacts are immutable once they escape their constructor",
					w.fd.Name.Name, exprString(lhs), typeShort(obj.Type()))
			}
			return
		default:
			// Call results, etc.: classify and judge.
			if k, _ := w.eval(e); k == fkPub || k == fkStore {
				w.problem(fproblemWrite, lhs.Pos(), exprString(lhs),
					"%s stores to %s, which reaches frozen shared memory; frozen artifacts are immutable once published",
					w.fd.Name.Name, exprString(lhs))
			}
			return
		}
	}
}

// pkgLevelFrozen reports whether obj is a package-level variable of frozen
// type: such a variable is published by construction. Only meaningful in
// entry mode — summaries blame exactly their subject.
func (w *freezeWalker) pkgLevelFrozen(obj types.Object) bool {
	if w.summary != nil {
		return false
	}
	if _, ok := obj.(*types.Var); !ok {
		return false
	}
	return isPackageLevel(obj) && w.an.isFrozen(obj.Type())
}

// frozenFieldOwner reports whether sel selects a field whose owning struct
// is frozen, returning the owner's name. Promoted selections (reaching the
// field through embedding) count: the embedded frozen value is shared
// whatever wrapper it rides in.
func (w *freezeWalker) frozenFieldOwner(sel *ast.SelectorExpr) (string, bool) {
	s, ok := w.an.pass.TypesInfo.Selections[sel]
	if !ok || s.Kind() != types.FieldVal {
		return "", false
	}
	// Walk the selection index through the receiver type to find the
	// struct that declares the field.
	t := s.Recv()
	index := s.Index()
	for depth, i := range index {
		t = derefAll(t)
		st, ok := t.Underlying().(*types.Struct)
		if !ok {
			return "", false
		}
		if depth == len(index)-1 {
			if w.an.isFrozen(t) {
				return typeShort(t), true
			}
			return "", false
		}
		t = st.Field(i).Type()
	}
	return "", false
}

// --- expression evaluation --------------------------------------------

// eval classifies e and returns its kind plus, when the value is rooted at
// a tracked object, that root (used for publication kills).
func (w *freezeWalker) eval(e ast.Expr) (freezeKind, types.Object) {
	switch x := e.(type) {
	case nil:
		return fkNone, nil
	case *ast.Ident:
		obj := w.an.pass.TypesInfo.Uses[x]
		if obj == nil {
			obj = w.an.pass.TypesInfo.Defs[x]
		}
		switch {
		case obj == nil || isTypeOrFunc(obj):
			return fkNone, nil
		case w.fresh[obj]:
			return fkFresh, obj
		case w.store[obj]:
			return fkStore, obj
		case w.pub[obj]:
			return fkPub, obj
		case w.pkgLevelFrozen(obj):
			return fkPub, obj
		}
		return fkNone, nil
	case *ast.ParenExpr:
		return w.eval(x.X)
	case *ast.CompositeLit:
		for _, el := range x.Elts {
			w.eval(el)
		}
		if w.summary == nil {
			if tv, ok := w.an.pass.TypesInfo.Types[x]; ok && w.an.isFrozen(tv.Type) {
				return fkFresh, nil
			}
		}
		return fkNone, nil
	case *ast.KeyValueExpr:
		return w.eval(x.Value)
	case *ast.UnaryExpr:
		if x.Op == token.AND {
			if cl, ok := x.X.(*ast.CompositeLit); ok {
				return w.eval(cl)
			}
			k, root := w.eval(x.X)
			switch k {
			case fkFresh:
				return fkFresh, root
			case fkPub, fkStore:
				return fkStore, root
			}
			// &expr where a prefix of expr is frozen: pointer into frozen
			// storage (e.g. &g.In on a published Graph).
			if w.chainTouchesFrozen(x.X) {
				return fkStore, nil
			}
			return fkNone, nil
		}
		w.eval(x.X)
		return fkNone, nil
	case *ast.StarExpr:
		k, root := w.eval(x.X)
		return w.project(e, k), root
	case *ast.SelectorExpr:
		baseKind, baseRoot := w.eval(x.X)
		// A frozen-typed selection inherits the base: fresh stays fresh,
		// published stays published; untracked bases stay untracked (a
		// helper's writes through its parameters are judged at call
		// sites).
		if tv, ok := w.an.pass.TypesInfo.Types[e]; ok && w.an.isFrozen(tv.Type) {
			switch baseKind {
			case fkFresh:
				return fkFresh, baseRoot
			case fkPub, fkStore:
				return fkPub, nil
			}
			// A frozen value reached through package-level state is
			// published even when the container itself is not frozen.
			if w.summary == nil && w.rootedAtPackageLevel(x.X) {
				return fkPub, nil
			}
			return fkNone, nil
		}
		if _, isFrozenField := w.frozenFieldOwner(x); isFrozenField {
			switch baseKind {
			case fkFresh:
				return fkFresh, baseRoot
			case fkPub, fkStore:
				if tv, ok := w.an.pass.TypesInfo.Types[e]; ok && refLike(tv.Type) {
					return fkStore, nil
				}
			}
			return fkNone, nil
		}
		return w.project(e, baseKind), baseRoot
	case *ast.IndexExpr:
		w.eval(x.Index)
		k, root := w.eval(x.X)
		if pk := w.project(e, k); pk != fkNone {
			return pk, root
		}
		// A frozen element pulled out of package-level state (a registry
		// map, a cached suite) is published even when the container is
		// not itself frozen.
		if w.summary == nil {
			if tv, ok := w.an.pass.TypesInfo.Types[e]; ok && w.an.isFrozen(tv.Type) && w.rootedAtPackageLevel(x.X) {
				return fkPub, nil
			}
		}
		return fkNone, nil
	case *ast.SliceExpr:
		if x.Low != nil {
			w.eval(x.Low)
		}
		if x.High != nil {
			w.eval(x.High)
		}
		if x.Max != nil {
			w.eval(x.Max)
		}
		return w.eval(x.X)
	case *ast.TypeAssertExpr:
		k, root := w.eval(x.X)
		return w.project(e, k), root
	case *ast.BinaryExpr:
		w.eval(x.X)
		w.eval(x.Y)
		return fkNone, nil
	case *ast.FuncLit:
		// The closure body runs under the current state at some point;
		// violations inside it are violations whenever it runs. Writes to
		// currently-fresh values are constructor parallelism and allowed.
		c := w.fork()
		c.walkStmt(x.Body)
		w.merge(c)
		return fkNone, nil
	case *ast.CallExpr:
		return w.evalCall(x)
	}
	return fkNone, nil
}

// isTypeOrFunc filters non-value identifiers out of frozen classification.
func isTypeOrFunc(obj types.Object) bool {
	switch obj.(type) {
	case *types.TypeName, *types.Func, *types.Builtin, *types.PkgName:
		return true
	}
	return false
}

// project classifies a projection (field/index/deref/assert) of a base
// value.
func (w *freezeWalker) project(e ast.Expr, base freezeKind) freezeKind {
	if base == fkNone {
		return fkNone
	}
	tv, ok := w.an.pass.TypesInfo.Types[e]
	if !ok {
		return base
	}
	if w.an.isFrozen(tv.Type) {
		if base == fkFresh {
			return fkFresh
		}
		return fkPub
	}
	if base == fkFresh {
		if refLike(tv.Type) {
			return fkFresh
		}
		return fkNone
	}
	if refLike(tv.Type) {
		return fkStore
	}
	return fkNone
}

// rootedAtPackageLevel reports whether e's access chain bottoms out in a
// package-level variable (and is therefore reachable by every goroutine).
func (w *freezeWalker) rootedAtPackageLevel(e ast.Expr) bool {
	root, _ := writeRoot(w.an.pass, e)
	if root == nil {
		return false
	}
	if _, ok := root.(*types.Var); !ok {
		return false
	}
	return isPackageLevel(root)
}

// chainTouchesFrozen reports whether any selection in e's chain is a field
// of a published frozen owner (for &-of-interior classification).
func (w *freezeWalker) chainTouchesFrozen(e ast.Expr) bool {
	for {
		switch x := e.(type) {
		case *ast.ParenExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.SliceExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.SelectorExpr:
			if _, ok := w.frozenFieldOwner(x); ok {
				k, _ := w.eval(x.X)
				return k == fkPub || k == fkStore
			}
			e = x.X
		default:
			return false
		}
	}
}

// --- calls -------------------------------------------------------------

func (w *freezeWalker) evalCall(call *ast.CallExpr) (freezeKind, types.Object) {
	pass := w.an.pass

	// Type conversions propagate their operand.
	if tv, ok := pass.TypesInfo.Types[call.Fun]; ok && tv.IsType() {
		var k freezeKind
		var root types.Object
		for _, arg := range call.Args {
			if ak, ar := w.eval(arg); ak > k {
				k, root = ak, ar
			}
		}
		return k, root
	}

	// Builtins: new(Frozen) is fresh; append/copy can write frozen storage.
	if name, ok := builtinName(pass, call.Fun); ok {
		return w.evalBuiltin(name, call)
	}

	// sync.Once lazy construction: stores to e's fields inside
	// e.once.Do(func(){...}) are constructor work by definition.
	if w.onceDoConstruction(call) {
		return fkNone, nil
	}

	// Immediately-invoked closure (including `go func(...){...}(...)`):
	// arguments are evaluated, then the body runs under the current state.
	if fl, ok := call.Fun.(*ast.FuncLit); ok {
		for _, arg := range call.Args {
			w.eval(arg)
		}
		c := w.fork()
		c.walkStmt(fl.Body)
		w.merge(c)
		return fkNone, nil
	}

	// Resolve the callee and receiver.
	var callee *types.Func
	var recvExpr ast.Expr
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		callee, _ = pass.TypesInfo.Uses[fun].(*types.Func)
	case *ast.SelectorExpr:
		callee, _ = pass.TypesInfo.Uses[fun.Sel].(*types.Func)
		if s, ok := pass.TypesInfo.Selections[fun]; ok && s.Kind() == types.MethodVal {
			recvExpr = fun.X
		} else {
			w.eval(fun.X)
		}
	default:
		w.eval(call.Fun)
	}

	known := callee != nil && w.an.decls[callee] != nil

	// Receiver first (summary index -1), then flat arguments.
	if recvExpr != nil {
		k, root := w.eval(recvExpr)
		w.checkCallArg(callee, known, -1, recvExpr, k, root)
	}
	for i, arg := range call.Args {
		k, root := w.eval(arg)
		w.checkCallArg(callee, known, i, arg, k, root)
	}

	// A call result of frozen type is a finished, published artifact:
	// mutating a constructor's return value is exactly the bug to catch.
	if w.summary == nil {
		if tv, ok := pass.TypesInfo.Types[call]; ok && w.an.isFrozen(tv.Type) {
			return fkPub, nil
		}
	}
	return fkNone, nil
}

// checkCallArg applies a callee's summary to one frozen-relevant argument.
func (w *freezeWalker) checkCallArg(callee *types.Func, known bool, idx int, arg ast.Expr, kind freezeKind, root types.Object) {
	if kind == fkNone {
		return
	}
	if !known {
		// Unknown callee (other package, interface, stdlib): reads are the
		// norm for shared artifacts, so passing a published value is fine.
		// A FRESH value handed to an unknown callee may be retained — end
		// its construction window conservatively.
		if kind == fkFresh {
			w.publish(root)
		}
		return
	}
	s := w.an.summaryFor(callee, idx)
	switch kind {
	case fkFresh:
		if s.publishes {
			w.publish(root)
		}
	case fkPub:
		if s.writes {
			w.problem(fproblemWrite, arg.Pos(), "via "+callee.Name()+": "+s.where,
				"%s passes published frozen %s to %s, which stores to it (%s); frozen shared artifacts are immutable once they escape their constructor",
				w.fd.Name.Name, typeShort(typeOf(w.an.pass, arg)), callee.Name(), s.where)
		}
	case fkStore:
		if s.writes {
			w.problem(fproblemWrite, arg.Pos(), "via "+callee.Name()+": "+s.where,
				"%s passes an alias of frozen shared storage to %s, which writes through it (%s)",
				w.fd.Name.Name, callee.Name(), s.where)
		}
	}
}

func typeOf(pass *Pass, e ast.Expr) types.Type {
	if tv, ok := pass.TypesInfo.Types[e]; ok {
		return tv.Type
	}
	return types.Typ[types.Invalid]
}

// onceDoConstruction recognizes e.once.Do(func(){...}) where once is a
// sync.Once field of e, and walks the closure with e treated as fresh: the
// Do body is the value's lazy constructor, run exactly once before any
// reader sequences after the Do. Returns true if the call was handled.
func (w *freezeWalker) onceDoConstruction(call *ast.CallExpr) bool {
	fun, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || fun.Sel.Name != "Do" {
		return false
	}
	callee, ok := w.an.pass.TypesInfo.Uses[fun.Sel].(*types.Func)
	if !ok || callee.Pkg() == nil || callee.Pkg().Path() != "sync" {
		return false
	}
	// fun.X must be <base>.once (a field selection on a plain identifier);
	// the lazily constructed value is that identifier.
	onceSel, ok := fun.X.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	baseIdent, ok := onceSel.X.(*ast.Ident)
	if !ok {
		return false
	}
	obj := w.an.pass.TypesInfo.Uses[baseIdent]
	if obj == nil || len(call.Args) != 1 {
		return false
	}
	fl, ok := call.Args[0].(*ast.FuncLit)
	if !ok {
		// Do(name): evaluate conservatively and move on.
		w.eval(call.Args[0])
		return true
	}
	c := w.fork()
	delete(c.pub, obj)
	delete(c.store, obj)
	c.fresh[obj] = true
	c.walkStmt(fl.Body)
	// State discovered inside the Do body stays local — the value is only
	// fresh within its own once — but summary bits found there propagate.
	if w.summary != nil {
		w.summary.writes = w.summary.writes || c.summary.writes
		w.summary.publishes = w.summary.publishes || c.summary.publishes
	}
	return true
}

func (w *freezeWalker) evalBuiltin(name string, call *ast.CallExpr) (freezeKind, types.Object) {
	switch name {
	case "new":
		if w.summary == nil && len(call.Args) == 1 {
			if tv, ok := w.an.pass.TypesInfo.Types[call.Args[0]]; ok && tv.IsType() && w.an.isFrozen(tv.Type) {
				return fkFresh, nil
			}
		}
		return fkNone, nil
	case "append":
		var k freezeKind
		var root types.Object
		for i, arg := range call.Args {
			ak, ar := w.eval(arg)
			if i == 0 {
				k, root = ak, ar
				if ak == fkStore || ak == fkPub {
					w.problem(fproblemWrite, arg.Pos(), "append("+exprString(arg)+", ...)",
						"%s appends to frozen shared storage (%s); append may write the shared backing array in place",
						w.fd.Name.Name, exprString(arg))
				}
			}
		}
		return k, root
	case "copy":
		if len(call.Args) == 2 {
			if dk, _ := w.eval(call.Args[0]); dk == fkStore || dk == fkPub {
				w.problem(fproblemWrite, call.Args[0].Pos(), "copy("+exprString(call.Args[0])+", ...)",
					"%s copies into frozen shared storage (%s); frozen artifacts are immutable once published",
					w.fd.Name.Name, exprString(call.Args[0]))
			}
			w.eval(call.Args[1])
		}
		return fkNone, nil
	default:
		for _, arg := range call.Args {
			w.eval(arg)
		}
		return fkNone, nil
	}
}

// writeRoot walks an LHS chain to its root object, reporting whether the
// chain dereferences (index/field/star) on the way.
func writeRoot(pass *Pass, e ast.Expr) (types.Object, bool) {
	deref := false
	for {
		switch x := e.(type) {
		case *ast.Ident:
			obj := pass.TypesInfo.Uses[x]
			if obj == nil {
				obj = pass.TypesInfo.Defs[x]
			}
			return obj, deref
		case *ast.IndexExpr:
			e, deref = x.X, true
		case *ast.SelectorExpr:
			e, deref = x.X, true
		case *ast.StarExpr:
			e, deref = x.X, true
		case *ast.SliceExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		default:
			return nil, deref
		}
	}
}
