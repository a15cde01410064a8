package lint

import (
	"fmt"
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// This file is the shared engine of the wirecheck family (codecpair,
// formatlock, opexhaust): the analyzers that hold the hand-written
// varint/delta wire codecs in internal/trace to their invariants. A codec
// here is a set of functions annotated
//
//	//popt:codec <stream> enc
//	//popt:codec <stream> dec
//
// in their doc comments. The engine symbolically walks every annotated
// function and reduces each opcode's wire layout to a canonical sequence
// of primitive ops:
//
//	op       an opcode byte append (encoders only; implicit in decoders)
//	pc       the inline-or-escaped PC nibble idiom (see below)
//	uvarint  a LEB128 varint   (appendUvarint / uvarint / uvarintChecked)
//	varint   a zigzag varint   (appendVarint / varint / varintChecked)
//
// The walk is a small abstract interpreter, not a syntax match:
//
//   - Opcode variables are tracked concretely: `op := opA`, `op = opB`,
//     `op += opC - opA` all evaluate, so one encoder function can emit
//     several opcodes and each is attributed its own payload.
//   - Branches whose condition involves only tracked values evaluate to
//     one side (`if op >= opC` inside a multi-opcode case arm).
//   - Other branches fork the walk; textually identical conditions are
//     memoized per path, so the two `pending != 0` blocks in an encoder
//     correlate instead of multiplying into impossible paths.
//   - Paths that end in a panic or by returning a non-nil error are
//     decode *failure* paths, not wire layouts, and are discarded.
//
// Two idioms are folded into single ops so both codec sides canonicalize
// identically. A branch whose condition mentions the constant `pcEscape`
// is the PC nibble idiom (inline PC in the opcode's high nibble, or an
// escape marker followed by a uvarint PC) and becomes one `pc` op; on the
// encoder side the same fold applies to `op|...<<4` appends. A branch
// whose condition mentions the literal 0x80 is the one-byte varint fast
// path and becomes one `varint` op.

// wire op kinds.
const (
	wireOp      = "op"
	wirePC      = "pc"
	wireUvarint = "uvarint"
	wireVarint  = "varint"
)

// pcEscapeName is the constant name that identifies the PC nibble idiom;
// pcModeInline/pcModeEscape classify an encoder's opcode-byte append.
const pcEscapeName = "pcEscape"

const (
	pcModeNone = iota
	pcModeInline
	pcModeEscape
)

// wireMaxPaths caps the fork fan-out of one function walk; real codecs
// have a handful of correlated branches, so hitting the cap means the
// function is too tangled to certify and is reported as such.
const wireMaxPaths = 64

// codecFn is one annotated codec function.
type codecFn struct {
	decl   *ast.FuncDecl
	stream string
	enc    bool
}

func (f *codecFn) name() string { return f.decl.Name.Name }

// parseCodecFuncs collects //popt:codec annotations from function doc
// comments. Malformed annotations are reported through report.
func parseCodecFuncs(pass *Pass, report bool) []*codecFn {
	var fns []*codecFn
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Doc == nil {
				continue
			}
			for _, c := range fn.Doc.List {
				text := strings.TrimSpace(c.Text)
				if !strings.HasPrefix(text, "//popt:codec") {
					continue
				}
				fields := strings.Fields(strings.TrimPrefix(text, "//popt:codec"))
				if len(fields) != 2 || (fields[1] != "enc" && fields[1] != "dec") {
					if report {
						pass.Reportf(c.Pos(), "malformed codec annotation %q; want //popt:codec <stream> enc|dec", text)
					}
					continue
				}
				fns = append(fns, &codecFn{decl: fn, stream: fields[0], enc: fields[1] == "enc"})
			}
		}
	}
	return fns
}

// opBlock is one const block holding opcode constants. The universe is
// the block's leading iota run (`opX byte = iota + 1` followed by bare
// names): the declared opcode set. Constants after the first explicitly
// re-valued spec (opMask, pcEscape, ...) are members but not opcodes.
type opBlock struct {
	decl      *ast.GenDecl
	universe  []string // opcode names, declaration order
	values    map[string]int64
	names     map[int64]string // value -> first opcode name
	blockName string           // first opcode name, for messages
}

func (b *opBlock) opName(v int64) string {
	if n, ok := b.names[v]; ok {
		return n
	}
	return fmt.Sprintf("%d", v)
}

// collectOpBlocks finds every const block opening with an iota run and
// maps each member constant object to its block.
func collectOpBlocks(pass *Pass) map[types.Object]*opBlock {
	out := make(map[types.Object]*opBlock)
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok || gd.Tok != token.CONST || len(gd.Specs) == 0 {
				continue
			}
			first, ok := gd.Specs[0].(*ast.ValueSpec)
			if !ok || len(first.Values) == 0 || !mentionsIdent(first.Values[0], "iota") {
				continue
			}
			block := &opBlock{
				decl:   gd,
				values: make(map[string]int64),
				names:  make(map[int64]string),
			}
			inRun := true
			var members []types.Object
			for i, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok {
					continue
				}
				if i > 0 && len(vs.Values) > 0 {
					inRun = false // explicit re-valuing ends the opcode run
				}
				for _, name := range vs.Names {
					obj := pass.TypesInfo.Defs[name]
					cst, ok := obj.(*types.Const)
					if !ok {
						continue
					}
					v, ok := constant.Int64Val(constant.ToInt(cst.Val()))
					if !ok {
						continue
					}
					members = append(members, obj)
					block.values[name.Name] = v
					if inRun {
						block.universe = append(block.universe, name.Name)
						if _, seen := block.names[v]; !seen {
							block.names[v] = name.Name
						}
					}
				}
			}
			if len(block.universe) == 0 {
				continue
			}
			block.blockName = block.universe[0]
			for _, obj := range members {
				out[obj] = block
			}
		}
	}
	return out
}

// wireTok is one primitive op observed on a walk path.
type wireTok struct {
	kind   string
	op     int64 // wireOp only
	pcMode int   // wireOp only
	block  *opBlock
	pos    token.Pos
}

// wireEnv is the state of one walk path.
type wireEnv struct {
	vars  map[string]int64 // concretely tracked locals (opcode variables)
	conds map[string]bool  // memoized branch decisions, by condition text
	toks  []wireTok
	done  bool // hit return/continue/break: stop consuming statements
	dead  bool // ended in panic or error return: not a wire layout
}

func (e *wireEnv) clone() *wireEnv {
	c := &wireEnv{
		vars:  make(map[string]int64, len(e.vars)),
		conds: make(map[string]bool, len(e.conds)),
		toks:  append([]wireTok(nil), e.toks...),
	}
	for k, v := range e.vars {
		c.vars[k] = v
	}
	for k, v := range e.conds {
		c.conds[k] = v
	}
	return c
}

func (e *wireEnv) emit(t wireTok) { e.toks = append(e.toks, t) }

// wireIssue is an extraction problem (reported only by codecpair, so the
// other family members don't duplicate it).
type wireIssue struct {
	pos token.Pos
	msg string
}

// wireWalker walks annotated function bodies.
type wireWalker struct {
	pass      *Pass
	blocks    map[types.Object]*opBlock
	funcDecls map[types.Object]*ast.FuncDecl
	issues    []wireIssue
	capped    bool
}

func newWireWalker(pass *Pass) *wireWalker {
	w := &wireWalker{
		pass:      pass,
		blocks:    collectOpBlocks(pass),
		funcDecls: make(map[types.Object]*ast.FuncDecl),
	}
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			if fn, ok := decl.(*ast.FuncDecl); ok {
				if obj := pass.TypesInfo.Defs[fn.Name]; obj != nil {
					w.funcDecls[obj] = fn
				}
			}
		}
	}
	return w
}

func (w *wireWalker) issue(pos token.Pos, format string, args ...any) {
	w.issues = append(w.issues, wireIssue{pos: pos, msg: fmt.Sprintf(format, args...)})
}

// walkBody runs every statement over the live path set.
func (w *wireWalker) walkBody(stmts []ast.Stmt, envs []*wireEnv) []*wireEnv {
	for _, s := range stmts {
		var next []*wireEnv
		for _, e := range envs {
			if e.done {
				next = append(next, e)
				continue
			}
			next = append(next, w.walkStmt(s, e)...)
		}
		if len(next) > wireMaxPaths {
			if !w.capped {
				w.capped = true
				w.issue(s.Pos(), "codec walk exceeds %d paths; simplify the function or split the codec", wireMaxPaths)
			}
			next = next[:wireMaxPaths]
		}
		envs = next
	}
	return envs
}

func (w *wireWalker) walkStmt(s ast.Stmt, env *wireEnv) []*wireEnv {
	switch s := s.(type) {
	case *ast.BlockStmt:
		return w.walkBody(s.List, []*wireEnv{env})

	case *ast.IfStmt:
		envs := []*wireEnv{env}
		if s.Init != nil {
			envs = w.walkBody([]ast.Stmt{s.Init}, envs)
		}
		var out []*wireEnv
		for _, e := range envs {
			if e.done {
				out = append(out, e)
				continue
			}
			switch {
			case mentionsIdent(s.Cond, pcEscapeName):
				// PC nibble idiom: one branch reads the inline nibble, the
				// other the escaped uvarint. Fold to a single pc op.
				e.emit(wireTok{kind: wirePC, pos: s.Pos()})
				out = append(out, e)
			case mentionsVarintBoundary(s.Cond):
				// One-byte varint fast path: both branches decode the same
				// zigzag varint.
				e.emit(wireTok{kind: wireVarint, pos: s.Pos()})
				out = append(out, e)
			default:
				if v, ok := w.evalBool(s.Cond, e); ok {
					out = append(out, w.walkBranch(s, v, e)...)
					continue
				}
				key := types.ExprString(s.Cond)
				if v, seen := e.conds[key]; seen {
					out = append(out, w.walkBranch(s, v, e)...)
					continue
				}
				t := e.clone()
				t.conds[key] = true
				out = append(out, w.walkBranch(s, true, t)...)
				e.conds[key] = false
				out = append(out, w.walkBranch(s, false, e)...)
			}
		}
		return out

	case *ast.SwitchStmt:
		// Generic (non-dispatch) switch: fork one path per arm. Dispatch
		// switches are handled by extractDec, which walks each case clause
		// with the tag bound to one opcode; a switch reached here inside an
		// arm is treated as opaque control flow.
		envs := []*wireEnv{env}
		if s.Init != nil {
			envs = w.walkBody([]ast.Stmt{s.Init}, envs)
		}
		var out []*wireEnv
		hasDefault := false
		for _, e := range envs {
			for _, cc := range s.Body.List {
				clause := cc.(*ast.CaseClause)
				if clause.List == nil {
					hasDefault = true
				}
				out = append(out, w.walkBody(clause.Body, []*wireEnv{e.clone()})...)
			}
			if !hasDefault {
				out = append(out, e)
			}
		}
		return out

	case *ast.ReturnStmt:
		w.collectCalls(s, env)
		env.done = true
		if w.isErrorReturn(s) {
			env.dead = true
		}
		return []*wireEnv{env}

	case *ast.BranchStmt:
		env.done = true
		return []*wireEnv{env}

	case *ast.ForStmt, *ast.RangeStmt:
		// Loops never carry per-event codec ops in this codebase (the
		// varint primitives own the only loops); treat as opaque.
		return []*wireEnv{env}

	case *ast.AssignStmt:
		w.collectCalls(s, env)
		w.trackAssign(s, env)
		return []*wireEnv{env}

	default:
		w.collectCalls(s, env)
		return []*wireEnv{env}
	}
}

func (w *wireWalker) walkBranch(s *ast.IfStmt, cond bool, env *wireEnv) []*wireEnv {
	if cond {
		return w.walkBody(s.Body.List, []*wireEnv{env})
	}
	if s.Else == nil {
		return []*wireEnv{env}
	}
	return w.walkBody([]ast.Stmt{s.Else}, []*wireEnv{env})
}

// collectCalls scans one non-control statement for codec primitives in
// evaluation order, emitting their ops into env.
func (w *wireWalker) collectCalls(n ast.Node, env *wireEnv) {
	ast.Inspect(n, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.CallExpr:
			name := wireCalleeName(n)
			switch name {
			case "append":
				if len(n.Args) >= 2 {
					for _, arg := range n.Args[1:] {
						w.opTokenFromExpr(arg, env)
					}
				}
				return false
			case "appendUvarint", "uvarint", "uvarintChecked":
				env.emit(wireTok{kind: wireUvarint, pos: n.Pos()})
				return false
			case "appendVarint", "varint", "varintChecked":
				env.emit(wireTok{kind: wireVarint, pos: n.Pos()})
				return false
			case "panic":
				env.done, env.dead = true, true
				return false
			default:
				if w.callPanics(n) {
					env.done, env.dead = true, true
					return false
				}
			}
		}
		return true
	})
}

// opTokenFromExpr classifies one buffer-append argument as an opcode
// byte, with or without the PC nibble idiom.
func (w *wireWalker) opTokenFromExpr(arg ast.Expr, env *wireEnv) {
	expr := ast.Unparen(arg)
	if be, ok := expr.(*ast.BinaryExpr); ok && be.Op == token.OR {
		// op | <nibble>: the left side is the opcode, the right side the
		// PC nibble — an escape marker if it mentions pcEscape.
		v, block, ok := w.evalInt(be.X, env)
		if !ok {
			w.issue(arg.Pos(), "cannot determine the opcode value of this buffer append; codec appends must use opcode constants or concretely tracked opcode variables")
			return
		}
		mode := pcModeInline
		if mentionsIdent(be.Y, pcEscapeName) {
			mode = pcModeEscape
		}
		env.emit(wireTok{kind: wireOp, op: v, pcMode: mode, block: block, pos: arg.Pos()})
		return
	}
	v, block, ok := w.evalInt(expr, env)
	if !ok {
		w.issue(arg.Pos(), "cannot determine the opcode value of this buffer append; codec appends must use opcode constants or concretely tracked opcode variables")
		return
	}
	env.emit(wireTok{kind: wireOp, op: v, block: block, pos: arg.Pos()})
}

// trackAssign keeps opcode variables concrete across assignments.
func (w *wireWalker) trackAssign(s *ast.AssignStmt, env *wireEnv) {
	if len(s.Lhs) == 1 && len(s.Rhs) == 1 {
		id, ok := s.Lhs[0].(*ast.Ident)
		if !ok || id.Name == "_" {
			return
		}
		switch s.Tok {
		case token.ASSIGN, token.DEFINE:
			if v, _, ok := w.evalInt(s.Rhs[0], env); ok {
				env.vars[id.Name] = v
				return
			}
		case token.ADD_ASSIGN, token.SUB_ASSIGN, token.OR_ASSIGN, token.AND_ASSIGN, token.XOR_ASSIGN:
			if cur, have := env.vars[id.Name]; have {
				if d, _, ok := w.evalInt(s.Rhs[0], env); ok {
					switch s.Tok {
					case token.ADD_ASSIGN:
						env.vars[id.Name] = cur + d
					case token.SUB_ASSIGN:
						env.vars[id.Name] = cur - d
					case token.OR_ASSIGN:
						env.vars[id.Name] = cur | d
					case token.AND_ASSIGN:
						env.vars[id.Name] = cur & d
					case token.XOR_ASSIGN:
						env.vars[id.Name] = cur ^ d
					}
					return
				}
			}
		}
		delete(env.vars, id.Name)
		return
	}
	// Multi-assign (pc, i = uvarint(...)): every plain-ident target loses
	// its tracked value.
	for _, lhs := range s.Lhs {
		if id, ok := lhs.(*ast.Ident); ok {
			delete(env.vars, id.Name)
		}
	}
}

// evalInt evaluates expr to a concrete integer using package constants
// and the path's tracked variables. The returned block is the opcode
// const block of the first block constant the expression references.
func (w *wireWalker) evalInt(expr ast.Expr, env *wireEnv) (int64, *opBlock, bool) {
	switch e := ast.Unparen(expr).(type) {
	case *ast.Ident:
		if obj := w.pass.TypesInfo.Uses[e]; obj != nil {
			if cst, ok := obj.(*types.Const); ok {
				if v, ok := constant.Int64Val(constant.ToInt(cst.Val())); ok {
					return v, w.blocks[obj], true
				}
			}
		}
		if v, ok := env.vars[e.Name]; ok {
			return v, nil, true
		}
	case *ast.BasicLit:
		if tv, ok := w.pass.TypesInfo.Types[e]; ok && tv.Value != nil {
			if v, ok := constant.Int64Val(constant.ToInt(tv.Value)); ok {
				return v, nil, true
			}
		}
	case *ast.BinaryExpr:
		x, bx, okx := w.evalInt(e.X, env)
		y, by, oky := w.evalInt(e.Y, env)
		if !okx || !oky {
			return 0, nil, false
		}
		block := bx
		if block == nil {
			block = by
		}
		switch e.Op {
		case token.ADD:
			return x + y, block, true
		case token.SUB:
			return x - y, block, true
		case token.OR:
			return x | y, block, true
		case token.AND:
			return x & y, block, true
		case token.XOR:
			return x ^ y, block, true
		case token.SHL:
			return x << uint(y), block, true
		case token.SHR:
			return x >> uint(y), block, true
		}
	case *ast.UnaryExpr:
		if v, b, ok := w.evalInt(e.X, env); ok {
			switch e.Op {
			case token.SUB:
				return -v, b, true
			case token.ADD:
				return v, b, true
			case token.XOR:
				return ^v, b, true
			}
		}
	case *ast.CallExpr:
		// Type conversion (byte(x), uint64(x)): evaluate the operand.
		if len(e.Args) == 1 {
			if tv, ok := w.pass.TypesInfo.Types[e.Fun]; ok && tv.IsType() {
				return w.evalInt(e.Args[0], env)
			}
		}
	}
	// Whole-expression constant folding (covers selector-qualified
	// constants and anything the type checker already evaluated).
	if tv, ok := w.pass.TypesInfo.Types[expr]; ok && tv.Value != nil {
		if v, ok := constant.Int64Val(constant.ToInt(tv.Value)); ok {
			return v, nil, true
		}
	}
	return 0, nil, false
}

// evalBool evaluates a branch condition over tracked values.
func (w *wireWalker) evalBool(expr ast.Expr, env *wireEnv) (bool, bool) {
	switch e := ast.Unparen(expr).(type) {
	case *ast.Ident:
		switch e.Name {
		case "true":
			return true, true
		case "false":
			return false, true
		}
	case *ast.UnaryExpr:
		if e.Op == token.NOT {
			if v, ok := w.evalBool(e.X, env); ok {
				return !v, true
			}
		}
	case *ast.BinaryExpr:
		switch e.Op {
		case token.LAND, token.LOR:
			x, okx := w.evalBool(e.X, env)
			if okx && ((e.Op == token.LAND && !x) || (e.Op == token.LOR && x)) {
				return x, true
			}
			y, oky := w.evalBool(e.Y, env)
			if okx && oky {
				if e.Op == token.LAND {
					return x && y, true
				}
				return x || y, true
			}
		default:
			x, _, okx := w.evalInt(e.X, env)
			y, _, oky := w.evalInt(e.Y, env)
			if okx && oky {
				switch e.Op {
				case token.EQL:
					return x == y, true
				case token.NEQ:
					return x != y, true
				case token.LSS:
					return x < y, true
				case token.LEQ:
					return x <= y, true
				case token.GTR:
					return x > y, true
				case token.GEQ:
					return x >= y, true
				}
			}
		}
	}
	return false, false
}

// isErrorReturn reports whether the return carries a non-nil error value
// — a decode failure path, not a wire layout.
func (w *wireWalker) isErrorReturn(ret *ast.ReturnStmt) bool {
	for _, r := range ret.Results {
		if id, ok := ast.Unparen(r).(*ast.Ident); ok && id.Name == "nil" {
			continue
		}
		if tv, ok := w.pass.TypesInfo.Types[r]; ok && tv.Type != nil && isErrorType(tv.Type) {
			return true
		}
	}
	return false
}

// callPanics reports whether the call targets a same-package function
// whose body (one level deep) panics — the badOp/badEOF out-of-line
// pattern that keeps hot loops escape-free.
func (w *wireWalker) callPanics(call *ast.CallExpr) bool {
	var obj types.Object
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		obj = w.pass.TypesInfo.Uses[fun]
	case *ast.SelectorExpr:
		obj = w.pass.TypesInfo.Uses[fun.Sel]
	}
	if obj == nil {
		return false
	}
	decl, ok := w.funcDecls[obj]
	if !ok || decl.Body == nil {
		return false
	}
	panics := false
	ast.Inspect(decl.Body, func(n ast.Node) bool {
		if c, ok := n.(*ast.CallExpr); ok {
			if id, ok := c.Fun.(*ast.Ident); ok && id.Name == "panic" {
				panics = true
			}
		}
		return !panics
	})
	return panics
}

func isErrorType(t types.Type) bool {
	if t == nil {
		return false
	}
	if named, ok := t.(*types.Named); ok && named.Obj().Pkg() == nil && named.Obj().Name() == "error" {
		return true
	}
	iface, ok := t.Underlying().(*types.Interface)
	return ok && iface.NumMethods() == 1 && iface.Method(0).Name() == "Error"
}

func wireCalleeName(call *ast.CallExpr) string {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return fun.Name
	case *ast.SelectorExpr:
		return fun.Sel.Name
	}
	return ""
}

func mentionsIdent(expr ast.Expr, name string) bool {
	found := false
	ast.Inspect(expr, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && id.Name == name {
			found = true
		}
		return !found
	})
	return found
}

// mentionsVarintBoundary reports whether the condition compares against
// the LEB128 continuation boundary (0x80) — the one-byte varint fast path.
func mentionsVarintBoundary(expr ast.Expr) bool {
	found := false
	ast.Inspect(expr, func(n ast.Node) bool {
		if lit, ok := n.(*ast.BasicLit); ok && lit.Kind == token.INT {
			if lit.Value == "0x80" || lit.Value == "128" {
				found = true
			}
		}
		return !found
	})
	return found
}

// ---------------------------------------------------------------------
// Arm extraction
// ---------------------------------------------------------------------

// wireArm is one opcode's canonical payload sequence on one codec side.
type wireArm struct {
	op   int64
	name string
	seq  []string
	pos  token.Pos
	fn   *codecFn
}

func seqString(seq []string) string {
	if len(seq) == 0 {
		return "(empty)"
	}
	return strings.Join(seq, " ")
}

// decCodec is one decoder function's extracted dispatch.
type decCodec struct {
	fn       *codecFn
	arms     map[int64]*wireArm
	switches []*dispatchSwitch
}

// dispatchSwitch is an opcode dispatch switch inside a decoder.
type dispatchSwitch struct {
	sw       *ast.SwitchStmt
	tag      string
	block    *opBlock
	def      *ast.CaseClause // nil when absent
	caseVals map[int64]bool
}

// streamCodec is everything extracted for one annotated stream.
type streamCodec struct {
	name    string
	encArms map[int64]*wireArm
	encFns  []*codecFn
	decs    []*decCodec
	block   *opBlock
}

// wireInfo is the extraction result for one package.
type wireInfo struct {
	streams map[string]*streamCodec
	names   []string // sorted stream names
	issues  []wireIssue
}

// extractWire runs the walker over every annotated function and builds
// per-stream codec summaries. Extraction problems land in issues (only
// codecpair reports them, so the family does not triple-report).
func extractWire(pass *Pass) *wireInfo {
	info := &wireInfo{streams: make(map[string]*streamCodec)}
	fns := parseCodecFuncs(pass, false)
	if len(fns) == 0 {
		return info
	}
	w := newWireWalker(pass)
	for _, fn := range fns {
		st := info.streams[fn.stream]
		if st == nil {
			st = &streamCodec{name: fn.stream, encArms: make(map[int64]*wireArm)}
			info.streams[fn.stream] = st
			info.names = append(info.names, fn.stream)
		}
		if fn.enc {
			st.encFns = append(st.encFns, fn)
			extractEnc(w, fn, st)
		} else {
			st.decs = append(st.decs, extractDec(w, fn))
		}
	}
	sort.Strings(info.names)
	for _, name := range info.names {
		st := info.streams[name]
		if st.block != nil {
			continue
		}
		// Dec-only streams still know their block from the dispatch switch.
		for _, dec := range st.decs {
			for _, ds := range dec.switches {
				st.block = ds.block
			}
		}
	}
	info.issues = w.issues
	return info
}

// extractEnc walks one encoder function and folds its paths into the
// stream's per-opcode arm map.
func extractEnc(w *wireWalker, fn *codecFn, st *streamCodec) {
	if fn.decl.Body == nil {
		return
	}
	env := &wireEnv{vars: make(map[string]int64), conds: make(map[string]bool)}
	envs := w.walkBody(fn.decl.Body.List, []*wireEnv{env})
	for _, e := range envs {
		if e.dead {
			continue
		}
		arms, ok := splitEncArms(w, fn, e.toks)
		if !ok {
			continue
		}
		for _, arm := range arms {
			if st.block == nil {
				st.block = arm.tokBlock
			}
			prev, seen := st.encArms[arm.op]
			if !seen {
				st.encArms[arm.op] = &arm.wireArm
				continue
			}
			if seqString(prev.seq) != seqString(arm.seq) {
				w.issue(arm.pos, "opcode %s is encoded as [%s] here but as [%s] in %s; one opcode must have one payload layout",
					arm.name, seqString(arm.seq), seqString(prev.seq), prev.fn.name())
			}
		}
	}
}

// tokArm is a wireArm plus the opcode const block it was attributed to.
type tokArm struct {
	wireArm
	tokBlock *opBlock
}

// splitEncArms slices one path's op list into per-opcode arms: each op
// byte starts an arm; pc-mode op bytes canonicalize into a leading pc op
// (the escape form consumes its trailing uvarint PC).
func splitEncArms(w *wireWalker, fn *codecFn, toks []wireTok) ([]*tokArm, bool) {
	var arms []*tokArm
	var cur *tokArm
	consumePC := false
	for _, t := range toks {
		if t.kind == wireOp {
			name := fmt.Sprintf("%d", t.op)
			if t.block != nil {
				name = t.block.opName(t.op)
			}
			cur = &tokArm{wireArm: wireArm{op: t.op, name: name, pos: t.pos, fn: fn}, tokBlock: t.block}
			arms = append(arms, cur)
			consumePC = false
			switch t.pcMode {
			case pcModeInline:
				cur.seq = append(cur.seq, wirePC)
			case pcModeEscape:
				cur.seq = append(cur.seq, wirePC)
				consumePC = true
			}
			continue
		}
		if cur == nil {
			w.issue(t.pos, "codec %s emits a %s payload before any opcode byte", fn.name(), t.kind)
			return nil, false
		}
		if consumePC {
			if t.kind != wireUvarint {
				w.issue(t.pos, "escaped-PC opcode byte must be followed by a uvarint PC, found %s", t.kind)
				return nil, false
			}
			consumePC = false
			continue
		}
		cur.seq = append(cur.seq, t.kind)
	}
	if consumePC {
		w.issue(toks[len(toks)-1].pos, "escaped-PC opcode byte is not followed by its uvarint PC")
		return nil, false
	}
	return arms, true
}

// extractDec finds the decoder's opcode dispatch switches and walks each
// case clause once per opcode with the tag bound concretely.
func extractDec(w *wireWalker, fn *codecFn) *decCodec {
	dec := &decCodec{fn: fn, arms: make(map[int64]*wireArm)}
	if fn.decl.Body == nil {
		return dec
	}
	ast.Inspect(fn.decl.Body, func(n ast.Node) bool {
		sw, ok := n.(*ast.SwitchStmt)
		if !ok {
			return true
		}
		ds := classifyDispatch(w, sw)
		if ds == nil {
			return true
		}
		dec.switches = append(dec.switches, ds)
		for _, cc := range sw.Body.List {
			clause := cc.(*ast.CaseClause)
			if clause.List == nil {
				continue
			}
			for _, caseExpr := range clause.List {
				v, block, ok := w.evalInt(caseExpr, &wireEnv{})
				if !ok {
					continue
				}
				env := &wireEnv{vars: map[string]int64{ds.tag: v}, conds: make(map[string]bool)}
				envs := w.walkBody(clause.Body, []*wireEnv{env})
				name := opNameFor(block, ds.block, v)
				for _, e := range envs {
					if e.dead {
						continue
					}
					seq := make([]string, 0, len(e.toks))
					for _, t := range e.toks {
						seq = append(seq, t.kind)
					}
					prev, seen := dec.arms[v]
					if !seen {
						dec.arms[v] = &wireArm{op: v, name: name, seq: seq, pos: clause.Pos(), fn: fn}
						continue
					}
					if seqString(prev.seq) != seqString(seq) {
						w.issue(clause.Pos(), "decoder arm for opcode %s in %s is not structurally constant: decodes [%s] on one path and [%s] on another",
							name, fn.name(), seqString(prev.seq), seqString(seq))
					}
				}
			}
		}
		return false // don't re-classify nested switches
	})
	return dec
}

func opNameFor(block, fallback *opBlock, v int64) string {
	if block != nil {
		return block.opName(v)
	}
	if fallback != nil {
		return fallback.opName(v)
	}
	return fmt.Sprintf("%d", v)
}

// classifyDispatch recognizes an opcode dispatch switch: an ident tag
// with at least one case, where every case expression is a constant from
// one opcode const block.
func classifyDispatch(w *wireWalker, sw *ast.SwitchStmt) *dispatchSwitch {
	tag, ok := ast.Unparen(sw.Tag).(*ast.Ident)
	if !ok || sw.Body == nil {
		return nil
	}
	ds := &dispatchSwitch{sw: sw, tag: tag.Name, caseVals: make(map[int64]bool)}
	cases := 0
	for _, cc := range sw.Body.List {
		clause, ok := cc.(*ast.CaseClause)
		if !ok {
			return nil
		}
		if clause.List == nil {
			ds.def = clause
			continue
		}
		for _, e := range clause.List {
			id, ok := ast.Unparen(e).(*ast.Ident)
			if !ok {
				return nil
			}
			obj := w.pass.TypesInfo.Uses[id]
			block, inBlock := w.blocks[obj]
			if !inBlock {
				return nil
			}
			if ds.block == nil {
				ds.block = block
			}
			if ds.block != block {
				return nil
			}
			v, ok := block.values[id.Name]
			if !ok {
				return nil
			}
			ds.caseVals[v] = true
			cases++
		}
	}
	if cases == 0 || ds.block == nil {
		return nil
	}
	return ds
}

// ---------------------------------------------------------------------
// codecpair
// ---------------------------------------------------------------------

// CodecPair verifies encoder/decoder parity for every annotated wire
// stream: each side's per-opcode payload op sequence must match, every
// encoded opcode must be dispatched by every decoder of the stream, and
// every dispatched opcode must be encoded by someone. An asymmetry here
// is a silent corruption bug — the decoder would misread every event
// after the first mismatched payload.
var CodecPair = &Analyzer{
	Name: "codecpair",
	Doc: "verifies //popt:codec encoder/decoder parity per wire stream: " +
		"symmetric per-opcode payload op sequences, no opcode encoded but " +
		"never dispatched, none dispatched but never encoded",
	Run: runCodecPair,
}

func runCodecPair(pass *Pass) error {
	fns := parseCodecFuncs(pass, true)
	if len(fns) == 0 {
		return nil
	}
	info := extractWire(pass)
	for _, iss := range info.issues {
		pass.Reportf(iss.pos, "%s", iss.msg)
	}
	for _, name := range info.names {
		st := info.streams[name]
		if len(st.encFns) == 0 {
			for _, dec := range st.decs {
				pass.Reportf(dec.fn.decl.Pos(), "stream %q has decoder annotations but no //popt:codec %s enc function", name, name)
			}
			continue
		}
		if len(st.decs) == 0 {
			pass.Reportf(st.encFns[0].decl.Pos(), "stream %q has encoder annotations but no //popt:codec %s dec function", name, name)
			continue
		}
		encOps := make([]int64, 0, len(st.encArms))
		for op := range st.encArms {
			encOps = append(encOps, op)
		}
		sort.Slice(encOps, func(i, j int) bool { return encOps[i] < encOps[j] })
		for _, dec := range st.decs {
			if len(dec.switches) == 0 {
				pass.Reportf(dec.fn.decl.Pos(), "decoder %s of stream %q has no opcode dispatch switch; the codecpair contract needs one switch over the opcode constants", dec.fn.name(), name)
				continue
			}
			for _, op := range encOps {
				enc := st.encArms[op]
				d, ok := dec.arms[op]
				if !ok {
					pass.Reportf(enc.pos, "opcode %s of stream %q is encoded by %s but never dispatched in decoder %s",
						enc.name, name, enc.fn.name(), dec.fn.name())
					continue
				}
				if seqString(enc.seq) != seqString(d.seq) {
					pass.Reportf(d.pos, "asymmetric codec for opcode %s of stream %q: %s encodes [%s] but %s decodes [%s]",
						enc.name, name, enc.fn.name(), seqString(enc.seq), dec.fn.name(), seqString(d.seq))
				}
			}
			decOps := make([]int64, 0, len(dec.arms))
			for op := range dec.arms {
				decOps = append(decOps, op)
			}
			sort.Slice(decOps, func(i, j int) bool { return decOps[i] < decOps[j] })
			for _, op := range decOps {
				if _, ok := st.encArms[op]; !ok {
					d := dec.arms[op]
					pass.Reportf(d.pos, "opcode %s of stream %q is dispatched in decoder %s but never encoded",
						d.name, name, dec.fn.name())
				}
			}
		}
	}
	return nil
}
