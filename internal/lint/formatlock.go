package lint

import (
	"fmt"
	"go/ast"
	"go/constant"
	"go/token"
	"os"
	"sort"
	"strconv"
	"strings"
)

// FormatLock pins each wire stream's layout to a checked-in fingerprint
// baseline. The fingerprint is a canonical text rendering of everything
// that defines the encoded bytes: the stream's declared format version
// (its trace.FormatVersions entry), its fixed-width header fields (the
// trace.HeaderFields entry), and every opcode's payload op sequence as
// extracted by the wirecheck engine. Evolving a format is a deliberate
// two-step: bump the stream's FormatVersions entry, then regenerate the
// baseline with `poptlint -wirecheck -update`. Drift without a bump is
// refused in both modes — old encoded bytes would otherwise be misread
// by a decoder that believes nothing changed.

// wireBaselineHeader is written atop generated baseline files.
const wireBaselineHeader = `# poptlint wirecheck fingerprint baseline.
# One section per //popt:codec stream: the declared format version, the
# fixed-width header fields, and each opcode's payload op sequence.
# Regenerate deliberately with: go run ./cmd/poptlint -wirecheck -update ./...
`

// NewFormatLock builds the formatlock analyzer against the baseline file
// at path. With update set, drifted streams whose version was bumped are
// rewritten in place instead of reported; drift without a version bump is
// refused either way.
func NewFormatLock(path string, update bool) *Analyzer {
	a := &Analyzer{
		Name: "formatlock",
		Doc: "diffs each wire stream's canonical fingerprint (FormatVersions " +
			"entry, header fields, per-opcode payload ops) against the checked-in " +
			"baseline; layout drift requires a version bump plus -update",
	}
	a.Run = func(pass *Pass) error {
		return runFormatLock(pass, path, update)
	}
	return a
}

// baselineEntry is one stream section of the baseline file.
type baselineEntry struct {
	version int64
	body    []string // "header ..." and "op ..." lines, canonical order
}

func runFormatLock(pass *Pass, path string, update bool) error {
	fns := parseCodecFuncs(pass, false)
	if len(fns) == 0 {
		return nil
	}
	info := extractWire(pass)
	versions, versionPos := wireRegistry(pass, "FormatVersions")
	headers := wireHeaderFields(pass)

	baseline, haveFile, err := readWireBaseline(path)
	if err != nil {
		return err
	}
	changed := false
	for _, name := range info.names {
		st := info.streams[name]
		if len(st.encArms) == 0 {
			// Dec-only stream: codecpair owns that report; nothing to lock.
			continue
		}
		ver, declared := versions[name]
		if !declared {
			pass.Reportf(st.encFns[0].decl.Pos(),
				"stream %q has //popt:codec annotations but no FormatVersions entry; add one so the wire layout is versioned", name)
			continue
		}
		pos := versionPos[name]
		entry := &baselineEntry{version: ver, body: fingerprintBody(st, headers[name])}
		base, inBaseline := baseline[name]
		switch {
		case !inBaseline:
			if update {
				baseline[name] = entry
				changed = true
			} else {
				pass.Reportf(pos,
					"stream %q has no entry in the wire-format baseline %s; run `poptlint -wirecheck -update` to record it", name, path)
			}
		case entry.version == base.version && sameLines(entry.body, base.body):
			// Locked and matching.
		case entry.version == base.version:
			pass.Reportf(pos,
				"wire fingerprint of stream %q changed but FormatVersions[%q] is still %d; bump the version, then regenerate the baseline with `poptlint -wirecheck -update`",
				name, name, ver)
		default:
			if update {
				baseline[name] = entry
				changed = true
			} else {
				pass.Reportf(pos,
					"wire-format baseline for stream %q is stale (baseline version %d, package declares %d); regenerate it with `poptlint -wirecheck -update`",
					name, base.version, entry.version)
			}
		}
	}
	// A baseline stream the package's FormatVersions registry no longer
	// declares has been retired: nothing encodes or decodes it, so its
	// section only hides the retirement. -update drops it; check mode
	// asks for that deliberate step.
	if reg := registryLit(pass, "FormatVersions"); reg != nil {
		retired := make([]string, 0, len(baseline))
		for name := range baseline {
			if _, live := versions[name]; !live {
				retired = append(retired, name)
			}
		}
		sort.Strings(retired)
		for _, name := range retired {
			if update {
				delete(baseline, name)
				changed = true
				continue
			}
			pass.Reportf(reg.Pos(),
				"wire-format baseline %s still locks stream %q, which FormatVersions no longer declares; drop its section with `poptlint -wirecheck -update`",
				path, name)
		}
	}
	if update && (changed || !haveFile) {
		if err := writeWireBaseline(path, baseline); err != nil {
			return fmt.Errorf("writing wire baseline %s: %w", path, err)
		}
	}
	return nil
}

// fingerprintBody renders the canonical lines for one stream: header
// fields in declared order, then opcodes sorted by value.
func fingerprintBody(st *streamCodec, headerFields []string) []string {
	var body []string
	for _, f := range headerFields {
		body = append(body, "header "+f)
	}
	ops := make([]int64, 0, len(st.encArms))
	for op := range st.encArms {
		ops = append(ops, op)
	}
	sort.Slice(ops, func(i, j int) bool { return ops[i] < ops[j] })
	for _, op := range ops {
		arm := st.encArms[op]
		// Arms whose opcode came from a tracked variable carry no const
		// block attribution; the stream's block still names them.
		name := arm.name
		if st.block != nil {
			if n, ok := st.block.names[op]; ok {
				name = n
			}
		}
		body = append(body, fmt.Sprintf("op %d %s %s", op, name, seqString(arm.seq)))
	}
	return body
}

func sameLines(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// readWireBaseline parses the baseline file. A missing file is not an
// error (check mode reports per stream; update mode creates it).
func readWireBaseline(path string) (map[string]*baselineEntry, bool, error) {
	out := make(map[string]*baselineEntry)
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return out, false, nil
	}
	if err != nil {
		return nil, false, err
	}
	var cur *baselineEntry
	for lineNo, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		switch {
		case line == "" || strings.HasPrefix(line, "#"):
		case strings.HasPrefix(line, "stream "):
			fields := strings.Fields(line)
			if len(fields) != 4 || fields[2] != "version" {
				return nil, false, fmt.Errorf("%s:%d: malformed stream line %q", path, lineNo+1, line)
			}
			v, err := strconv.ParseInt(fields[3], 10, 64)
			if err != nil {
				return nil, false, fmt.Errorf("%s:%d: bad version in %q", path, lineNo+1, line)
			}
			cur = &baselineEntry{version: v}
			out[fields[1]] = cur
		case line == "end":
			cur = nil
		default:
			if cur == nil {
				return nil, false, fmt.Errorf("%s:%d: line %q outside a stream section", path, lineNo+1, line)
			}
			cur.body = append(cur.body, line)
		}
	}
	return out, true, nil
}

// writeWireBaseline renders the baseline deterministically: streams
// sorted by name, one section each.
func writeWireBaseline(path string, entries map[string]*baselineEntry) error {
	names := make([]string, 0, len(entries))
	for name := range entries {
		names = append(names, name)
	}
	sort.Strings(names)
	var b strings.Builder
	b.WriteString(wireBaselineHeader)
	for _, name := range names {
		e := entries[name]
		fmt.Fprintf(&b, "stream %s version %d\n", name, e.version)
		for _, line := range e.body {
			b.WriteString(line)
			b.WriteByte('\n')
		}
		b.WriteString("end\n")
	}
	return os.WriteFile(path, []byte(b.String()), 0o644)
}

// wireRegistry extracts a package-level `var <name> = map[string]byte{...}`
// registry: stream name -> value, plus each entry's source position.
func wireRegistry(pass *Pass, varName string) (map[string]int64, map[string]token.Pos) {
	values := make(map[string]int64)
	positions := make(map[string]token.Pos)
	forEachRegistryEntry(pass, varName, func(key string, kv *ast.KeyValueExpr) {
		if tv, ok := pass.TypesInfo.Types[kv.Value]; ok && tv.Value != nil {
			if v, ok := constant.Int64Val(constant.ToInt(tv.Value)); ok {
				values[key] = v
				positions[key] = kv.Pos()
			}
		}
	})
	return values, positions
}

// wireHeaderFields extracts the `var HeaderFields = map[string][]string`
// declaration: stream name -> header field names in declared order.
func wireHeaderFields(pass *Pass) map[string][]string {
	out := make(map[string][]string)
	forEachRegistryEntry(pass, "HeaderFields", func(key string, kv *ast.KeyValueExpr) {
		lit, ok := kv.Value.(*ast.CompositeLit)
		if !ok {
			return
		}
		var fields []string
		for _, el := range lit.Elts {
			if tv, ok := pass.TypesInfo.Types[el]; ok && tv.Value != nil && tv.Value.Kind() == constant.String {
				fields = append(fields, constant.StringVal(tv.Value))
			}
		}
		out[key] = fields
	})
	return out
}

// registryLit returns the map literal of the package-level var with the
// given name, or nil if the package declares no such literal.
func registryLit(pass *Pass, varName string) *ast.CompositeLit {
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok || gd.Tok != token.VAR {
				continue
			}
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok {
					continue
				}
				for i, name := range vs.Names {
					if name.Name != varName || i >= len(vs.Values) {
						continue
					}
					if lit, ok := vs.Values[i].(*ast.CompositeLit); ok {
						return lit
					}
				}
			}
		}
	}
	return nil
}

// forEachRegistryEntry visits the key/value entries of a package-level
// map-literal var with the given name.
func forEachRegistryEntry(pass *Pass, varName string, visit func(key string, kv *ast.KeyValueExpr)) {
	lit := registryLit(pass, varName)
	if lit == nil {
		return
	}
	for _, el := range lit.Elts {
		kv, ok := el.(*ast.KeyValueExpr)
		if !ok {
			continue
		}
		tv, ok := pass.TypesInfo.Types[kv.Key]
		if !ok || tv.Value == nil || tv.Value.Kind() != constant.String {
			continue
		}
		visit(constant.StringVal(tv.Value), kv)
	}
}
