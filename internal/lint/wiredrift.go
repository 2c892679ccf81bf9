package lint

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"strconv"
	"strings"

	"lrcdsm/internal/lint/analysis"
)

// WireDrift machine-checks the wire codec's hand-maintained
// compatibility matrix so a new message kind (codec v5's batching
// frames, and everything after) cannot silently ship half-wired. The
// codec is table-driven: Encode and Decode both walk the `fields` map,
// String() reads `kindNames`, and Decode's version gates compare
// against the firstV2Kind/firstV3Kind/firstV4Kind band markers. Each of
// those tables is updated by hand when a kind is added, and nothing but
// convention keeps them in sync with the Kind enum.
//
// For a package declaring a `Kind` type (the analyzer is scoped to
// lrcdsm/internal/live/wire by the driver), wiredrift verifies:
//
//   - every exported Kind constant below kindEnd has a `fields` entry —
//     the single table both Encode and Decode dispatch on, so a missing
//     entry means Encode panics and Decode rejects the kind;
//   - every such constant has a non-empty `kindNames` entry, so
//     diagnostics and stats never print a bare "kind(N)";
//   - a firstV{N}Kind band marker exists for every wire version 2
//     through Version — bumping Version without opening a band is how a
//     new kind ends up decodable from frames too old to carry it;
//   - the band markers are strictly increasing and inside the enum, so
//     a kind inserted mid-enum (renumbering everything after it, a wire
//     compatibility break) trips the ordering check. A version that only
//     widened existing kinds has an empty band, its marker equal to
//     kindEnd;
//   - every band marker is referenced inside Decode — the version gate
//     is the only consumer, so an unreferenced marker means the gate
//     for that band is missing.
var WireDrift = &analysis.Analyzer{
	Name: "wiredrift",
	Doc:  "verifies every wire Kind has fields/name entries and sits behind its version gate",
	Run:  runWireDrift,
}

func runWireDrift(pass *analysis.Pass) error {
	scope := pass.Pkg.Scope()
	kindObj := scope.Lookup("Kind")
	if kindObj == nil {
		return nil // not a codec package; nothing to check
	}
	kindType, ok := kindObj.(*types.TypeName)
	if !ok {
		return nil
	}

	// Enumerate the Kind constants: the exported enum members, the
	// kindEnd sentinel, and the firstV*Kind band markers.
	type kindConst struct {
		obj *types.Const
		val int64
		pos token.Pos
	}
	var kinds []kindConst
	bands := map[int]kindConst{} // wire version -> firstV{N}Kind
	var kindEnd *kindConst
	for _, name := range scope.Names() {
		c, ok := scope.Lookup(name).(*types.Const)
		if !ok || !types.Identical(c.Type(), kindType.Type()) {
			continue
		}
		v, ok := constant.Int64Val(c.Val())
		if !ok {
			continue
		}
		kc := kindConst{obj: c, val: v, pos: c.Pos()}
		switch {
		case name == "kindEnd":
			kcCopy := kc
			kindEnd = &kcCopy
		case strings.HasPrefix(name, "firstV") && strings.HasSuffix(name, "Kind"):
			if n, err := strconv.Atoi(strings.TrimSuffix(strings.TrimPrefix(name, "firstV"), "Kind")); err == nil {
				bands[n] = kc
			}
		case c.Exported():
			kinds = append(kinds, kc)
		}
	}
	if len(kinds) == 0 {
		return nil
	}

	fieldsKeys := compositeKeyVals(pass, "fields")
	nameKeys := compositeKeyVals(pass, "kindNames")
	decodeRefs := identsUsedIn(pass, "Decode")
	version, versionPos := intConst(pass, "Version")

	for _, k := range kinds {
		if kindEnd != nil && k.val >= kindEnd.val {
			continue
		}
		name := k.obj.Name()
		if _, ok := fieldsKeys[k.val]; !ok {
			pass.Reportf(k.pos, "wire kind %s has no fields entry: Encode panics and Decode rejects it", name)
		}
		if s, ok := nameKeys[k.val]; !ok || s == "" {
			pass.Reportf(k.pos, "wire kind %s has no kindNames entry: String() falls back to kind(%d)", name, k.val)
		}
	}

	// Version bands: one marker per wire version past the first, in
	// strictly increasing kind order, each enforced in Decode.
	if version > 1 {
		var prev *kindConst
		for v := 2; v <= version; v++ {
			band, ok := bands[v]
			if !ok {
				pass.Reportf(versionPos, "wire version %d has no firstV%dKind band marker: v%d kinds would decode from older frames", version, v, v)
				continue
			}
			if prev != nil && band.val <= prev.val {
				pass.Reportf(band.pos, "band marker %s (%d) does not follow %s (%d): version bands must partition the enum in order",
					band.obj.Name(), band.val, prev.obj.Name(), prev.val)
			}
			if kindEnd != nil && band.val > kindEnd.val {
				pass.Reportf(band.pos, "band marker %s (%d) lies outside the kind enum", band.obj.Name(), band.val)
			}
			if !decodeRefs[band.obj.Name()] {
				pass.Reportf(band.pos, "band marker %s is not checked in Decode: its version gate is missing", band.obj.Name())
			}
			bandCopy := band
			prev = &bandCopy
		}
	}
	return nil
}

// compositeKeyVals returns the keys of the package-level composite
// literal named varName (the `fields` map or `kindNames` array): a map
// from each key constant's value to the entry's string value (for
// string-valued literals) or "" otherwise. Nil keys map is returned as
// empty if the variable does not exist.
func compositeKeyVals(pass *analysis.Pass, varName string) map[int64]string {
	out := map[int64]string{}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
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
					lit, ok := vs.Values[i].(*ast.CompositeLit)
					if !ok {
						continue
					}
					for _, elt := range lit.Elts {
						kv, ok := elt.(*ast.KeyValueExpr)
						if !ok {
							continue
						}
						ktv, ok := pass.TypesInfo.Types[kv.Key]
						if !ok || ktv.Value == nil {
							continue
						}
						kval, ok := constant.Int64Val(constant.ToInt(ktv.Value))
						if !ok {
							continue
						}
						sval := ""
						if vtv, ok := pass.TypesInfo.Types[kv.Value]; ok && vtv.Value != nil && vtv.Value.Kind() == constant.String {
							sval = constant.StringVal(vtv.Value)
						} else if vtv.Value == nil {
							sval = "\x01" // non-constant entry: present, non-empty
						}
						out[kval] = sval
					}
				}
			}
		}
	}
	return out
}

// identsUsedIn returns the set of identifier names referenced inside
// the body of the package-level function funcName.
func identsUsedIn(pass *analysis.Pass, funcName string) map[string]bool {
	out := map[string]bool{}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Recv != nil || fd.Name.Name != funcName || fd.Body == nil {
				continue
			}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				if id, ok := n.(*ast.Ident); ok {
					out[id.Name] = true
				}
				return true
			})
		}
	}
	return out
}

// intConst returns the value and position of the package-level integer
// constant named name (0 and NoPos if absent).
func intConst(pass *analysis.Pass, name string) (int, token.Pos) {
	c, ok := pass.Pkg.Scope().Lookup(name).(*types.Const)
	if !ok {
		return 0, token.NoPos
	}
	v, ok := constant.Int64Val(constant.ToInt(c.Val()))
	if !ok {
		return 0, token.NoPos
	}
	return int(v), c.Pos()
}
