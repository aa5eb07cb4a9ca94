package system

import (
	"go/ast"
	"go/parser"
	"go/token"
	"reflect"
	"strings"
	"testing"
)

// TestConfigHashCoversEveryField is the runtime counterpart of the hashcov
// analyzer: arlint proves statically that Hash() reads every non-exempt
// field, this test proves dynamically that mutating such a field actually
// changes the hash (a field could be read but formatted into nothing), and
// that mutating a hash-exempt field leaves the cache key alone. The exempt
// set is parsed from config.go itself, so the test can never drift from the
// annotations the analyzer enforces.
func TestConfigHashCoversEveryField(t *testing.T) {
	// Parser self-check on a probe source: config.go currently exempts no
	// field, so an empty set there proves nothing about the parser.
	probe := hashExemptFields(t, "probe.go", "package p\n\ntype Config struct {\n\t//ar:exempt(hash) probe\n\tA int\n\tB int // ar:exempt(hash) probe\n\tC int\n}\n")
	if len(probe) != 2 || !probe["A"] || !probe["B"] {
		t.Fatalf("exemption parser self-check: got %v, want A and B", probe)
	}
	exempt := hashExemptFields(t, "config.go", nil)

	base := DefaultConfig(SchemeARFtid)
	baseHash := base.Hash()
	rt := reflect.TypeOf(base)
	for i := 0; i < rt.NumField(); i++ {
		name := rt.Field(i).Name
		cfg := base
		if !mutateLeaf(reflect.ValueOf(&cfg).Elem().Field(i)) {
			t.Fatalf("field %s has no mutable primitive leaf", name)
		}
		changed := cfg.Hash() != baseHash
		if exempt[name] && changed {
			t.Errorf("field %s is //ar:exempt(hash) but mutating it changed the hash: "+
				"the annotation and the implementation disagree", name)
		}
		if !exempt[name] && !changed {
			t.Errorf("field %s is not hash-exempt but mutating it left the hash "+
				"unchanged: a config differing only in %s would reuse a stale "+
				"cached result", name, name)
		}
	}
}

// hashExemptFields parses a Go file (src as for parser.ParseFile; nil reads
// filename) and returns the Config field names whose declarations carry an
// //ar:exempt(hash) annotation (trailing or on the line above, the same
// coverage rule the analyzer applies).
func hashExemptFields(t *testing.T, filename string, src any) map[string]bool {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, filename, src, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	var st *ast.StructType
	ast.Inspect(f, func(n ast.Node) bool {
		ts, ok := n.(*ast.TypeSpec)
		if ok && ts.Name.Name == "Config" {
			st, _ = ts.Type.(*ast.StructType)
			return false
		}
		return true
	})
	if st == nil {
		t.Fatalf("type Config not found in %s", filename)
	}
	isExempt := func(cg *ast.CommentGroup) bool {
		if cg == nil {
			return false
		}
		for _, c := range cg.List {
			text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
			if strings.HasPrefix(text, "ar:exempt(hash)") {
				return true
			}
		}
		return false
	}
	out := make(map[string]bool)
	for _, field := range st.Fields.List {
		if isExempt(field.Doc) || isExempt(field.Comment) {
			for _, name := range field.Names {
				out[name.Name] = true
			}
		}
	}
	return out
}

// mutateLeaf flips the first primitive leaf reachable inside v, descending
// into nested structs, and reports whether it found one.
func mutateLeaf(v reflect.Value) bool {
	switch v.Kind() {
	case reflect.Bool:
		v.SetBool(!v.Bool())
		return true
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		v.SetInt(v.Int() + 1)
		return true
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		v.SetUint(v.Uint() + 1)
		return true
	case reflect.Float32, reflect.Float64:
		v.SetFloat(v.Float() + 1.5)
		return true
	case reflect.String:
		v.SetString(v.String() + "x")
		return true
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if f := v.Field(i); f.CanSet() && mutateLeaf(f) {
				return true
			}
		}
	}
	return false
}
