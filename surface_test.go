package cosparse

import (
	"go/ast"
	"go/constant"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"
)

// TestOperatingSurfaceDocumented checks README's "Operating surface"
// tables against the code: every flag cmd/cosparsed defines and every
// metric family internal/service renders has a row, every row names a
// flag or family that still exists, and every flag row's Default is
// the flag's real default as flag prints it (its first backquoted
// value, or "empty" for an empty string). A flag or family nobody can
// say the purpose of, or a default changed in code only, otherwise
// ships unnoticed.
func TestOperatingSurfaceDocumented(t *testing.T) {
	have := map[string]bool{}
	defaults := map[string]string{}
	for name, def := range daemonFlags(t, filepath.Join("cmd", "cosparsed", "main.go")) {
		have["-"+name] = true
		defaults["-"+name] = def
	}
	for _, name := range metricFamilies(t, filepath.Join("internal", "service")) {
		have[name] = true
	}
	rows := surfaceRows(t, "README.md")
	for _, name := range sortedKeys(have) {
		if _, ok := rows[name]; !ok {
			t.Errorf("README Operating surface has no row for %s", name)
		}
	}
	for _, name := range sortedKeys(rows) {
		if !have[name] {
			t.Errorf("README Operating surface row %s names no flag or metric family in the code", name)
		}
	}
	cellValue := regexp.MustCompile("^`([^`]*)`")
	for _, name := range sortedKeys(have) {
		def, isFlag := defaults[name]
		cell, ok := rows[name]
		if !isFlag || !ok {
			continue
		}
		got := ""
		if m := cellValue.FindStringSubmatch(cell); m != nil {
			got = m[1]
		} else if !strings.HasPrefix(cell, "empty") {
			t.Errorf("README row %s: Default %q is neither a backquoted value nor \"empty\"", name, cell)
			continue
		}
		if got != def {
			t.Errorf("README row %s: Default %q, but the flag's default is %q", name, got, def)
		}
	}
}

// daemonFlags returns the flag.X("name", default, …) calls in path,
// each name mapped to its default as flag prints it (the Flag's
// DefValue).
func daemonFlags(t *testing.T, path string) map[string]string {
	f, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.SkipObjectResolution)
	if err != nil {
		t.Fatal(err)
	}
	flags := map[string]string{}
	ast.Inspect(f, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || len(call.Args) == 0 {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		if pkg, ok := sel.X.(*ast.Ident); !ok || pkg.Name != "flag" {
			return true
		}
		name, ok := stringLit(call.Args[0])
		if !ok || len(call.Args) < 2 {
			return true
		}
		v := constValue(t, call.Args[1])
		switch sel.Sel.Name {
		case "Duration":
			ns, _ := constant.Int64Val(v)
			flags[name] = time.Duration(ns).String()
		case "String":
			flags[name] = constant.StringVal(v)
		default:
			flags[name] = v.ExactString()
		}
		return true
	})
	if len(flags) == 0 {
		t.Fatalf("found no flag definitions in %s", path)
	}
	return flags
}

// constValue evaluates a flag default written as a constant
// expression: literals, true/false, time units and the arithmetic
// between them.
func constValue(t *testing.T, e ast.Expr) constant.Value {
	switch e := e.(type) {
	case *ast.BasicLit:
		return constant.MakeFromLiteral(e.Value, e.Kind, 0)
	case *ast.ParenExpr:
		return constValue(t, e.X)
	case *ast.Ident:
		if e.Name == "true" || e.Name == "false" {
			return constant.MakeBool(e.Name == "true")
		}
	case *ast.SelectorExpr:
		units := map[string]time.Duration{"Nanosecond": time.Nanosecond, "Microsecond": time.Microsecond,
			"Millisecond": time.Millisecond, "Second": time.Second, "Minute": time.Minute, "Hour": time.Hour}
		if pkg, ok := e.X.(*ast.Ident); ok && pkg.Name == "time" && units[e.Sel.Name] != 0 {
			return constant.MakeInt64(int64(units[e.Sel.Name]))
		}
	case *ast.BinaryExpr:
		x, y := constValue(t, e.X), constValue(t, e.Y)
		if e.Op == token.SHL || e.Op == token.SHR {
			n, _ := constant.Uint64Val(y)
			return constant.Shift(x, e.Op, uint(n))
		}
		return constant.BinaryOp(x, e.Op, y)
	}
	t.Fatalf("flag default %T is not a constant expression this test evaluates", e)
	return nil
}

// familyName is the metric name at the start of a rendered series line.
var familyName = regexp.MustCompile(`^cosparsed_[a-z_]*[a-z]`)

// metricFamilies returns the distinct metric names that start a string
// literal in the non-test Go files of dir.
func metricFamilies(t *testing.T, dir string) []string {
	paths, err := filepath.Glob(filepath.Join(dir, "*.go"))
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, path := range paths {
		if strings.HasSuffix(path, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if s, ok := stringLit(n); ok {
				if name := familyName.FindString(s); name != "" {
					seen[name] = true
				}
			}
			return true
		})
	}
	if len(seen) == 0 {
		t.Fatalf("found no metric families in %s", dir)
	}
	return sortedKeys(seen)
}

// surfaceRows maps the backquoted name in the first cell of every table
// row under README's "### Operating surface" heading to the row's
// second cell (a flag's Default, a family's Type).
func surfaceRows(t *testing.T, path string) map[string]string {
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	_, section, ok := strings.Cut(string(raw), "\n### Operating surface\n")
	if !ok {
		t.Fatalf("%s has no Operating surface section", path)
	}
	if end := strings.Index(section, "\n#"); end >= 0 {
		section = section[:end]
	}
	cell := regexp.MustCompile("^\\| `([^`]+)` \\| ([^|]*) \\|")
	rows := map[string]string{}
	for _, line := range strings.Split(section, "\n") {
		if m := cell.FindStringSubmatch(line); m != nil {
			rows[m[1]] = m[2]
		}
	}
	return rows
}

func stringLit(n ast.Node) (string, bool) {
	lit, ok := n.(*ast.BasicLit)
	if !ok || lit.Kind != token.STRING {
		return "", false
	}
	s, err := strconv.Unquote(lit.Value)
	return s, err == nil
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
