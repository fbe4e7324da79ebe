package cosparse

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// TestOperatingSurfaceDocumented checks README's "Operating surface"
// tables against the code: every flag cmd/cosparsed defines and every
// metric family internal/service renders has a row, and every row
// names a flag or family that still exists. A flag or family nobody
// can say the purpose of otherwise ships unnoticed.
func TestOperatingSurfaceDocumented(t *testing.T) {
	have := map[string]bool{}
	for _, name := range daemonFlags(t, filepath.Join("cmd", "cosparsed", "main.go")) {
		have["-"+name] = true
	}
	for _, name := range metricFamilies(t, filepath.Join("internal", "service")) {
		have[name] = true
	}
	rows := surfaceRows(t, "README.md")
	for _, name := range sortedKeys(have) {
		if !rows[name] {
			t.Errorf("README Operating surface has no row for %s", name)
		}
	}
	for _, name := range sortedKeys(rows) {
		if !have[name] {
			t.Errorf("README Operating surface row %s names no flag or metric family in the code", name)
		}
	}
}

// daemonFlags returns the names of the flag.X("name", …) calls in path.
func daemonFlags(t *testing.T, path string) []string {
	f, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.SkipObjectResolution)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
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
		if name, ok := stringLit(call.Args[0]); ok {
			names = append(names, name)
		}
		return true
	})
	if len(names) == 0 {
		t.Fatalf("found no flag definitions in %s", path)
	}
	return names
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

// surfaceRows returns the backquoted name in the first cell of every
// table row under README's "### Operating surface" heading.
func surfaceRows(t *testing.T, path string) map[string]bool {
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
	cell := regexp.MustCompile("^\\| `([^`]+)` \\|")
	rows := map[string]bool{}
	for _, line := range strings.Split(section, "\n") {
		if m := cell.FindStringSubmatch(line); m != nil {
			rows[m[1]] = true
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

func sortedKeys(m map[string]bool) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
