package cosparse

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestMakefileGatesNameRealTests checks every -run, -bench and -fuzz
// pattern of a `go test` line in the Makefile: each |-separated
// alternative must match a function of the kind the flag selects in
// the packages the line names. A renamed or moved test otherwise turns
// its gate into a run of nothing, which go test reports as a pass.
func TestMakefileGatesNameRealTests(t *testing.T) {
	raw, err := os.ReadFile("Makefile")
	if err != nil {
		t.Fatal(err)
	}
	funcs := testFuncsByDir(t)
	prefixes := map[string][]string{"-run": {"Test", "Fuzz"}, "-bench": {"Benchmark"}, "-fuzz": {"Fuzz"}}
	checked := 0
	for n, line := range strings.Split(string(raw), "\n") {
		if !strings.Contains(line, "$(GO) test") {
			continue
		}
		line = strings.ReplaceAll(line, "$$", "$")
		var dirs []string
		pats := map[string]string{}
		words := strings.Fields(strings.ReplaceAll(line, "'", ""))
		for i, w := range words {
			flag, val, hasVal := strings.Cut(w, "=")
			if _, ok := prefixes[flag]; ok {
				if !hasVal && i+1 < len(words) {
					val = words[i+1]
				}
				pats[flag] = val
			} else if w == "." || strings.HasPrefix(w, "./") {
				dirs = append(dirs, w)
			}
		}
		for flag, pat := range pats {
			for _, alt := range splitTop(pat) {
				alt, _, _ = strings.Cut(strings.Trim(alt, "^$"), "/") // the top-level name; the rest picks subtests
				if alt == "" {
					continue
				}
				re, err := regexp.Compile(alt)
				if err != nil {
					t.Errorf("Makefile:%d: %s %q: %v", n+1, flag, alt, err)
					continue
				}
				checked++
				if !anyMatch(re, prefixes[flag], funcs, dirs) {
					t.Errorf("Makefile:%d: %s alternative %q matches no %v function in %v", n+1, flag, alt, prefixes[flag], dirs)
				}
			}
		}
	}
	if checked == 0 {
		t.Fatal("found no test patterns in the Makefile")
	}
}

// testFuncsByDir maps each package directory ("." for the root) to the
// names of the top-level functions in its _test.go files.
func testFuncsByDir(t *testing.T) map[string][]string {
	out := map[string][]string{}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && (strings.HasPrefix(d.Name(), ".") && path != "." || d.Name() == "testdata") {
			return filepath.SkipDir
		}
		if d.IsDir() || !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		dir := filepath.Dir(path)
		for _, decl := range f.Decls {
			if fn, ok := decl.(*ast.FuncDecl); ok && fn.Recv == nil {
				out[dir] = append(out[dir], fn.Name.Name)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// splitTop splits a go test pattern on the | that are outside
// parentheses.
func splitTop(pat string) []string {
	var alts []string
	depth, start := 0, 0
	for i, c := range pat {
		switch c {
		case '(':
			depth++
		case ')':
			depth--
		case '|':
			if depth == 0 {
				alts = append(alts, pat[start:i])
				start = i + 1
			}
		}
	}
	return append(alts, pat[start:])
}

// anyMatch reports whether re matches a function with one of prefixes
// in the package directories dirs ("./..." is every directory).
func anyMatch(re *regexp.Regexp, prefixes []string, funcs map[string][]string, dirs []string) bool {
	for dir, names := range funcs {
		in := false
		for _, d := range dirs {
			in = in || d == "./..." || filepath.Clean(d) == dir
		}
		if !in {
			continue
		}
		for _, name := range names {
			for _, p := range prefixes {
				if strings.HasPrefix(name, p) && re.MatchString(name) {
					return true
				}
			}
		}
	}
	return false
}
