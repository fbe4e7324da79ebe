package gen

import (
	"strings"
	"testing"
)

// FuzzParseSNAP throws arbitrary text at the SNAP edge-list reader. The
// parser must either return an error or a matrix that passes Validate
// with a square shape — never panic or hang.
func FuzzParseSNAP(f *testing.F) {
	f.Add("0 1\n1 2\n2 0\n", false)
	f.Add("# comment\n% other comment style\n3 4 0.5\n4 3 2\n", true)
	f.Add("10 20\n20 10\n10 10\n", false)
	f.Add("", false)
	f.Add("a b\n", false)
	f.Add("1\n", true)
	f.Add("-5 7\n7 -5\n", false)
	f.Add("9223372036854775807 0\n", false)
	f.Add("0 1 NaN\n", true)
	f.Add("0 0\n0 0\n0 0\n", false)

	f.Fuzz(func(t *testing.T, data string, undirected bool) {
		m, err := ReadEdgeList(strings.NewReader(data), undirected)
		if err != nil {
			return
		}
		if m.R != m.C {
			t.Fatalf("edge list produced non-square %dx%d matrix", m.R, m.C)
		}
		if err := m.Validate(); err != nil {
			t.Fatalf("accepted matrix fails validation: %v", err)
		}
	})
}
