package gen

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"

	"cosparse/internal/matrix"
)

// ReadEdgeList parses a SNAP-style edge list: one "src dst [weight]"
// pair per line, '#' or '%' comment lines ignored, whitespace-separated.
// Vertex ids are compacted to a dense [0, n) range in order of first
// appearance, matching how SNAP loaders typically normalize ids. The
// resulting matrix is the transposed adjacency (element (dst, src)),
// ready for f_next = SpMV(G.T, f).
func ReadEdgeList(r io.Reader, undirected bool) (*matrix.COO, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	// Vertex ids and edge indices are int32 throughout the matrix
	// package; past MaxInt32 interning would wrap and silently alias
	// vertices, so the parser rejects instead.
	ids := make(map[int64]int32)
	intern := func(raw int64) (int32, error) {
		if v, ok := ids[raw]; ok {
			return v, nil
		}
		if len(ids) >= math.MaxInt32 {
			return 0, fmt.Errorf("gen: edge list has more than %d distinct vertices (32-bit index space)", math.MaxInt32)
		}
		v := int32(len(ids))
		ids[raw] = v
		return v, nil
	}
	var elems []matrix.Coord
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || text[0] == '#' || text[0] == '%' {
			continue
		}
		fields := strings.Fields(text)
		if len(fields) < 2 {
			return nil, fmt.Errorf("gen: edge list line %d: want 'src dst [w]', got %q", line, text)
		}
		src, err := strconv.ParseInt(fields[0], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("gen: edge list line %d: bad source: %v", line, err)
		}
		dst, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("gen: edge list line %d: bad destination: %v", line, err)
		}
		w := float32(1)
		if len(fields) >= 3 {
			f, err := strconv.ParseFloat(fields[2], 32)
			if err != nil {
				return nil, fmt.Errorf("gen: edge list line %d: bad weight: %v", line, err)
			}
			w = float32(f)
		}
		s, err := intern(src)
		if err != nil {
			return nil, fmt.Errorf("gen: edge list line %d: %w", line, err)
		}
		d, err := intern(dst)
		if err != nil {
			return nil, fmt.Errorf("gen: edge list line %d: %w", line, err)
		}
		if len(elems) >= math.MaxInt32-1 {
			return nil, fmt.Errorf("gen: edge list line %d: more than %d edges (32-bit index space)", line, math.MaxInt32-1)
		}
		// Transposed adjacency: row = destination, col = source.
		elems = append(elems, matrix.Coord{Row: d, Col: s, Val: w})
		if undirected {
			elems = append(elems, matrix.Coord{Row: s, Col: d, Val: w})
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("gen: reading edge list: %w", err)
	}
	n := len(ids)
	return matrix.NewCOO(n, n, elems)
}

// WriteEdgeList emits the matrix as a SNAP-style edge list, inverting
// the transposed-adjacency convention of ReadEdgeList so that
// WriteEdgeList∘ReadEdgeList round-trips a directed graph. It streams
// rows straight out of the store, so writing a compressed graph never
// materializes an uncompressed copy.
func WriteEdgeList(w io.Writer, st matrix.Store, header string) error {
	bw := bufio.NewWriter(w)
	if header != "" {
		if _, err := fmt.Fprintf(bw, "# %s\n", header); err != nil {
			return err
		}
	}
	r, _ := st.Dims()
	if _, err := fmt.Fprintf(bw, "# vertices: %d edges: %d\n", r, st.NNZ()); err != nil {
		return err
	}
	var werr error
	st.DecodeRows(0, int32(r), func(row, col int32, val float32) {
		if werr != nil {
			return
		}
		// Row is destination, Col is source.
		_, werr = fmt.Fprintf(bw, "%d\t%d\t%g\n", col, row, val)
	})
	if werr != nil {
		return werr
	}
	return bw.Flush()
}
