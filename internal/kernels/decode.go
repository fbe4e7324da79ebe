package kernels

import (
	"cosparse/internal/matrix"
	"cosparse/internal/sim"
)

// Compressed-domain execution model (Params.DecodePEs): when the
// resident matrix store is compressed, each PE's matrix stream is
// fetched from HBM at its *compressed* byte length and run through a
// per-PE decode unit that produces the raw (row, col, val) operand
// stream the pass bodies consume. The model is applied as a post-run
// adjustment to the machine's result rather than inside the
// event-level machine: the functional execution and every other
// timing interaction are untouched, which is what guarantees sim
// timings stay bit-identical when the flag is off (and that values
// never change either way).
//
// Charged per stream unit (one PE's row chunk for IP, one PE's
// frontier-column gather per tile for OP):
//   - compressed lines  = ceil(encoded bytes / BlockBytes)
//   - decode cycles     = compressed lines × DecodeCyclesPerLine
//   - HBM read lines    = base − raw matrix lines + compressed lines
//     (clamped at zero; raw lines are what the machine actually
//     charged for the decoded stream)
//
// The makespan only grows if some unit's decode pipe (plus its
// DecodeFillCycles ramp-up) is slower than the whole base run — decode
// overlaps compute otherwise. Decode-unit energy is intentionally not
// modeled; the HBM line delta already dominates the energy story and
// keeping EnergyJ untouched keeps the power model's meaning stable.

// decodeUnit is one compressed stream fetch: its encoded size and the
// raw operand bytes the machine charged for the same elements.
type decodeUnit struct {
	comp, raw int64
}

// applyDecodePEs folds the decode-unit model into a run result.
// passes scales every unit (the fused IP kernel re-streams the matrix
// once per lane block). Callers invoke it — and build units, a walk
// over every PE's stream — only when cfg.Params.DecodePEs is set; it is
// a no-op when the partition was cut from an uncompressed store (units
// nil).
func applyDecodePEs(cfg sim.Config, units []decodeUnit, passes int64, res *sim.Result) {
	par := cfg.Params
	if len(units) == 0 || passes <= 0 {
		return
	}
	block := int64(par.BlockBytes)
	if block <= 0 {
		return
	}
	var compLines, rawLines, maxUnitLines int64
	for _, u := range units {
		cl := (u.comp + block - 1) / block
		rl := (u.raw + block - 1) / block
		compLines += cl * passes
		rawLines += rl * passes
		if cl > maxUnitLines {
			maxUnitLines = cl
		}
	}
	res.Stats.DecodeCycles += compLines * par.DecodeCyclesPerLine
	res.Stats.HBMCompressedLines += compLines
	res.Stats.HBMSavedLines += rawLines - compLines
	adj := res.Stats.HBMLines - rawLines + compLines
	if adj < 0 {
		adj = 0
	}
	res.Stats.HBMLines = adj
	// Decode units run in parallel, one per PE stream, overlapped with
	// compute: the makespan stretches only when the slowest unit's pipe
	// cannot keep up with the whole base run.
	if pipe := maxUnitLines*par.DecodeCyclesPerLine + par.DecodeFillCycles; pipe > res.Cycles {
		res.Cycles = pipe
		res.Stats.Cycles = pipe
	}
}

// ipDecodeUnits builds the per-PE stream units for the IP kernel: the
// compressed bytes of each PE's row chunk against the 12 raw bytes per
// (row, col, val) element the machine streamed. Nil when the source
// store was uncompressed (the model then has nothing to re-charge).
func ipDecodeUnits(part *IPPartition) []decodeUnit {
	if part.PEStreamBytes == nil {
		return nil
	}
	units := make([]decodeUnit, part.NumPEs)
	for pe := 0; pe < part.NumPEs; pe++ {
		units[pe] = decodeUnit{
			comp: part.PEStreamBytes[pe],
			raw:  12 * int64(part.NNZOfPE(pe)),
		}
	}
	return units
}

// opDecodeUnits builds the per-(tile, PE) gather units for the OP
// kernel: each PE fetches its frontier columns' full encoded streams
// from the compressed column store (a decode unit cannot slice a
// varint column, so the whole column is fetched per tile), against the
// 8 raw bytes per (row, val) element of the tile's slice it actually
// consumed. The comparison is honest in both directions — on tall
// partitions the per-tile re-fetch can cost more lines than the raw
// slices, and HBMSavedLines goes negative.
func opDecodeUnits(part *OPPartition, f *matrix.SparseVec, peCols []int32) []decodeUnit {
	colBytes := part.colStreamBytes()
	if colBytes == nil {
		return nil
	}
	units := make([]decodeUnit, 0, part.Tiles*(len(peCols)-1))
	for t := 0; t < part.Tiles; t++ {
		colPtr := part.ColPtr[t]
		for pe := 0; pe+1 < len(peCols); pe++ {
			var u decodeUnit
			for k := peCols[pe]; k < peCols[pe+1]; k++ {
				j := f.Idx[k]
				u.comp += int64(colBytes[j])
				u.raw += 8 * int64(colPtr[j+1]-colPtr[j])
			}
			if u.comp > 0 || u.raw > 0 {
				units = append(units, u)
			}
		}
	}
	return units
}
