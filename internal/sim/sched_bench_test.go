package sim

import "testing"

// BenchmarkSchedule is the scheduler's cost per switch on the paper
// machine (16×16): with a zero scheduler window every single-cycle
// private scratchpad load hands the token to the next earliest
// processor, so host time is almost all handoffs and the choice of the
// next processor. ns/switch is host time per load.
func BenchmarkSchedule(b *testing.B) {
	cfg := NewConfig(Geometry{Tiles: 16, PEsPerTile: 16}, PS)
	cfg.Params.SchedulerWindow = 0
	const loads = 256
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m := MustMachine(cfg)
		m.Run(Program{PE: func(p *Proc) {
			for j := 0; j < loads; j++ {
				p.SPMLoad(j)
			}
		}})
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*loads*cfg.Geometry.TotalPEs()), "ns/switch")
}
