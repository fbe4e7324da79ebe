package runtime

// Checkpoint overhead measurement (the `make bench-checkpoint` target):
// native-backend PageRank on a scale-16 power-law graph, with and
// without checkpointing at the service's default interval (every 16
// iterations), snapshots written through the real store — encode, tmp
// file, fsync, rename. Gated behind BENCH_CHECKPOINT; results land in
// BENCH_checkpoint.json. The durability budget is <= 5% wall overhead.

import (
	"context"
	"encoding/json"
	"os"
	goruntime "runtime"
	"testing"
	"time"

	"cosparse/internal/exec"
	"cosparse/internal/gen"
	"cosparse/internal/sim"
	"cosparse/internal/store"
)

func TestBenchCheckpointOverhead(t *testing.T) {
	if os.Getenv("BENCH_CHECKPOINT") == "" {
		t.Skip("set BENCH_CHECKPOINT=1 to measure checkpoint overhead")
	}
	const (
		scale  = 16
		n      = 1 << scale
		edges  = 16 * n
		iters  = 48
		alpha  = 0.15
		every  = 16 // service default (Config.CheckpointEvery)
		trials = 5
	)
	m := gen.PowerLaw(n, edges, 0.55, gen.UniformWeight, 16)
	newFW := func() *Framework {
		f, err := NewFromStore(m, Options{
			Geometry: sim.Geometry{Tiles: 16, PEsPerTile: 16},
			Backend:  exec.Native(),
		})
		if err != nil {
			t.Fatal(err)
		}
		return f
	}

	st, err := store.Open(t.TempDir(), store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()

	// Best-of-trials filters scheduler noise out of both legs; the
	// framework is rebuilt per trial so neither leg benefits from a
	// warmed engine.
	run := func(cfg *CheckpointConfig) time.Duration {
		best := time.Duration(0)
		for i := 0; i < trials; i++ {
			f := newFW()
			ctx := context.Background()
			if cfg != nil {
				ctx = ContextWithCheckpoint(ctx, cfg)
			}
			t0 := time.Now()
			if _, _, err := lane0(f.PageRankBatch([]context.Context{ctx}, 1, iters, alpha)); err != nil {
				t.Fatal(err)
			}
			if d := time.Since(t0); best == 0 || d < best {
				best = d
			}
		}
		return best
	}

	plain := run(nil)
	snapshots := 0
	ckpt := run(&CheckpointConfig{
		Every: every,
		Sink: func(cp *Checkpoint) error {
			snapshots++
			return st.WriteSnapshot("bench", EncodeCheckpoint(cp))
		},
	})
	if snapshots == 0 {
		t.Fatal("checkpointed leg wrote no snapshots")
	}
	overhead := ckpt.Seconds()/plain.Seconds() - 1

	out := struct {
		Graph      string  `json:"graph"`
		Vertices   int     `json:"vertices"`
		Edges      int     `json:"edges"`
		Algo       string  `json:"algo"`
		Iters      int     `json:"iters"`
		Every      int     `json:"checkpoint_every"`
		PlainWallS float64 `json:"plain_wall_s"`
		CkptWallS  float64 `json:"ckpt_wall_s"`
		Overhead   float64 `json:"overhead_frac"`
		GOMAXPROCS int     `json:"gomaxprocs"`
	}{
		Graph:      "powerlaw-scale16",
		Vertices:   n,
		Edges:      edges,
		Algo:       "pr",
		Iters:      iters,
		Every:      every,
		PlainWallS: plain.Seconds(),
		CkptWallS:  ckpt.Seconds(),
		Overhead:   overhead,
		GOMAXPROCS: goruntime.GOMAXPROCS(0),
	}
	buf, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile("BENCH_checkpoint.json", append(buf, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("plain %v, checkpointed %v (%d snapshots): overhead %.2f%%",
		plain, ckpt, snapshots, overhead*100)

	if overhead > 0.05 {
		t.Errorf("checkpoint overhead %.2f%% exceeds the 5%% budget", overhead*100)
	}
}
