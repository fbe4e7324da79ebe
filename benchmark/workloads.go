package main

import (
	"time"

	"cosparse"
)

// simPRIters is the PageRank length of a lib-sim-paper job; with the
// BFS it makes a job of about half a second of host time, so a window
// holds enough jobs for a median.
const simPRIters = 2

// workloadRunners maps each declared workload to its run. Graph sizes
// are the issue's, except where README.md "Departures" says otherwise.
var workloadRunners = map[string]func(*env) error{
	"lib-pr-dense": func(e *env) error {
		return runLibrary(e, libSpec{vertices: 65536, edges: 1 << 20, backend: cosparse.NativeBackend, job: jobPRDense})
	},
	"lib-traverse-sparse": func(e *env) error {
		return runLibrary(e, libSpec{vertices: 65536, edges: 1 << 20, backend: cosparse.NativeBackend, twin: true, job: jobTraverse})
	},
	"lib-cold-dvcsr": func(e *env) error {
		return runLibrary(e, libSpec{vertices: 65536, edges: 1 << 20, backend: cosparse.NativeBackend, dvcsr: true, job: jobCold})
	},
	"lib-sim-paper": func(e *env) error {
		return runLibrary(e, libSpec{vertices: 4096, edges: 65536, backend: cosparse.SimBackend, job: jobSimPaper})
	},
	"svc-tiny-durable": func(e *env) error {
		return runService(e, svcSpec{
			vertices: 512, edges: 4096, algo: "bfs", sources: 64,
			clients: 2, workers: 2, timeoutMs: 2000,
		})
	},
	"svc-ppr-open": func(e *env) error {
		return runService(e, svcSpec{
			vertices: 8192, edges: 131072, algo: "ppr", iterations: 10, sources: 32,
			batchWindow: 5 * time.Millisecond, batchLanes: 32, workers: 2,
			ratePerS: pprOpenRatePerS, burst: 2, timeoutMs: 2000,
		})
	},
}

func jobPRDense(in *libInst, c *caller, _ int32) error { return enginePR(in.eng, c, 10) }

func jobTraverse(in *libInst, c *caller, src int32) error {
	if err := engineBFS(in.eng, c, src); err != nil {
		return err
	}
	return c.engine("Engine.SSSP", func() (*cosparse.Report, error) {
		d, rep, err := in.engW.SSSP(src)
		c.floats = append(c.floats, d)
		return rep, err
	})
}

func engineBFS(eng *cosparse.Engine, c *caller, src int32) error {
	return c.engine("Engine.BFS", func() (*cosparse.Report, error) {
		r, rep, err := eng.BFS(src)
		if err == nil {
			c.ints = append(c.ints, r.Level, r.Parent)
		}
		return rep, err
	})
}

func enginePR(eng *cosparse.Engine, c *caller, iters int) error {
	return c.engine("Engine.PageRank", func() (*cosparse.Report, error) {
		v, rep, err := eng.PageRank(iters, 0.15)
		c.floats = append(c.floats, v)
		return rep, err
	})
}

// jobCold is the engine-cache-miss path: everything New and the first
// calls on a fresh engine do — decode, partition, materialise — is the
// job.
func jobCold(in *libInst, c *caller, src int32) error {
	var eng *cosparse.Engine
	err := c.run("cosparse.New", func() (err error) {
		eng, err = cosparse.New(in.g, sys, cosparse.WithBackend(cosparse.NativeBackend))
		return err
	})
	if err != nil {
		return err
	}
	return coldCalls(eng, c, src)
}

func coldCalls(eng *cosparse.Engine, c *caller, src int32) error {
	if err := enginePR(eng, c, 1); err != nil {
		return err
	}
	return engineBFS(eng, c, src)
}

func jobSimPaper(in *libInst, c *caller, src int32) error {
	if err := engineBFS(in.eng, c, src); err != nil {
		return err
	}
	return enginePR(in.eng, c, simPRIters)
}
