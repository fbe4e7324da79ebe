package service

import (
	"container/list"
	"fmt"
	"strings"
	"sync"

	"cosparse"
	"cosparse/internal/fault"
)

// GraphSpec describes a graph to register: either generated on the
// server (uniform / powerlaw / suite) or supplied inline as a
// SNAP-style edge list. Exactly the JSON body of POST /v1/graphs.
type GraphSpec struct {
	// Name is an optional human label, echoed back in listings.
	Name string `json:"name,omitempty"`
	// Kind is "uniform", "powerlaw", "suite", or "edgelist".
	Kind string `json:"kind"`
	// Vertices/Edges size generated graphs (uniform, powerlaw).
	Vertices int `json:"vertices,omitempty"`
	Edges    int `json:"edges,omitempty"`
	// Suite names a Table III stand-in ("livejournal", "pokec",
	// "youtube", "twitter", "vsp"); Scale divides the published size.
	Suite string `json:"suite,omitempty"`
	Scale int    `json:"scale,omitempty"`
	// Weighted attaches uniform (0,1] weights (SSSP/CF need them).
	Weighted bool `json:"weighted,omitempty"`
	// Seed drives deterministic generation (default 42).
	Seed uint64 `json:"seed,omitempty"`
	// EdgeList is a SNAP-style "src dst [weight]" text body for
	// kind=edgelist; Undirected mirrors every edge.
	EdgeList   string `json:"edge_list,omitempty"`
	Undirected bool   `json:"undirected,omitempty"`
	// Format selects the resident storage format: "csr", "dvcsr", or
	// "auto" (the default) to pick per graph by exact encoded-size
	// comparison. Results are bit-identical whatever the
	// format; only the resident footprint charged to the memory budget
	// changes.
	Format string `json:"format,omitempty"`
}

// Build materializes the spec in its requested storage format,
// enforcing the registry's size limits.
func (s GraphSpec) Build(maxVertices, maxEdges int) (*cosparse.Graph, error) {
	f, err := cosparse.ParseFormat(s.Format)
	if err != nil {
		return nil, err
	}
	g, err := s.buildRaw(maxVertices, maxEdges)
	if err != nil {
		return nil, err
	}
	return g.InFormat(f)
}

func (s GraphSpec) buildRaw(maxVertices, maxEdges int) (*cosparse.Graph, error) {
	mode := cosparse.Unweighted
	if s.Weighted {
		mode = cosparse.Weighted
	}
	seed := s.Seed
	if seed == 0 {
		seed = 42
	}
	switch strings.ToLower(s.Kind) {
	case "uniform", "powerlaw":
		if s.Vertices <= 0 || s.Edges <= 0 {
			return nil, fmt.Errorf("kind %q needs positive vertices and edges, got %d/%d", s.Kind, s.Vertices, s.Edges)
		}
		if s.Vertices > maxVertices || s.Edges > maxEdges {
			return nil, fmt.Errorf("graph too large: %d vertices / %d edges exceeds the server limit of %d/%d",
				s.Vertices, s.Edges, maxVertices, maxEdges)
		}
		if strings.ToLower(s.Kind) == "uniform" {
			return cosparse.GenerateUniform(s.Vertices, s.Edges, mode, seed)
		}
		return cosparse.GeneratePowerLaw(s.Vertices, s.Edges, mode, seed)
	case "suite":
		if s.Suite == "" {
			return nil, fmt.Errorf("kind \"suite\" needs a suite name")
		}
		scale := s.Scale
		if scale <= 0 {
			scale = 64
		}
		g, err := cosparse.GenerateSuite(s.Suite, scale, mode, seed)
		if err != nil {
			return nil, err
		}
		if g.NumVertices() > maxVertices || g.NumEdges() > maxEdges {
			return nil, fmt.Errorf("suite %q at scale 1/%d is %d vertices / %d edges, over the server limit of %d/%d — raise scale",
				s.Suite, scale, g.NumVertices(), g.NumEdges(), maxVertices, maxEdges)
		}
		return g, nil
	case "edgelist":
		if strings.TrimSpace(s.EdgeList) == "" {
			return nil, fmt.Errorf("kind \"edgelist\" needs a non-empty edge_list body")
		}
		g, err := cosparse.LoadEdgeList(strings.NewReader(s.EdgeList), s.Undirected)
		if err != nil {
			return nil, err
		}
		if g.NumVertices() > maxVertices || g.NumEdges() > maxEdges {
			return nil, fmt.Errorf("edge list is %d vertices / %d edges, over the server limit of %d/%d",
				g.NumVertices(), g.NumEdges(), maxVertices, maxEdges)
		}
		return g, nil
	case "":
		return nil, fmt.Errorf("missing graph kind (want uniform, powerlaw, suite, or edgelist)")
	default:
		return nil, fmt.Errorf("unknown graph kind %q (want uniform, powerlaw, suite, or edgelist)", s.Kind)
	}
}

// GraphEntry is one registered graph.
type GraphEntry struct {
	ID    string
	Spec  GraphSpec
	Graph *cosparse.Graph

	refs  int   // running/queued jobs holding the graph
	bytes int64 // GraphBytes measured at registration — the exact figure charged to the budget, released by Delete
}

// GraphBytes is the resident footprint admission control charges for a
// materialized graph: the measured bytes of its storage-format arrays
// (12 B/edge for the CSR baseline, typically 1–3 B/edge for DVCSR on
// unweighted graphs) plus per-vertex serving state — the out-degree
// array (4 B) and registry/partition metadata (~12 B). Unlike the old
// uniform EstimateGraphBytes model, this is measured per format, which
// is what lets compression multiply the graphs resident per node.
func GraphBytes(g *cosparse.Graph) int64 {
	return g.ResidentBytes() + int64(g.NumVertices())*16
}

// EstimateGraphBytes is the a-priori model of GraphBytes for a graph in
// the uncompressed CSR baseline, computable from the declared
// dimensions alone: 12 B/edge of COO triples plus 16 B/vertex of
// serving state. Registrations that pin format "csr" reserve this much
// before building.
func EstimateGraphBytes(vertices, edges int) int64 {
	return int64(edges)*12 + int64(vertices)*16
}

// MinGraphBytes is the floor of GraphBytes across storage formats for
// the declared dimensions: no format stores an edge in under one byte
// (the delta-varint lower bound), and the per-vertex serving state is
// format-independent. Registrations that may compress ("auto" or
// "dvcsr") reserve this floor — reserving the uncompressed model
// instead would refuse builds that their measured footprint admits.
func MinGraphBytes(vertices, edges int) int64 {
	return int64(edges) + int64(vertices)*16
}

// reserveBytes is the admission reservation a spec takes before its
// graph is built, from the declared dimensions: the full CSR model
// when the spec pins the uncompressed format, the cross-format floor
// otherwise. The reservation is released in full once the build
// settles and replaced by the measured GraphBytes figure.
func (s GraphSpec) reserveBytes(vertices, edges int) int64 {
	if f, err := cosparse.ParseFormat(s.Format); err == nil && f == cosparse.CSRFormat {
		return EstimateGraphBytes(vertices, edges)
	}
	return MinGraphBytes(vertices, edges)
}

// BudgetError is an admission-control rejection: registering the graph
// would push the estimated resident bytes past the configured budget.
// The HTTP layer maps it to 413 Payload Too Large.
type BudgetError struct {
	EstimateBytes int64
	UsedBytes     int64
	BudgetBytes   int64
}

// Error implements the error interface.
func (e *BudgetError) Error() string {
	return fmt.Sprintf("graph admission refused: estimated %d bytes would exceed the memory budget (%d of %d bytes in use); delete a graph or raise -mem-budget",
		e.EstimateBytes, e.UsedBytes, e.BudgetBytes)
}

// GraphInfo is the JSON view of a registry entry.
type GraphInfo struct {
	ID       string `json:"id"`
	Name     string `json:"name,omitempty"`
	Kind     string `json:"kind"`
	Vertices int    `json:"vertices"`
	Edges    int    `json:"edges"`
	Weighted bool   `json:"weighted"`
	Refs     int    `json:"active_jobs"`
	// Format is the resident storage format ("csr" or "dvcsr") and
	// ResidentBytes the measured footprint charged to the memory budget.
	Format        string `json:"format"`
	ResidentBytes int64  `json:"resident_bytes"`
}

// engineEntry is one prepared engine in the LRU cache. The engine is
// safe for concurrent use, so any number of jobs run on one entry at
// once; the worker pool is what bounds them.
type engineEntry struct {
	key  string
	eng  *cosparse.Engine
	elem *list.Element
}

// Registry holds registered graphs (ref-counted by active jobs) and an
// LRU-bounded cache of prepared engines keyed by graph × geometry. The
// COO+CSC prep inside cosparse.New is the expensive part of serving a
// job, so reusing a prepared engine is the service's main cache.
type Registry struct {
	mu        sync.Mutex
	graphs    map[string]*GraphEntry
	nextID    int
	maxGraphs int

	engines   map[string]*engineEntry
	lru       *list.List // front = most recently used; values are *engineEntry
	maxEngine int

	// budgetBytes caps the resident footprint of all registered graphs
	// (0 = unlimited). usedBytes is the current sum of measured charges
	// plus in-flight build reservations; usedByFormat breaks the
	// measured charges down by storage format for /metrics.
	budgetBytes  int64
	usedBytes    int64
	usedByFormat map[string]int64

	maxVertices, maxEdges int
	inject                *fault.Injector
	m                     *Metrics
}

// NewRegistry builds a registry bounded to maxGraphs registered graphs
// and maxEngines cached engines, with per-graph size ceilings. Every
// bound must be positive; Config.withDefaults supplies the daemon's.
func NewRegistry(maxGraphs, maxEngines, maxVertices, maxEdges int, m *Metrics) *Registry {
	if m == nil {
		m = NewMetrics()
	}
	return &Registry{
		graphs:       make(map[string]*GraphEntry),
		usedByFormat: make(map[string]int64),
		maxGraphs:    maxGraphs,
		engines:      make(map[string]*engineEntry),
		lru:          list.New(),
		maxEngine:    maxEngines,
		maxVertices:  maxVertices,
		maxEdges:     maxEdges,
		m:            m,
	}
}

// SetMemoryBudget caps the estimated resident bytes of registered
// graphs; 0 disables admission control. Call before serving traffic.
func (r *Registry) SetMemoryBudget(bytes int64) {
	r.mu.Lock()
	r.budgetBytes = bytes
	r.mu.Unlock()
}

// SetFaults installs the fault injector (nil = disarmed). Call before
// serving traffic.
func (r *Registry) SetFaults(in *fault.Injector) { r.inject = in }

// declaredSize returns the vertex/edge counts a spec promises before
// any allocation, for kinds that state them up front.
func (s GraphSpec) declaredSize() (vertices, edges int, ok bool) {
	switch strings.ToLower(s.Kind) {
	case "uniform", "powerlaw":
		return s.Vertices, s.Edges, s.Vertices > 0 && s.Edges > 0
	}
	return 0, 0, false
}

// admitLocked checks est bytes against the budget (r.mu held).
func (r *Registry) admitLocked(est int64) error {
	if r.budgetBytes > 0 && r.usedBytes+est > r.budgetBytes {
		r.m.AdmissionRejected.Add(1)
		return &BudgetError{EstimateBytes: est, UsedBytes: r.usedBytes, BudgetBytes: r.budgetBytes}
	}
	return nil
}

// publishBytesLocked pushes the per-format byte breakdown to the
// metrics gauges (r.mu held).
func (r *Registry) publishBytesLocked() {
	r.m.GraphBytesCSR.Store(r.usedByFormat["csr"])
	r.m.GraphBytesDVCSR.Store(r.usedByFormat["dvcsr"])
}

// Register materializes spec and stores it under a fresh id ("g1",
// "g2", ...). Admission accounting is reserve-then-reconcile: specs
// with declared dimensions reserve their format's byte floor before
// building (so an over-budget generate request never allocates, and
// concurrent builds cannot collectively blow the budget), the
// reservation is released in full once the build settles — success or
// failure — and the measured GraphBytes figure is what final admission
// checks and charges. Entry.bytes records that exact charge; Delete
// releases it. Header-claimed and parsed sizes disagreeing (lying
// headers, generator dedup) can therefore never leak or over-release
// budget: every figure added to usedBytes is subtracted once, and only
// the measured figure persists.
func (r *Registry) Register(spec GraphSpec) (*GraphEntry, error) {
	if err := r.inject.Check(fault.GraphBuild); err != nil {
		return nil, err
	}
	var reserved int64
	if v, e, ok := spec.declaredSize(); ok {
		reserved = spec.reserveBytes(v, e)
		r.mu.Lock()
		if err := r.admitLocked(reserved); err != nil {
			r.mu.Unlock()
			return nil, err
		}
		r.usedBytes += reserved
		r.mu.Unlock()
	}
	g, err := spec.Build(r.maxVertices, r.maxEdges)
	r.mu.Lock()
	defer r.mu.Unlock()
	// Release exactly the reservation taken above, on every path —
	// including build failure.
	r.usedBytes -= reserved
	if err != nil {
		return nil, err
	}
	e, err := r.insertLocked(fmt.Sprintf("g%d", r.nextID+1), spec, g)
	if err != nil {
		return nil, err
	}
	r.nextID++
	return e, nil
}

// Restore rebuilds a journal-recovered graph under its original id.
// Specs build deterministically (seeded generators, inline edge
// lists), so the restored graph is identical to the one registered
// before the crash. Called only during startup recovery; nextID is
// bumped past every restored id so fresh registrations never collide.
func (r *Registry) Restore(id string, spec GraphSpec) error {
	g, err := spec.Build(r.maxVertices, r.maxEdges)
	if err != nil {
		return fmt.Errorf("rebuild graph %s: %w", id, err)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.graphs[id]; dup {
		return fmt.Errorf("graph %s already restored", id)
	}
	if _, err := r.insertLocked(id, spec, g); err != nil {
		return fmt.Errorf("restore graph %s: %w", id, err)
	}
	var n int
	if _, err := fmt.Sscanf(id, "g%d", &n); err == nil && n > r.nextID {
		r.nextID = n
	}
	return nil
}

// insertLocked stores g under id once the registry bound and the
// memory budget admit it, charging its measured bytes.
func (r *Registry) insertLocked(id string, spec GraphSpec, g *cosparse.Graph) (*GraphEntry, error) {
	if len(r.graphs) >= r.maxGraphs {
		return nil, fmt.Errorf("registry full: %d graphs registered (limit %d); delete one first", len(r.graphs), r.maxGraphs)
	}
	real := GraphBytes(g)
	if err := r.admitLocked(real); err != nil {
		return nil, err
	}
	e := &GraphEntry{ID: id, Spec: spec, Graph: g, bytes: real}
	r.graphs[id] = e
	r.usedBytes += real
	r.usedByFormat[g.Format()] += real
	r.publishBytesLocked()
	r.m.GraphsRegistered.Store(int64(len(r.graphs)))
	return e, nil
}

// Get returns the entry for id, or nil.
func (r *Registry) Get(id string) *GraphEntry {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.graphs[id]
}

// List returns every registered graph's info, ordered by id number.
func (r *Registry) List() []GraphInfo {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]GraphInfo, 0, len(r.graphs))
	for i := 1; i <= r.nextID; i++ {
		if e, ok := r.graphs[fmt.Sprintf("g%d", i)]; ok {
			out = append(out, r.infoLocked(e))
		}
	}
	return out
}

// Info returns the JSON view of one graph, or ok=false.
func (r *Registry) Info(id string) (GraphInfo, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	e, ok := r.graphs[id]
	if !ok {
		return GraphInfo{}, false
	}
	return r.infoLocked(e), true
}

func (r *Registry) infoLocked(e *GraphEntry) GraphInfo {
	return GraphInfo{
		ID:            e.ID,
		Name:          e.Spec.Name,
		Kind:          strings.ToLower(e.Spec.Kind),
		Vertices:      e.Graph.NumVertices(),
		Edges:         e.Graph.NumEdges(),
		Weighted:      e.Spec.Weighted,
		Refs:          e.refs,
		Format:        e.Graph.Format(),
		ResidentBytes: e.bytes,
	}
}

// Acquire pins the graph for a job (Release must follow). It fails for
// unknown ids.
func (r *Registry) Acquire(id string) (*GraphEntry, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	e, ok := r.graphs[id]
	if !ok {
		return nil, fmt.Errorf("unknown graph %q", id)
	}
	e.refs++
	return e, nil
}

// Release unpins the graph after a job finishes.
func (r *Registry) Release(e *GraphEntry) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if e.refs > 0 {
		e.refs--
	}
}

// Delete unregisters a graph and drops its cached engines. Graphs with
// active jobs are protected.
func (r *Registry) Delete(id string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	e, ok := r.graphs[id]
	if !ok {
		return fmt.Errorf("unknown graph %q", id)
	}
	if e.refs > 0 {
		return fmt.Errorf("graph %q has %d active jobs", id, e.refs)
	}
	delete(r.graphs, id)
	// Release the exact figure recorded at admission.
	r.usedBytes -= e.bytes
	r.usedByFormat[e.Graph.Format()] -= e.bytes
	r.publishBytesLocked()
	r.m.GraphsRegistered.Store(int64(len(r.graphs)))
	prefix := id + "/"
	for k, ee := range r.engines {
		if strings.HasPrefix(k, prefix) {
			r.lru.Remove(ee.elem)
			delete(r.engines, k)
		}
	}
	r.m.EngineCacheSize.Store(int64(len(r.engines)))
	return nil
}

// engineKey identifies one prepared engine. Beyond (graph, system) it
// folds in every run-shaping option the build bakes into the engine —
// execution backend, the graph's storage format, and whether the iteration fault hook was armed — so a config change
// (e.g. arming fault injection, a job asking for the native backend,
// or a graph re-registered under a different format) can never be
// satisfied by a stale cached engine built under different inputs.
// Delete relies on the `id + "/"` prefix.
func engineKey(id string, sys cosparse.System, backend cosparse.Backend, format string, hooked bool) string {
	return fmt.Sprintf("%s/%s/%s/fmt=%s/hook=%t", id, sys.String(), backend.String(), format, hooked)
}

// Engine returns a prepared engine for (graph, system, backend),
// building and caching it on a miss and evicting the
// least-recently-used engine beyond the cache bound. Engine is called
// only from scheduler workers, so the worker pool bounds concurrent
// builds.
func (r *Registry) Engine(ge *GraphEntry, sys cosparse.System, backend cosparse.Backend) (*engineEntry, error) {
	hooked := r.inject.Armed(fault.Iteration)
	key := engineKey(ge.ID, sys, backend, ge.Graph.Format(), hooked)
	r.mu.Lock()
	if ee, ok := r.engines[key]; ok {
		r.lru.MoveToFront(ee.elem)
		r.m.EngineCacheHits.Add(1)
		r.mu.Unlock()
		return ee, nil
	}
	r.mu.Unlock()

	// Build outside the registry lock: prep walks every edge and can
	// dominate small-job latency; concurrent misses for the same key
	// may race to build, and the loser's engine is simply dropped.
	r.m.EngineCacheMisses.Add(1)
	if err := r.inject.Check(fault.EngineBuild); err != nil {
		return nil, err
	}
	opts := []cosparse.Option{cosparse.WithBackend(backend)}
	if hooked {
		opts = append(opts, cosparse.WithIterationHook(func(int) error {
			return r.inject.Check(fault.Iteration)
		}))
	}
	eng, err := cosparse.New(ge.Graph, sys, opts...)
	if err != nil {
		return nil, err
	}

	r.mu.Lock()
	defer r.mu.Unlock()
	if ee, ok := r.engines[key]; ok { // lost the build race
		r.lru.MoveToFront(ee.elem)
		return ee, nil
	}
	ee := &engineEntry{key: key, eng: eng}
	ee.elem = r.lru.PushFront(ee)
	r.engines[key] = ee
	for r.lru.Len() > r.maxEngine {
		oldest := r.lru.Back()
		victim := oldest.Value.(*engineEntry)
		r.lru.Remove(oldest)
		delete(r.engines, victim.key)
		r.m.EngineCacheEvictions.Add(1)
	}
	r.m.EngineCacheSize.Store(int64(len(r.engines)))
	return ee, nil
}
