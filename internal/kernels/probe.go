package kernels

// Probe observes the memory and compute events a kernel pass issues.
// The OP, merge and frontier pass bodies in this package are written
// once against this interface and instantiated twice: the sim backend
// plugs in *sim.Proc, so every Load/Store/Compute advances the
// trace-driven machine exactly as the pre-split kernels did, and the
// native backend plugs in NopProbe, which erases the events and leaves
// only the functional work. Because both backends run the same pass
// body in the same order, their functional results are bit-identical
// by construction — even for order-sensitive float32 reductions (PR,
// CF). The IP pass runs on the simulator only (the native backend has
// its own loops, nativeIPPELanes), so it takes *sim.Proc directly.
//
// The method set mirrors *sim.Proc verbatim; adding an event kind here
// means teaching both implementations about it.
type Probe interface {
	// Compute charges n ALU operations.
	Compute(n int)
	// Load issues a cacheable word read at addr.
	Load(addr uint64)
	// Store issues a cacheable word write at addr.
	Store(addr uint64)
	// LoadStream issues a prefetch-friendly sequential word read.
	LoadStream(addr uint64)
	// SPMLoad reads a word from the tile/PE scratchpad.
	SPMLoad(offsetWords int)
	// SPMStore writes a word to the tile/PE scratchpad.
	SPMStore(offsetWords int)
}

// NopProbe is the native backend's probe: every event is free. It is a
// zero-size value type so the generic pass bodies specialize to a shape
// where these calls compile to nothing.
type NopProbe struct{}

func (NopProbe) Compute(int)       {}
func (NopProbe) Load(uint64)       {}
func (NopProbe) Store(uint64)      {}
func (NopProbe) LoadStream(uint64) {}
func (NopProbe) SPMLoad(int)       {}
func (NopProbe) SPMStore(int)      {}
