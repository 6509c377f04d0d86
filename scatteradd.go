// Package scatteradd is a cycle-level reproduction of "Scatter-Add in Data
// Parallel Architectures" (Ahn, Erez, Dally — HPCA 2005): a simulated
// Merrimac-like stream processor whose memory system performs atomic
// data-parallel read-modify-write operations in hardware scatter-add units,
// together with the paper's software alternatives (sort + segmented scan,
// privatization, coloring), its three evaluation applications (histogram,
// sparse matrix-vector multiply, molecular dynamics), a multi-node model
// with cache combining and a fault-injected resilience mode, and runners
// that regenerate every table and figure of the paper's evaluation.
//
// # Quick start
//
//	m := scatteradd.New()
//	data := []int{3, 1, 3, 7, 3, 1}
//	bins, res := scatteradd.HistogramI64(m, data, 8)
//	fmt.Println(bins, res.Cycles)
//
// New accepts functional options: WithConfig for a non-default machine,
// WithFaults for deterministic fault injection, WithTracer to observe every
// issued memory request, WithSampler for periodic callbacks on the machine
// clock, and WithLegacyStepping to force per-cycle simulation.
//
// The simulator is functional as well as timed: scatter-add results are
// computed by the simulated hardware and can be read back from the
// machine's memory, so performance experiments double as correctness
// checks.
//
// Lower-level building blocks live in the internal packages and are
// re-exported here: machine configuration and stream operations
// (LoadStream, Gather, ScatterAdd, Kernel, ... — see api_streams.go), the
// software scatter-add methods (SortScan, Privatize, Colored), the
// evaluation applications (NewHistogram, NewSpMV, NewMolDyn), the
// multi-node system (NewMultiNode), and the experiment runners (Figure,
// Table1 — see api_experiments.go).
package scatteradd

import (
	"fmt"

	"scatteradd/internal/apps"
	"scatteradd/internal/fault"
	"scatteradd/internal/machine"
	"scatteradd/internal/mem"
	"scatteradd/internal/multinode"
	"scatteradd/internal/saunit"
	"scatteradd/internal/softscatter"
)

// Core memory-model types.
type (
	// Addr is a word-granular memory address.
	Addr = mem.Addr
	// Word is the raw 64-bit contents of one memory word.
	Word = mem.Word
	// Kind identifies a memory operation (Read, Write, AddF64, ...).
	Kind = mem.Kind
	// Request is one word-granular memory request as issued by the address
	// generators (observable via WithTracer).
	Request = mem.Request
)

// Memory operation kinds. AddF64 and AddI64 are the paper's scatter-add;
// Min/Max/Mul are the §3.3 extensions; FetchAdd* implement the
// data-parallel Fetch&Op with a return path.
const (
	Read        = mem.Read
	Write       = mem.Write
	AddF64      = mem.AddF64
	AddI64      = mem.AddI64
	MinF64      = mem.MinF64
	MaxF64      = mem.MaxF64
	MulF64      = mem.MulF64
	MinI64      = mem.MinI64
	MaxI64      = mem.MaxI64
	FetchAddF64 = mem.FetchAddF64
	FetchAddI64 = mem.FetchAddI64
)

// Word conversions.
var (
	// F64 converts a float64 to its Word representation.
	F64 = mem.F64
	// AsF64 converts a Word to float64.
	AsF64 = mem.AsF64
	// I64 converts an int64 to its Word representation.
	I64 = mem.I64
	// AsI64 converts a Word to int64.
	AsI64 = mem.AsI64
)

// Machine model.
type (
	// Config describes one simulated node (Table 1 defaults).
	Config = machine.Config
	// UniformMemConfig selects the cache-less sensitivity-study memory.
	UniformMemConfig = machine.UniformMemConfig
	// Machine is one simulated stream-processor node.
	Machine = machine.Machine
	// Op is one stream operation (kernel or memory transfer).
	Op = machine.Op
	// Result carries cycles, FP operations, and memory references.
	Result = machine.Result
	// Response is a completed read or fetch-and-op.
	Response = mem.Response
)

// FaultConfig configures deterministic, seed-driven fault injection:
// network packet drops and duplications, DRAM channel stalls and outage
// windows, combining-store parity corruption, and scatter-add FU transient
// errors, plus the recovery knobs (retry timeout/backoff, degradation
// threshold). The zero value injects nothing and costs nothing.
type FaultConfig = fault.Config

// DefaultChaosFaults returns a moderate every-injector-active fault
// configuration, the default chaos rate of the resilience test suite.
func DefaultChaosFaults() FaultConfig { return fault.DefaultChaos() }

// DefaultConfig returns the paper's Table 1 machine configuration.
func DefaultConfig() Config { return machine.DefaultConfig() }

// Option customizes a Machine built with New.
type Option func(*builder)

// builder accumulates the options of one New call.
type builder struct {
	cfg      Config
	tracer   func(cycle uint64, req Request)
	interval uint64
	sampler  func(now uint64)
}

// WithConfig replaces the default Table 1 configuration wholesale. Combine
// with later options freely: WithFaults and WithLegacyStepping overwrite
// only their own fields of the provided config.
func WithConfig(cfg Config) Option {
	return func(b *builder) { b.cfg = cfg }
}

// WithFaults enables deterministic fault injection across the machine's
// memory system (DRAM stalls and outage windows, combining-store parity
// scrubs, FU transient-error retries). Faults cost cycles; recovery keeps
// every reduction bit-exact.
func WithFaults(fc FaultConfig) Option {
	return func(b *builder) { b.cfg.Faults = fc }
}

// WithTracer installs a hook observing every memory request the address
// generators issue.
func WithTracer(fn func(cycle uint64, req Request)) Option {
	return func(b *builder) { b.tracer = fn }
}

// WithSampler installs a periodic callback invoked every interval cycles of
// machine time (including across fast-forwarded stretches) — the raw form
// of Machine.StartTimeline, for custom occupancy or progress sampling.
func WithSampler(interval uint64, fn func(now uint64)) Option {
	return func(b *builder) { b.interval, b.sampler = interval, fn }
}

// WithLegacyStepping forces per-cycle engine stepping, disabling the
// quiescence fast-forward path. Results are cycle-exact either way; the
// option exists for differential testing and performance attribution.
func WithLegacyStepping() Option {
	return func(b *builder) { b.cfg.LegacyStepping = true }
}

// New constructs a simulated node. With no options it is the paper's
// Table 1 machine; options customize configuration, fault injection, and
// instrumentation:
//
//	m := scatteradd.New(
//		scatteradd.WithFaults(scatteradd.DefaultChaosFaults()),
//		scatteradd.WithTracer(func(cycle uint64, req scatteradd.Request) { ... }),
//	)
func New(opts ...Option) *Machine {
	b := builder{cfg: DefaultConfig()}
	for _, opt := range opts {
		opt(&b)
	}
	m := machine.New(b.cfg)
	if b.tracer != nil {
		m.SetTracer(b.tracer)
	}
	if b.sampler != nil {
		m.SetSampler(b.interval, b.sampler)
	}
	return m
}

// Software scatter-add methods (§2.1).
var (
	// SortScan performs scatter-add by batched bitonic sort + segmented
	// scan (batch 0 selects the paper's 256).
	SortScan = softscatter.SortScan
	// Privatize performs scatter-add by privatization (O(m*n)).
	Privatize = softscatter.Privatize
	// Colored performs scatter-add using a precomputed collision-free
	// coloring.
	Colored = softscatter.Colored
)

// Evaluation applications (§4.1).
type (
	// Histogram is the binning workload of Figures 6-8.
	Histogram = apps.Histogram
	// SpMV is the sparse matrix-vector workload of Figure 9.
	SpMV = apps.SpMV
	// MolDyn is the molecular-dynamics workload of Figure 10.
	MolDyn = apps.MolDyn
)

var (
	// NewHistogram builds n uniform indices over rangeSize bins.
	NewHistogram = apps.NewHistogram
	// NewSpMV builds the synthetic finite-element SpMV workload.
	NewSpMV = apps.NewSpMV
	// NewMolDyn builds the water-box molecular-dynamics workload.
	NewMolDyn = apps.NewMolDyn
)

// Multi-node system (§3.2, §4.5).
type (
	// MultiNodeConfig describes the multi-node system.
	MultiNodeConfig = multinode.Config
	// MultiNode is the crossbar-connected multi-node machine.
	MultiNode = multinode.System
	// MultiNodeRef is one scatter-add reference of a trace.
	MultiNodeRef = multinode.Ref
	// MultiNodeResult reports a trace replay (including resilience
	// outcomes: retransmissions, deduplicated replays, degraded nodes).
	MultiNodeResult = multinode.Result
)

// Interconnect topology: the switch graph the nodes sit on and where
// scatter-add combining happens (in the sending node's cache, inside every
// switch of a multi-hop fabric, or nowhere).
type (
	// Topology selects the multi-node interconnect and combining placement.
	Topology = multinode.Topology
	// TopologyKind names an interconnect arrangement (flat, hypercube,
	// tree, mesh).
	TopologyKind = multinode.TopologyKind
)

// Topology kinds.
const (
	TopoDefault   = multinode.TopoDefault
	TopoFlat      = multinode.TopoFlat
	TopoHypercube = multinode.TopoHypercube
	TopoTree      = multinode.TopoTree
	TopoMesh      = multinode.TopoMesh
)

// Topology constructors.
var (
	// FlatTopology is the paper's single full crossbar (§4.5).
	FlatTopology = multinode.Flat
	// FlatCombiningTopology is the flat crossbar with the paper's
	// cache-combining + sum-back mode.
	FlatCombiningTopology = multinode.FlatCombining
	// HypercubeTopology routes sum-backs along logical hypercube
	// dimensions, merging partial lines at every hop (§5 future work).
	HypercubeTopology = multinode.Hypercube
	// TreeTopology is a multi-hop k-ary tree of small crossbar switches with
	// the given fan-in (0 = 4), optionally combining same-address
	// scatter-adds inside every switch.
	TreeTopology = multinode.Tree
	// MeshTopology is a multi-hop 2D mesh of per-node switches with XY
	// routing, optionally combining inside every switch.
	MeshTopology = multinode.Mesh
	// ParseTopology maps a CLI/server name (flat, flat+comb, hypercube,
	// tree, tree+comb, mesh, mesh+comb) onto a Topology.
	ParseTopology = multinode.ParseTopology
)

// DefaultMultiNodeConfig returns nodes Table 1 nodes over a crossbar with
// the given per-port bandwidth in words/cycle (1 = the paper's low
// configuration, 8 = high), each owning span words of the address space.
// Set Faults on the returned config to inject network, DRAM, and
// combining-store faults; the link layer recovers them with acknowledged,
// sequence-numbered retransmission and bit-exact idempotent replay. Set
// Topology to replace the flat crossbar with a multi-hop fabric:
//
//	cfg := scatteradd.DefaultMultiNodeConfig(64, 1, span)
//	cfg.Topology = scatteradd.TreeTopology(4, true)
//	s := scatteradd.NewMultiNode(cfg, scatteradd.AddI64)
func DefaultMultiNodeConfig(nodes, wordsPerCyc int, span Addr) MultiNodeConfig {
	return multinode.DefaultConfig(nodes, wordsPerCyc, span)
}

// NewMultiNode constructs the multi-node system for traces of the given
// combine kind.
func NewMultiNode(cfg MultiNodeConfig, kind Kind) *MultiNode {
	return multinode.New(cfg, kind)
}

// AreaEstimate returns the scatter-add hardware area in mm² (90 nm) and the
// fraction of a 10x10 mm die, per the paper's §3.2 estimate.
var AreaEstimate = saunit.AreaEstimate

// HistogramI64 is the package's quick-start helper: it bins data (values in
// [0, bins)) with the hardware scatter-add on m and returns the bins along
// with the run metrics.
func HistogramI64(m *Machine, data []int, bins int) ([]int64, Result) {
	const binBase = Addr(0)
	addrs := make([]Addr, len(data))
	for i, x := range data {
		if x < 0 || x >= bins {
			panic(fmt.Sprintf("scatteradd: datum %d outside [0,%d)", x, bins))
		}
		addrs[i] = binBase + Addr(x)
	}
	res := m.RunOp(ScatterAdd("histogram", AddI64, addrs, []Word{I64(1)}))
	m.FlushCaches()
	return m.Store().ReadI64Slice(binBase, bins), res
}

// ScanConfig returns the Table 1 machine with the scatter-add units in
// ordered-chain mode, turning Fetch* operations into the hardware scan
// (parallel prefix) engine the paper proposes as future work (§5).
func ScanConfig() Config {
	cfg := DefaultConfig()
	cfg.SA.OrderedChains = true
	return cfg
}

// PrefixSumI64 computes the exclusive prefix sums of vals on the hardware
// scan engine (one ordered fetch-add per element), returning the prefixes,
// the total, and the run metrics.
func PrefixSumI64(m *Machine, vals []int64) (prefix []int64, total int64, res Result) {
	if !m.Config().SA.OrderedChains {
		panic("scatteradd: PrefixSumI64 requires a machine built with ScanConfig (ordered chains)")
	}
	const counter = Addr(0)
	addrs := make([]Addr, len(vals))
	words := make([]Word, len(vals))
	for i, v := range vals {
		addrs[i] = counter
		words[i] = I64(v)
	}
	prefix = make([]int64, len(vals))
	op := ScatterAdd("prefix-sum", FetchAddI64, addrs, words)
	op.OnResp = func(r Response) { prefix[r.ID] = AsI64(r.Val) }
	res = m.RunOp(op)
	m.FlushCaches()
	return prefix, m.Store().LoadI64(counter), res
}

// ScatterAddF64 is a convenience wrapper: it atomically adds vals[i] into
// target[idx[i]] on m and returns the run metrics. The result can be read
// back with m.Store() after m.FlushCaches().
func ScatterAddF64(m *Machine, target Addr, idx []int, vals []float64) Result {
	if len(idx) != len(vals) {
		panic(fmt.Sprintf("scatteradd: %d indices, %d values", len(idx), len(vals)))
	}
	addrs := make([]Addr, len(idx))
	words := make([]Word, len(vals))
	for i := range idx {
		addrs[i] = target + Addr(idx[i])
		words[i] = F64(vals[i])
	}
	return m.RunOp(ScatterAdd("scatter-add", AddF64, addrs, words))
}
