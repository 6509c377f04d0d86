package main

import (
	"strings"

	"scatteradd/internal/machine"
	"scatteradd/internal/multinode"
	"scatteradd/internal/stats"
)

// Span names: one per layer entry point the benchmark calls, and three
// for the harness itself (a set-up repeat, a pass, one simulation).
const (
	spanGen        = "workload.gen"
	spanApps       = "apps.run"
	spanSoft       = "softscatter.run"
	spanAppsVerify = "apps.verify"
	spanMNNew      = "multinode.new"
	spanMNRun      = "multinode.run"
	spanMNVerify   = "multinode.verify"
	spanSetup      = "setup"
	spanPass       = "pass"
	spanSim        = "sim"
)

// sim is one simulation bound to its generated input. exec runs it through
// the layer's public entry points, recording spans into tr and exact
// counters into c when they are non-nil, and returns the simulated cycles
// and the outcome of the result check.
type sim interface {
	label() string
	exec(tr *tracer, c counts) (cycles uint64, err error)
}

type verifier interface{ Verify(*machine.Machine) error }

// singleSim is one apps run on a fresh machine.
type singleSim struct {
	name string
	soft bool // the variant does its scatter-add in software (softscatter)
	cfg  machine.Config
	in   verifier
	run  func(*machine.Machine) machine.Result
}

func (s *singleSim) label() string { return s.name }

func (s *singleSim) exec(tr *tracer, c counts) (uint64, error) {
	m := machine.New(s.cfg)
	defer m.Close()
	layer := spanApps
	if s.soft {
		layer = spanSoft
	}
	sp := tr.begin(layer)
	res := s.run(m)
	tr.end(sp)
	sp = tr.begin(spanAppsVerify)
	err := s.in.Verify(m)
	tr.end(sp)
	if c != nil {
		c[layer+".cycles"] += float64(res.Cycles)
		c["machine.mem_refs"] += float64(res.MemRefs)
		c["machine.fp_ops"] += float64(res.FPOps)
		c.addSnapshot(m.StatsSnapshot())
	}
	return res.Cycles, err
}

// multiSim is one multi-node trace replay.
type multiSim struct {
	name string
	cfg  multinode.Config
	t    *trace
	mesh bool // a 2D-mesh fabric, for network.host_ns_per_hop
}

func (s *multiSim) label() string { return s.name }

func (s *multiSim) exec(tr *tracer, c counts) (uint64, error) {
	sp := tr.begin(spanMNNew)
	sys := multinode.New(s.cfg, s.t.kind)
	tr.end(sp)
	sp = tr.begin(spanMNRun)
	res := sys.RunTrace(s.t.refs)
	runTime := tr.end(sp)
	sp = tr.begin(spanMNVerify)
	err := s.t.check(sys.ReadResult(s.t.addrs))
	tr.end(sp)
	if c != nil {
		ns := res.NetStats
		c["multinode.node_cycles"] += float64(res.Nodes) * float64(res.Cycles)
		c["multinode.sum_backs"] += float64(res.SumBacks)
		c["multinode.retransmits"] += float64(res.Retransmits)
		c["multinode.dups_dropped"] += float64(res.DupsDropped)
		c["multinode.nodes_degraded"] += float64(res.Degraded)
		c["network.sent"] += float64(ns.Sent)
		c["network.delivered"] += float64(ns.Delivered)
		c["network.switch_hops"] += float64(ns.Hops)
		c["network.root_packets"] += float64(ns.RootPkts)
		c["network.combined_in_switch"] += float64(ns.Combined)
		c["network.backpressure_stall_cycles"] += float64(ns.Stalled)
		c["network.hop_retransmits"] += float64(ns.HopRetrans)
		c["network.fault_drops"] += float64(ns.Dropped)
		if s.mesh {
			c["network.mesh_run_ns"] += float64(runTime.Nanoseconds())
			c["network.mesh_hops"] += float64(ns.Hops)
		}
		c.addSnapshot(sys.StatsSnapshot())
	}
	return res.Cycles, err
}

// counts accumulates exact simulated counters over one pass, keyed by
// per-layer metric name (plus the raw parts of the ratios).
type counts map[string]float64

// snapshotMetrics maps component counters (instance suffix stripped) to
// the per-layer names they feed.
var snapshotMetrics = map[string]string{
	"machine/ag_stall_cycles":  "machine.ag_stall_cycles",
	"saunit/cs_hits":           "saunit.cs_hits",
	"saunit/cs_misses":         "saunit.cs_misses",
	"saunit/fu_busy_cycles":    "saunit.fu_busy_cycles",
	"saunit/stall_full_cycles": "saunit.stall_full_cycles",
	"saunit/fault_fu_retries":  "saunit.fault_fu_retries",
	"saunit/fault_cs_scrubs":   "saunit.fault_cs_scrubs",
	"cache/hits":               "cache.hits",
	"cache/misses":             "cache.misses",
	"cache/stall_cycles":       "cache.stall_cycles",
	"cache/write_backs":        "cache.write_backs",
	"dram/reads":               "dram.reads",
	"dram/writes":              "dram.writes",
	"dram/row_hits":            "dram.row_hits",
	"dram/row_misses":          "dram.row_misses",
	"dram/channel_busy_cycles": "dram.channel_busy_cycles",
	"dram/fault_stall_cycles":  "dram.fault_stall_cycles",
}

// addSnapshot sums a machine's or system's component counters across
// instances ("cache[3]/hits" and "cache[0.1]/hits" both feed cache.hits).
func (c counts) addSnapshot(s stats.Snapshot) {
	for _, e := range s.Entries {
		key := e.Key
		if i := strings.IndexByte(key, '['); i >= 0 {
			if j := strings.IndexByte(key, ']'); j > i {
				key = key[:i] + key[j+1:]
			}
		}
		if name, ok := snapshotMetrics[key]; ok {
			c[name] += float64(e.Val)
		}
	}
}
