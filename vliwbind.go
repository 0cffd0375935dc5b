// Package vliwbind is a library for binding dataflow-graph operations to
// the clusters of a clustered VLIW datapath, reproducing the algorithm of
// V. S. Lapinskii, M. F. Jacome and G. A. de Veciana, "High-Quality
// Operation Binding for Clustered VLIW Datapaths", DAC 2001.
//
// The package is a facade over the implementation packages; it exposes
// everything a downstream user needs:
//
//   - building dataflow graphs programmatically (NewGraph / Builder) or
//     parsing them from the .dfg text format (ParseGraph);
//   - describing clustered datapaths in the paper's [alus,muls|…]
//     notation (ParseDatapath) with configurable bus count and latencies;
//   - the two-phase binding algorithm: InitialBind (the fast greedy
//     B-INIT driver) and Bind (B-INIT followed by the B-ITER boundary
//     perturbation improvement) — plus the PCC baseline (BindPCC) the
//     paper compares against and an exact small-graph binder (Optimal);
//   - schedule inspection (Gantt, CheckSchedule), cycle-accurate
//     execution on concrete values (Execute, VerifySchedule),
//     register-pressure reporting (RegisterPressure) and end-to-end
//     invariant auditing (AuditResult, AuditSchedule, AuditAllocation,
//     AuditPipelined) — every binder here returns only results that
//     passed AuditResult, checked once at the facade's single exit;
//   - the paper's benchmark kernels (Kernels, KernelByName) and both
//     experiment tables (Table1, Table2, RunExperiment).
//
// Quickstart:
//
//	g := vliwbind.KernelMust("EWF")
//	dp, _ := vliwbind.ParseDatapath("[2,1|1,1]", vliwbind.DatapathConfig{})
//	res, _ := vliwbind.Bind(g, dp, vliwbind.Options{})
//	fmt.Println(res.L(), res.Moves())
//	fmt.Print(vliwbind.Gantt(res.Schedule))
package vliwbind

import (
	"context"
	"io"
	"time"

	"vliwbind/internal/anneal"
	"vliwbind/internal/audit"
	"vliwbind/internal/bind"
	"vliwbind/internal/codegen"
	"vliwbind/internal/dfg"
	"vliwbind/internal/expt"
	"vliwbind/internal/kernels"
	"vliwbind/internal/machine"
	"vliwbind/internal/mincut"
	"vliwbind/internal/modulo"
	"vliwbind/internal/obs"
	"vliwbind/internal/optbind"
	"vliwbind/internal/pcc"
	"vliwbind/internal/regpressure"
	"vliwbind/internal/sched"
	"vliwbind/internal/store"
	"vliwbind/internal/textio"
	"vliwbind/internal/vliwsim"
)

// Dataflow model.
type (
	// Graph is a dataflow graph (original or bound form).
	Graph = dfg.Graph
	// Node is one operation in a graph.
	Node = dfg.Node
	// Value is an operand: a node result or an external input.
	Value = dfg.Value
	// Builder constructs graphs incrementally.
	Builder = dfg.Builder
	// OpType enumerates operation types (OpAdd, OpMul, …).
	OpType = dfg.OpType
	// FUType enumerates functional-unit types (FUALU, FUMul, FUBus).
	FUType = dfg.FUType
	// GraphStats summarizes a graph (N_V, N_CC, L_CP, …).
	GraphStats = dfg.Stats
)

// Operation and FU type constants re-exported from the dataflow model.
const (
	OpAdd    = dfg.OpAdd
	OpSub    = dfg.OpSub
	OpNeg    = dfg.OpNeg
	OpMul    = dfg.OpMul
	OpMulImm = dfg.OpMulImm
	OpMove   = dfg.OpMove

	FUALU = dfg.FUALU
	FUMul = dfg.FUMul
	FUBus = dfg.FUBus
)

// NewGraph starts building a graph with the given name.
func NewGraph(name string) *Builder { return dfg.NewBuilder(name) }

// ParseGraph reads a graph in the .dfg text format.
func ParseGraph(r io.Reader) (*Graph, error) { return textio.Parse(r) }

// ParseGraphString parses a graph from a string.
func ParseGraphString(s string) (*Graph, error) { return textio.ParseString(s) }

// PrintGraph writes a graph in the .dfg text format.
func PrintGraph(w io.Writer, g *Graph) error { return textio.Print(w, g) }

// GraphDot renders a graph in Graphviz DOT form; binding is optional
// (node-ID-indexed clusters) and groups nodes into DOT clusters.
func GraphDot(g *Graph, binding []int) string { return dfg.Dot(g, binding) }

// ValidateGraph checks a graph's structural invariants.
func ValidateGraph(g *Graph) error { return dfg.Validate(g) }

// EvalGraph computes every node's value for concrete inputs (reference
// semantics).
func EvalGraph(g *Graph, inputs []float64) ([]float64, error) { return dfg.Eval(g, inputs) }

// Datapath model.
type (
	// Datapath is a clustered VLIW machine.
	Datapath = machine.Datapath
	// DatapathConfig selects bus count and resource timing; the zero
	// value is the paper's Table 1 machine (2 buses, unit latencies).
	DatapathConfig = machine.Config
	// Cluster gives per-cluster functional-unit counts.
	Cluster = machine.Cluster
	// ResourceSpec is a (latency, data-introduction interval) pair.
	ResourceSpec = machine.ResourceSpec
)

// Interconnect topology names accepted by DatapathConfig.Topology and
// the spec notation's "@" directive.
const (
	TopoBus  = machine.TopoBus
	TopoP2P  = machine.TopoP2P
	TopoRing = machine.TopoRing
	TopoNone = machine.TopoNone
)

// ParseDatapath builds a datapath from the paper's cluster notation,
// e.g. "[2,1|1,1]". The notation also selects a topology:
// "[1,1|1,1|1,1]@ring:1" is a three-cluster ring with one channel per
// link. Datapath.SpecString round-trips the full configuration.
func ParseDatapath(spec string, cfg DatapathConfig) (*Datapath, error) {
	return machine.Parse(spec, cfg)
}

// ParseDatapathSpec builds a datapath from a self-contained spec string
// (cluster notation plus optional "@topology:linkcap" directive) with
// default timing — the inverse of Datapath.SpecString.
func ParseDatapathSpec(spec string) (*Datapath, error) { return machine.ParseSpec(spec) }

// NewDatapath builds a datapath from explicit cluster descriptions.
func NewDatapath(clusters []Cluster, cfg DatapathConfig) (*Datapath, error) {
	return machine.New(clusters, cfg)
}

// Binding algorithms.
type (
	// Options tunes the two binding phases; the zero value reproduces
	// the paper's published configuration (α=β=1, γ=1.1, L_PR sweep,
	// both directions, pairs, plateau escape).
	Options = bind.Options
	// Result is a complete binding solution with its schedule.
	Result = bind.Result
	// PCCOptions tunes the PCC baseline.
	PCCOptions = pcc.Options
	// Quality is a lexicographic quality vector (Q_U / Q_M).
	Quality = bind.Quality
	// CacheStats exposes hit/miss counters of the schedule-evaluation
	// memoization cache; hand one to Options.Stats. The cache (and the
	// evaluation worker pool) activate when Options.Parallelism resolves
	// to more than 1; results are bit-identical at any setting.
	CacheStats = bind.CacheStats
)

// Observability. The obs layer is strictly passive: attaching any sink
// through Options.Observer (or PCCOptions.Observer / AnnealOptions.
// Observer) leaves every binder's result bit-identical; it only records
// what the search did. See DESIGN.md §11 for the event schema.
type (
	// Observer consumes observability events; implementations must be
	// safe for concurrent use (events fire from worker-pool goroutines).
	Observer = obs.Observer
	// TraceEvent is one observability record (the JSONL journal writes
	// one per line).
	TraceEvent = obs.Event
	// TraceJournal is the JSONL event sink.
	TraceJournal = obs.Journal
	// Metrics accumulates per-phase monotonic timers and event counters,
	// with a text Dump and an in-process Snapshot API.
	Metrics = obs.Metrics
	// MetricsSnapshot is a point-in-time copy of a Metrics instance.
	MetricsSnapshot = obs.Snapshot
	// Explain collects B-INIT icost breakdowns and B-ITER move
	// before/after quality vectors and renders them as a report.
	Explain = obs.Explain
)

// NewTraceJournal starts a JSONL journal writing to w; pass it as an
// Observer and call Flush when the run ends.
func NewTraceJournal(w io.Writer) *TraceJournal { return obs.NewJournal(w) }

// NewMetrics returns an empty metrics accumulator usable both directly
// and as an Observer.
func NewMetrics() *Metrics { return obs.NewMetrics() }

// NewExplain returns an empty explain-mode collector.
func NewExplain() *Explain { return obs.NewExplain() }

// MultiObserver fans events out to several sinks, dropping nils; it
// returns nil when no sink remains.
func MultiObserver(sinks ...Observer) Observer { return obs.Multi(sinks...) }

// Bind runs the full two-phase algorithm (B-INIT driver + B-ITER).
// With Options.Store attached, an isomorphic request seen before is
// served from the store after passing a fresh end-to-end audit, and a
// completed search publishes its audited result for the next request.
func Bind(g *Graph, dp *Datapath, opts Options) (*Result, error) {
	return BindContext(context.Background(), g, dp, opts)
}

// InitialBind runs only the phase-one driver (B-INIT), the paper's fast
// variant for compilation-time-critical use. Options.Store works as in
// Bind; B-INIT and B-ITER results never answer each other's requests.
func InitialBind(g *Graph, dp *Datapath, opts Options) (*Result, error) {
	return InitialBindContext(context.Background(), g, dp, opts)
}

// ImproveBind runs the B-ITER improvement phase on an existing solution.
func ImproveBind(res *Result, opts Options) (*Result, error) {
	return ImproveBindContext(context.Background(), res, opts)
}

// EvaluateBinding derives the bound graph for an explicit cluster
// assignment and list-schedules it.
func EvaluateBinding(g *Graph, dp *Datapath, binding []int) (*Result, error) {
	return bind.Evaluate(g, dp, binding)
}

// BindPCC runs the Partial Component Clustering baseline (Desoli,
// HPL-98-13) the paper compares against.
func BindPCC(g *Graph, dp *Datapath, opts PCCOptions) (*Result, error) {
	return BindPCCContext(context.Background(), g, dp, opts)
}

// Optimal exhaustively finds the best binding of a small graph
// (branch-and-bound; guarded by maxOps, default 16).
func Optimal(g *Graph, dp *Datapath, maxOps int) (*Result, error) {
	return OptimalContext(context.Background(), g, dp, maxOps)
}

// Certification and anytime (context-aware) binding.
//
// Every binder result leaves the facade through certify exactly once —
// complete, degraded or served from the store — so it carries a fresh
// end-to-end AuditResult certificate; a result that fails the audit is
// an error, never a binding. Each plain binder is its context twin
// under context.Background, sharing that one exit.
//
// The context variants make every binder an anytime algorithm: a
// cancellation or deadline that lands after the binder has a complete
// candidate returns the best solution found so far, tagged
// Result.Degraded with the cause in Result.Budget, instead of an error;
// a cancellation before the first complete candidate returns an error
// wrapping context.Cause. Uncancelled runs are bit-identical to the
// plain variants.

// auditResult is the audit certify applies; tests substitute a fake.
var auditResult = audit.Audit

// certify is the facade's single certification exit: it passes a
// binder's error through and releases a result only once it passes the
// audit.
func certify(res *Result, err error) (*Result, error) {
	if err == nil {
		err = auditResult(res)
	}
	if err != nil {
		return nil, err
	}
	return res, nil
}

// BindContext is Bind as an anytime algorithm: once the B-INIT driver
// sweep completes, its best candidate is the floor, and interrupting
// B-ITER at any point returns an audited binding no worse than plain
// B-INIT's (L, moves) on the same input.
func BindContext(ctx context.Context, g *Graph, dp *Datapath, opts Options) (*Result, error) {
	return bindThroughStore(g, dp, opts, store.KindIter, func() (*Result, error) {
		return certify(bind.BindContext(ctx, g, dp, opts))
	})
}

// InitialBindContext is InitialBind under a context. The driver sweep
// mints the anytime floor, so it is all-or-nothing: cancellation before
// it completes returns an error wrapping context.Cause.
func InitialBindContext(ctx context.Context, g *Graph, dp *Datapath, opts Options) (*Result, error) {
	return bindThroughStore(g, dp, opts, store.KindInit, func() (*Result, error) {
		return certify(bind.InitialContext(ctx, g, dp, opts))
	})
}

// ImproveBindContext is ImproveBind as an anytime algorithm: the input
// result is the floor and the returned binding is never worse than it.
func ImproveBindContext(ctx context.Context, res *Result, opts Options) (*Result, error) {
	return certify(bind.ImproveContext(ctx, res, opts))
}

// BindPCCContext is BindPCC under a context; cancellation after the
// first decomposition has been evaluated degrades to the best-so-far.
func BindPCCContext(ctx context.Context, g *Graph, dp *Datapath, opts PCCOptions) (*Result, error) {
	return certify(pcc.BindContext(ctx, g, dp, opts))
}

// BindAnnealContext is BindAnneal under a context; cancellation after
// the initial partitioning degrades to the best binding observed.
func BindAnnealContext(ctx context.Context, g *Graph, dp *Datapath, opts AnnealOptions) (*Result, error) {
	return certify(anneal.BindContext(ctx, g, dp, opts))
}

// BindMinCutContext is BindMinCut under a context; cancellation after
// the initial partition degrades to the current partition.
func BindMinCutContext(ctx context.Context, g *Graph, dp *Datapath, opts MinCutOptions) (*Result, error) {
	return certify(mincut.BindContext(ctx, g, dp, opts))
}

// OptimalContext is Optimal under a context: a cancelled search holding
// an incumbent returns it Degraded (valid, just not proven optimal).
func OptimalContext(ctx context.Context, g *Graph, dp *Datapath, maxOps int) (*Result, error) {
	return certify(optbind.OptimalContext(ctx, g, dp, maxOps))
}

// LatencyLowerBound returns a latency no binding of g on dp can beat.
func LatencyLowerBound(g *Graph, dp *Datapath) int { return optbind.LowerBound(g, dp) }

// Schedules and execution.
type (
	// Schedule is a resource-legal cycle assignment of a bound graph.
	Schedule = sched.Schedule
	// Trace is the issue log of a cycle-accurate execution.
	Trace = vliwsim.Trace
	// PressureReport is a per-cluster register-pressure summary.
	PressureReport = regpressure.Report
)

// ListSchedule runs the cluster-aware list scheduler directly.
func ListSchedule(g *Graph, dp *Datapath, binding []int) (*Schedule, error) {
	return sched.List(g, dp, binding)
}

// CheckSchedule verifies dependence and resource legality.
func CheckSchedule(s *Schedule) error { return sched.Check(s) }

// Gantt renders a schedule as a per-resource text chart.
func Gantt(s *Schedule) string { return sched.Gantt(s) }

// Execute runs a schedule cycle-accurately on concrete inputs.
func Execute(s *Schedule, inputs []float64) ([]float64, *Trace, error) {
	return vliwsim.Execute(s, inputs)
}

// VerifySchedule executes a schedule and checks its outputs against the
// reference dataflow evaluation.
func VerifySchedule(s *Schedule, inputs []float64) error { return vliwsim.Verify(s, inputs) }

// RegisterPressure reports per-cluster live-value demand.
func RegisterPressure(s *Schedule) *PressureReport { return regpressure.Analyze(s) }

// AuditResult cross-checks a binding result end to end: binding
// validity, canonical transfer insertion, dependence and per-unit
// resource legality, cycle-accurate simulation against the reference
// evaluation, and clobber-free register allocatability. It is
// deliberately redundant with the binders' own invariants — the point
// is an independent certificate.
func AuditResult(res *Result) error { return audit.Audit(res) }

// AuditSchedule certifies a schedule alone: legality (CheckSchedule),
// a tight makespan claim, and bitwise simulation agreement with the
// reference dataflow evaluation on probe inputs.
func AuditSchedule(s *Schedule) error { return audit.AuditSchedule(s) }

// AuditAllocation certifies a register allocation: every value maps to
// a real register of its cluster and a full replay finds no clobber of
// a live value.
func AuditAllocation(s *Schedule, a *RegAlloc) error { return audit.AuditAlloc(s, a) }

// AuditPipelined certifies a modulo schedule: move slots reference real
// producers on real cycles and clusters, and the expansion over
// concrete iterations (ModuloCheck) is dependence- and resource-legal.
func AuditPipelined(ps *PipelinedSchedule, iterations int) error {
	return audit.AuditPipelined(ps, iterations)
}

// Benchmarks and experiments.
type (
	// Kernel is a named benchmark DFG generator with its paper stats.
	Kernel = kernels.Kernel
	// RandomGraphConfig parameterizes the synthetic DFG generator.
	RandomGraphConfig = kernels.RandomConfig
	// ExperimentRow is one row of the paper's Table 1 or Table 2.
	ExperimentRow = expt.Row
	// Measurement is the measured outcome of an experiment row.
	Measurement = expt.Measurement
	// LM is a (latency, moves) result pair, the unit the paper reports.
	LM = expt.LM
)

// Kernels returns the paper's benchmark suite (Table 1 order).
func Kernels() []Kernel { return kernels.All() }

// KernelByName looks a benchmark up by its table name.
func KernelByName(name string) (Kernel, error) { return kernels.ByName(name) }

// KernelMust builds a benchmark graph by name, panicking on unknown
// names; convenient in examples and tests.
func KernelMust(name string) *Graph {
	k, err := kernels.ByName(name)
	if err != nil {
		panic(err)
	}
	return k.Build()
}

// RandomGraph generates a deterministic pseudo-random DAG.
func RandomGraph(cfg RandomGraphConfig) *Graph { return kernels.Random(cfg) }

// Table1 returns the paper's Table 1 experiment rows with published
// reference values.
func Table1() []ExperimentRow { return expt.Table1() }

// Table2 returns the paper's Table 2 rows (FFT bus/latency sweep).
func Table2() []ExperimentRow { return expt.Table2() }

// RunExperiment measures PCC, B-INIT and B-ITER on one row.
func RunExperiment(r ExperimentRow) (Measurement, error) { return expt.Run(r) }

// RunExperimentWith is RunExperiment with explicit binding options —
// most usefully Options.Parallelism. Measured (L, M) values are
// identical at any parallelism; only the times change.
func RunExperimentWith(r ExperimentRow, opts Options) (Measurement, error) {
	return expt.RunWith(r, opts)
}

// RunExperimentBudgeted measures a row with all three algorithms under
// one shared per-row time budget: an algorithm whose budget expires
// contributes its audited best-so-far (L, M) with the matching
// Measurement Degraded flag set (zero LM when it never certified a
// candidate). budget <= 0 applies no deadline beyond ctx's own.
func RunExperimentBudgeted(ctx context.Context, r ExperimentRow, opts Options, budget time.Duration) (Measurement, error) {
	return expt.RunBudgeted(ctx, r, opts, budget)
}

// FormatMeasurements renders measurements in the paper's table layout.
func FormatMeasurements(ms []Measurement) string { return expt.Format(ms) }

// FormatMeasurementsMarkdown renders measurements as the Markdown table
// used in EXPERIMENTS.md.
func FormatMeasurementsMarkdown(ms []Measurement) string { return expt.FormatMarkdown(ms) }

// BaselineMeasurement is a five-binder comparison outcome on one row.
type BaselineMeasurement = expt.BaselineMeasurement

// BaselineRows returns the homogeneous-machine rows used for the
// five-binder comparison (B-ITER, PCC, annealing, min-cut).
func BaselineRows() []ExperimentRow { return expt.BaselineRows() }

// RunBaselineExperiment measures all implemented binders on one row.
func RunBaselineExperiment(r ExperimentRow) (BaselineMeasurement, error) {
	return expt.RunBaselines(r)
}

// FormatBaselines renders the five-binder comparison table.
func FormatBaselines(ms []BaselineMeasurement) string { return expt.FormatBaselines(ms) }

// TopologyMeasurement compares B-ITER across interconnect topologies
// (shared bus, ring, point-to-point) on one kernel.
type TopologyMeasurement = expt.TopologyMeasurement

// TopologyKernels lists the benchmarks of the topology comparison.
func TopologyKernels() []string { return expt.TopologyKernels() }

// RunTopologyComparison measures one kernel across the three topologies.
func RunTopologyComparison(kernel string) (TopologyMeasurement, error) {
	return expt.RunTopologyComparison(kernel)
}

// FormatTopologies renders the topology comparison table.
func FormatTopologies(ms []TopologyMeasurement) string { return expt.FormatTopologies(ms) }

// Additional baselines and extensions.
type (
	// AnnealOptions tunes the simulated-annealing baseline (Leupers,
	// PACT 2000).
	AnnealOptions = anneal.Options
	// MinCutOptions tunes the network-partitioning baseline (Capitanio
	// et al., MICRO-25).
	MinCutOptions = mincut.Options
	// RegAlloc is a per-cluster register assignment for a schedule.
	RegAlloc = codegen.Alloc
	// Loop is a loop body plus loop-carried dependences for modulo
	// scheduling.
	Loop = modulo.Loop
	// CarriedDep is a loop-carried dependence with iteration distance.
	CarriedDep = modulo.CarriedDep
	// PipelinedSchedule is a modulo (software-pipelined) schedule.
	PipelinedSchedule = modulo.PipelinedSchedule
	// ModuloOptions tunes the modulo scheduler.
	ModuloOptions = modulo.Options
)

// BindAnneal runs the simulated-annealing binding baseline.
func BindAnneal(g *Graph, dp *Datapath, opts AnnealOptions) (*Result, error) {
	return BindAnnealContext(context.Background(), g, dp, opts)
}

// BindMinCut runs the balanced min-cut partitioning baseline; it requires
// homogeneous clusters, as the original method does.
func BindMinCut(g *Graph, dp *Datapath, opts MinCutOptions) (*Result, error) {
	return BindMinCutContext(context.Background(), g, dp, opts)
}

// CutSize counts the inter-cluster dependence edges of a binding.
func CutSize(g *Graph, binding []int) int { return mincut.CutSize(g, binding) }

// AllocateRegisters maps every value copy in a schedule to a physical
// register of its cluster by linear scan. maxRegs bounds each register
// file (0 = unbounded); an error reports the demand when it doesn't fit.
func AllocateRegisters(s *Schedule, maxRegs int) (*RegAlloc, error) {
	return codegen.Allocate(s, maxRegs)
}

// CheckRegisters verifies an allocation never clobbers a live value.
func CheckRegisters(s *Schedule, a *RegAlloc) error { return codegen.CheckAlloc(s, a) }

// EmitAssembly renders a schedule plus register allocation as symbolic
// clustered-VLIW assembly (one instruction word per cycle).
func EmitAssembly(s *Schedule, a *RegAlloc) string { return codegen.Emit(s, a) }

// ModuloMII returns the initiation-interval lower bound
// max(ResMII, RecMII) for a loop on a datapath.
func ModuloMII(l *Loop, dp *Datapath) int { return modulo.MII(l, dp) }

// ModuloPipeline software-pipelines a loop onto the clustered datapath.
func ModuloPipeline(l *Loop, dp *Datapath, opts ModuloOptions) (*PipelinedSchedule, error) {
	return ModuloPipelineContext(context.Background(), l, dp, opts)
}

// ModuloPipelineContext is ModuloPipeline under a context. A modulo
// schedule has no useful partial form, so cancellation always returns
// an error wrapping context.Cause. Like every binder result, the
// schedule is released only after it passes AuditPipelined.
func ModuloPipelineContext(ctx context.Context, l *Loop, dp *Datapath, opts ModuloOptions) (*PipelinedSchedule, error) {
	ps, err := modulo.PipelineContext(ctx, l, dp, opts)
	if err == nil {
		err = audit.AuditPipelined(ps, 0)
	}
	if err != nil {
		return nil, err
	}
	return ps, nil
}

// ModuloCheck expands a pipelined schedule over concrete iterations and
// verifies every dependence and resource constraint.
func ModuloCheck(ps *PipelinedSchedule, iterations int) error {
	return modulo.Check(ps, iterations)
}

// DatapathPresets lists the named machine presets (TI C6201, Lx, the
// paper's Table 1/Table 2 machines).
func DatapathPresets() []string { return machine.Presets() }

// NewDatapathPreset builds a named preset machine.
func NewDatapathPreset(name string) (*Datapath, error) { return machine.NewPreset(name) }

// SpillResult is a register-file-feasible solution produced by
// BindWithSpills, with the inserted spill count and the pre-spill latency
// for cost accounting.
type SpillResult = codegen.SpillResult

// BindWithSpills takes a binding and makes it fit register files of
// maxRegs entries per cluster by inserting spill stores and late reloads
// through each cluster's local memory port, rescheduling after each spill
// — the "carefully selected" spills Section 2 of the paper defers.
func BindWithSpills(g *Graph, dp *Datapath, binding []int, maxRegs int) (*SpillResult, error) {
	return codegen.SpillRebind(g, dp, binding, maxRegs)
}
