package audit_test

// Mutation suite for the auditor. The facade certifies every result it
// returns with Audit and nothing else, so the audit's strength is the
// system's: each mutation below breaks one invariant of a clustered
// schedule (Section 2 of the paper — binding, transfers, dependences,
// concrete resources, registers), and Audit/AuditAlloc must reject
// every single mutant built from audited results of every table kernel
// on a shared-bus, a ring (with two-hop routes) and a point-to-point
// machine.

import (
	"fmt"
	"testing"

	"vliwbind/internal/audit"
	"vliwbind/internal/bind"
	"vliwbind/internal/codegen"
	"vliwbind/internal/dfg"
	"vliwbind/internal/kernels"
	"vliwbind/internal/machine"
	"vliwbind/internal/sched"
)

// mutationMachines cover the three interconnects. Every cluster has an
// ALU and a multiplier, so a round-robin binding is always legal, and
// on the four-cluster ring it routes opposite clusters over two hops.
var mutationMachines = []string{
	"[2,1|1,1|1,1]",
	"[1,1|1,1|1,1|1,1]@ring:1",
	"[2,1|1,1|1,1]@p2p",
}

// mutantsPerCase caps the mutants one mutation draws from one result;
// they are spread evenly over its candidate sites.
const mutantsPerCase = 3

// mutant is one corrupted artifact: a result for Audit or, when alloc
// is set, an allocation of the result's schedule for AuditAlloc.
type mutant struct {
	site  string
	res   *bind.Result
	alloc *codegen.Alloc
}

type mutation struct {
	name string
	// build returns the mutants of one audited result; none means the
	// mutation cannot be built on it.
	build func(res *bind.Result) []mutant
}

var mutations = []mutation{
	{"flip a node's cluster", flipCluster},
	{"drop a move", func(res *bind.Result) []mutant { return rebuildAtMoves(res, true) }},
	{"duplicate a move", func(res *bind.Result) []mutant { return rebuildAtMoves(res, false) }},
	{"start before the last operand arrives", startEarly},
	{"swap the hops of a route", swapHops},
	{"double-book a unit", doubleBook},
	{"clobber a live register", clobberRegister},
}

func TestAuditRejectsEveryMutant(t *testing.T) {
	type tally struct{ cases, skipped, mutants, rejected int }
	counts := make([]tally, len(mutations))
	for _, k := range kernels.All() {
		g := k.Build()
		for _, spec := range mutationMachines {
			dp, err := machine.ParseSpec(spec)
			if err != nil {
				t.Fatal(err)
			}
			for _, res := range auditedResults(t, g, dp) {
				name := fmt.Sprintf("%s on %s (L=%d, %d moves)", k.Name, spec, res.L(), res.Moves())
				for i, m := range mutations {
					ms := m.build(res)
					counts[i].cases++
					if len(ms) == 0 {
						counts[i].skipped++
						continue
					}
					for _, mu := range ms {
						counts[i].mutants++
						var err error
						if mu.alloc != nil {
							err = audit.AuditAlloc(mu.res.Schedule, mu.alloc)
						} else {
							err = audit.Audit(mu.res)
						}
						if err == nil {
							t.Errorf("%s: %s at %s: audit accepted the mutant", name, m.name, mu.site)
							continue
						}
						counts[i].rejected++
					}
				}
			}
		}
	}
	for i, m := range mutations {
		c := counts[i]
		t.Logf("%-38s %3d mutants, %3d rejected; built on %2d of %d results, skipped on %d",
			m.name, c.mutants, c.rejected, c.cases-c.skipped, c.cases, c.skipped)
		if c.mutants == 0 {
			t.Errorf("%s: no result admits this mutation; the suite does not exercise it", m.name)
		}
	}
}

// auditedResults returns the B-INIT result and the round-robin binding
// of g on dp, each after checking that the untouched result, its
// hand-built schedule copy and its rebuilt bound graph all pass — so a
// rejection below is the mutation's doing, not the copying's.
func auditedResults(t *testing.T, g *dfg.Graph, dp *machine.Datapath) []*bind.Result {
	t.Helper()
	init, err := bind.Initial(g, dp, bind.Options{Parallelism: 1})
	if err != nil {
		t.Fatalf("%s on %s: %v", g.Name(), dp.SpecString(), err)
	}
	rr := make([]int, g.NumNodes())
	for i := range rr {
		rr[i] = i % dp.NumClusters()
	}
	spread, err := bind.Evaluate(g, dp, rr)
	if err != nil {
		t.Fatalf("%s on %s: %v", g.Name(), dp.SpecString(), err)
	}
	for _, res := range []*bind.Result{init, spread} {
		for ci, control := range []*bind.Result{res, withSchedule(res, copySchedule(res.Schedule)), rebuild(res, -1, -1)} {
			if err := audit.Audit(control); err != nil {
				t.Fatalf("%s on %s: audit rejects an untouched result (control %d, init=%v): %v", g.Name(), dp.SpecString(), ci, res == init, err)
			}
		}
	}
	return []*bind.Result{init, spread}
}

// spread picks up to mutantsPerCase of n candidate sites, evenly spaced.
func spread(n int) []int {
	var out []int
	for i := 0; i < mutantsPerCase && i < n; i++ {
		out = append(out, i*n/min(n, mutantsPerCase))
	}
	return out
}

// copySchedule is a hand-built copy of s: fresh slices, no recorded
// finish times, so Finish derives from the (possibly mutated) starts.
func copySchedule(s *sched.Schedule) *sched.Schedule {
	c := &sched.Schedule{Graph: s.Graph, Datapath: s.Datapath, L: s.L,
		Start:   append([]int(nil), s.Start...),
		Cluster: append([]int(nil), s.Cluster...),
		Unit:    append([]int(nil), s.Unit...)}
	if s.HopUnits != nil {
		c.HopUnits = make([][]int, len(s.HopUnits))
		for i, h := range s.HopUnits {
			c.HopUnits[i] = append([]int(nil), h...)
		}
	}
	return c
}

func withSchedule(res *bind.Result, s *sched.Schedule) *bind.Result {
	c := *res
	c.Schedule = s
	return &c
}

func flipCluster(res *bind.Result) []mutant {
	type site struct{ id, to int }
	var sites []site
	for _, n := range res.Graph.Nodes() {
		for c := 0; c < res.Datapath.NumClusters(); c++ {
			if c != res.Binding[n.ID()] && res.Datapath.Supports(c, n.Op()) {
				sites = append(sites, site{n.ID(), c})
				break
			}
		}
	}
	var out []mutant
	for _, i := range spread(len(sites)) {
		s := sites[i]
		c := *res
		c.Binding = append([]int(nil), res.Binding...)
		c.Binding[s.id] = s.to
		out = append(out, mutant{site: fmt.Sprintf("%s -> c%d", res.Graph.Node(s.id).Name(), s.to), res: &c})
	}
	return out
}

// moveIDs lists the transfer nodes of res's bound graph.
func moveIDs(res *bind.Result) []int {
	var ids []int
	for _, n := range res.Bound.Nodes() {
		if n.IsMove() {
			ids = append(ids, n.ID())
		}
	}
	return ids
}

func rebuildAtMoves(res *bind.Result, drop bool) []mutant {
	moves := moveIDs(res)
	var out []mutant
	for _, i := range spread(len(moves)) {
		m := moves[i]
		site := res.Bound.Node(m).Name()
		if drop {
			out = append(out, mutant{site: site, res: rebuild(res, m, -1)})
		} else {
			out = append(out, mutant{site: site, res: rebuild(res, -1, m)})
		}
	}
	return out
}

// rebuild copies res's bound graph and schedule node by node, leaving
// out node drop (its consumers read the untransferred value instead)
// and issuing a second copy of move dup right after it, on the same
// channel in the same cycle. With drop and dup both -1 the copy is
// faithful.
func rebuild(res *bind.Result, drop, dup int) *bind.Result {
	bg, s := res.Bound, res.Schedule
	b := dfg.NewBuilder(bg.Name())
	inputs := make([]dfg.Value, bg.NumInputs())
	for i := range inputs {
		inputs[i] = b.Input(bg.InputName(i))
	}
	val := make([]dfg.Value, bg.NumNodes())
	operand := func(o dfg.Value) dfg.Value {
		if o.IsInput() {
			return inputs[o.Input()]
		}
		return val[o.Node().ID()]
	}
	ns := &sched.Schedule{Datapath: s.Datapath, L: s.L}
	var bb []int
	keep := func(id int) {
		bb = append(bb, res.BoundBinding[id])
		ns.Start = append(ns.Start, s.Start[id])
		ns.Cluster = append(ns.Cluster, s.Cluster[id])
		ns.Unit = append(ns.Unit, s.Unit[id])
		if s.HopUnits != nil {
			ns.HopUnits = append(ns.HopUnits, append([]int(nil), s.HopUnits[id]...))
		}
	}
	for _, n := range bg.Nodes() {
		ops := n.Operands()
		if n.ID() == drop {
			val[n.ID()] = operand(ops[0])
			continue
		}
		if n.IsMove() {
			val[n.ID()] = b.NamedMove(n.Name(), operand(ops[0]))
		} else {
			args := make([]dfg.Value, len(ops))
			for i, o := range ops {
				args[i] = operand(o)
			}
			val[n.ID()] = b.Named(n.Name(), n.Op(), n.Imm(), args...)
		}
		keep(n.ID())
		if n.ID() == dup {
			b.NamedMove(n.Name()+"'", operand(ops[0]))
			keep(n.ID())
		}
	}
	for _, o := range bg.Outputs() {
		b.Output(val[o.ID()])
	}
	ns.Graph = b.Graph()
	c := *res
	c.Bound, c.BoundBinding, c.Schedule = ns.Graph, bb, ns
	return &c
}

func startEarly(res *bind.Result) []mutant {
	s := res.Schedule
	type site struct{ id, arrival int }
	var sites []site
	for _, n := range res.Bound.Nodes() {
		arrival := -1
		for _, o := range n.Operands() {
			if o.IsNode() {
				arrival = max(arrival, s.Finish(o.Node()))
			}
		}
		if arrival > 0 {
			sites = append(sites, site{n.ID(), arrival})
		}
	}
	var out []mutant
	for _, i := range spread(len(sites)) {
		st := sites[i]
		ns := copySchedule(s)
		ns.Start[st.id] = st.arrival - 1
		out = append(out, mutant{site: fmt.Sprintf("%s at cycle %d", res.Bound.Node(st.id).Name(), st.arrival-1),
			res: withSchedule(res, ns)})
	}
	return out
}

func swapHops(res *bind.Result) []mutant {
	s := res.Schedule
	var sites []int
	for _, id := range moveIDs(res) {
		if s.HopUnits != nil && len(s.HopUnits[id]) >= 2 {
			sites = append(sites, id)
		}
	}
	var out []mutant
	for _, i := range spread(len(sites)) {
		id := sites[i]
		ns := copySchedule(s)
		h := ns.HopUnits[id]
		h[0], h[1] = h[1], h[0]
		ns.Unit[id] = h[0]
		out = append(out, mutant{site: res.Bound.Node(id).Name(), res: withSchedule(res, ns)})
	}
	return out
}

func doubleBook(res *bind.Result) []mutant {
	s := res.Schedule
	type site struct{ a, b int }
	var sites []site
	nodes := res.Bound.Nodes()
	for i, a := range nodes {
		for _, b := range nodes[i+1:] {
			if !a.IsMove() && !b.IsMove() && a.FUType() == b.FUType() &&
				s.Start[a.ID()] == s.Start[b.ID()] && s.Cluster[a.ID()] == s.Cluster[b.ID()] &&
				s.Unit[a.ID()] != s.Unit[b.ID()] {
				sites = append(sites, site{a.ID(), b.ID()})
			}
		}
	}
	var out []mutant
	for _, i := range spread(len(sites)) {
		st := sites[i]
		ns := copySchedule(s)
		ns.Unit[st.b] = ns.Unit[st.a]
		out = append(out, mutant{site: fmt.Sprintf("%s and %s", nodes[st.a].Name(), nodes[st.b].Name()),
			res: withSchedule(res, ns)})
	}
	return out
}

// clobberRegister gives a value B the register of a value A that B's
// write lands on while A still has a read ahead of it in the same
// cluster, so the replay finds B where A is read.
func clobberRegister(res *bind.Result) []mutant {
	s := res.Schedule
	a, err := codegen.Allocate(s, 0)
	if err != nil {
		return nil
	}
	// lastRead[k] is the last cycle value copy k is read in its cluster.
	lastRead := map[codegen.RegKey]int{}
	read := func(k codegen.RegKey, cycle int) {
		if r, ok := lastRead[k]; !ok || cycle > r {
			lastRead[k] = cycle
		}
	}
	for _, n := range res.Bound.Nodes() {
		if n.IsMove() {
			src := n.TransferFor()
			read(codegen.RegKey{Node: src.ID(), Cluster: s.Cluster[src.ID()]}, s.Start[n.ID()])
			continue
		}
		for _, o := range n.Operands() {
			if o.IsNode() {
				read(codegen.RegKey{Node: o.Node().ID(), Cluster: s.Cluster[n.ID()]}, s.Start[n.ID()])
			}
		}
	}
	type site struct{ live, clobber codegen.RegKey }
	var sites []site
	nodes := res.Bound.Nodes()
	for _, v := range nodes {
		live := codegen.RegKey{Node: v.ID(), Cluster: s.Cluster[v.ID()]}
		r, ok := lastRead[live]
		if !ok {
			continue
		}
		for _, w := range nodes {
			at := s.Finish(w)
			if s.Cluster[w.ID()] == live.Cluster && at > s.Finish(v) && at <= r {
				sites = append(sites, site{live, codegen.RegKey{Node: w.ID(), Cluster: live.Cluster}})
				break
			}
		}
	}
	var out []mutant
	for _, i := range spread(len(sites)) {
		st := sites[i]
		c := &codegen.Alloc{Reg: make(map[codegen.RegKey]int, len(a.Reg)), NumRegs: a.NumRegs}
		for k, r := range a.Reg {
			c.Reg[k] = r
		}
		c.Reg[st.clobber] = c.Reg[st.live]
		out = append(out, mutant{site: fmt.Sprintf("%s over %s", nodes[st.clobber.Node].Name(), nodes[st.live.Node].Name()),
			res: res, alloc: c})
	}
	return out
}
