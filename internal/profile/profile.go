// Package profile implements the force-directed-style load profiles of
// Lapinskii et al. (DAC 2001), Section 3.1.2 and Figure 4. A profile
// spreads each operation's unit of work uniformly over its time frame
// [asap, alap + dii − 1] with weight 1/(mobility+1), normalized by the
// number of units of the operation's resource type. The initial binding
// algorithm compares the load a cluster would carry against the load of an
// equivalent centralized datapath to detect serialization (fucost), and
// maintains an analogous bus profile of inter-cluster transfers (buscost).
//
// Profiles are always computed on the original DFG — the relaxation
// preserves the level ordering of operations — so they never depend on the
// moves a partial binding implies; transfers are instead placed "on the
// side", right after their producer completes.
package profile

import (
	"fmt"
	"slices"

	"vliwbind/internal/dfg"
	"vliwbind/internal/machine"
)

// eps guards the strict comparisons between floating-point profile levels;
// a cluster is only "overloaded" when it exceeds the reference by more
// than this tolerance.
const eps = 1e-9

// Transfer is a prospective inter-cluster data transfer of Prod's result
// from the cluster Src to the cluster Dest, needed by consumer Cons. The
// consumer determines the transfer's time-frame mobility (paper, Section
// 3.1.2, bus serialization penalty); Src and Dest determine the route —
// and with it which link profiles the transfer loads — on routed
// interconnects. On the paper's shared bus the route is always the one
// link, so Src carries no information there.
type Transfer struct {
	Prod *dfg.Node
	Cons *dfg.Node
	Src  int
	Dest int
}

// Set holds the centralized reference profile, the per-cluster profiles of
// bound operations, and the bus profile of committed transfers for one run
// of the initial binding algorithm.
type Set struct {
	g     *dfg.Graph
	dp    *machine.Datapath
	times *dfg.Times
	// L is the load-profile latency L_PR the frames were computed for.
	L int
	// central[t][tau] is load_DP(t, tau): the normalized load of the
	// equivalent centralized datapath.
	central [dfg.NumFUTypes][]float64
	// cluster[c][t][tau] is load_CL(c, t, tau) over currently bound ops.
	cluster [][dfg.NumFUTypes][]float64
	// bus[l][tau] is the normalized load of link l over committed
	// transfers; each hop of a transfer's route loads its own link's
	// profile, shifted MoveLat per preceding hop. On the shared bus
	// there is exactly one link and bus[0] is the paper's bus profile,
	// with the same divisor (the full channel count) and the same
	// accumulation order as before the interconnect abstraction.
	bus [][]float64
	// committed dedups transfers by (producer, destination cluster): a
	// value moved to a cluster once is available to every consumer there.
	committed map[[2]int]bool
	// BusCost scratch, reused across calls: tent[l][tau] is the
	// tentative load of the call stamped gen[l][tau] == stamp, touched
	// lists those (l, tau) in first-touch order, and seen the
	// (producer, destination) pairs the call has counted.
	tent    [][]float64
	gen     [][]uint32
	stamp   uint32
	touched [][2]int
	seen    [][2]int
}

// New builds the profile set for graph g on datapath dp with load-profile
// latency lpr. If lpr is below the critical path it is raised to it (the
// paper starts at L_PR = L_CP and stretches upward from there).
func New(g *dfg.Graph, dp *machine.Datapath, lpr int) (*Set, error) {
	if g.NumMoves() != 0 {
		return nil, fmt.Errorf("profile: load profiles are defined on the original DFG; graph %q has moves", g.Name())
	}
	if err := dp.CanRun(g); err != nil {
		return nil, err
	}
	times := dfg.Analyze(g, dp.Latency, lpr)
	s := &Set{
		g:         g,
		dp:        dp,
		times:     times,
		L:         times.L,
		cluster:   make([][dfg.NumFUTypes][]float64, dp.NumClusters()),
		bus:       make([][]float64, dp.NumLinks()),
		committed: make(map[[2]int]bool),
		tent:      make([][]float64, dp.NumLinks()),
		gen:       make([][]uint32, dp.NumLinks()),
	}
	for l := range s.bus {
		s.bus[l] = make([]float64, times.L)
		s.tent[l] = make([]float64, times.L)
		s.gen[l] = make([]uint32, times.L)
	}
	for t := 1; t < dfg.NumFUTypes; t++ {
		s.central[t] = make([]float64, s.L)
	}
	for c := range s.cluster {
		for t := 1; t < dfg.NumFUTypes; t++ {
			s.cluster[c][t] = make([]float64, s.L)
		}
	}
	for _, n := range g.Nodes() {
		t := n.FUType()
		nt := dp.TotalFU(t)
		lo, hi, w := s.opFrame(n)
		for tau := lo; tau <= hi; tau++ {
			s.central[t][tau] += w / float64(nt)
		}
	}
	return s, nil
}

// Times exposes the ASAP/ALAP analysis underlying the profiles, computed
// for L_PR on the original graph. The binder reuses it for its ordering.
func (s *Set) Times() *dfg.Times { return s.times }

// opFrame returns the inclusive profile frame [lo, hi] of operation n and
// its per-step weight 1/(mobility+1). The frame extends dii−1 steps past
// the ALAP start, clamped to the profile.
func (s *Set) opFrame(n *dfg.Node) (lo, hi int, w float64) {
	lo = s.times.ASAP[n.ID()]
	hi = s.times.ALAP[n.ID()] + s.dp.DII(n.Op()) - 1
	if hi >= s.L {
		hi = s.L - 1
	}
	return lo, hi, 1 / float64(s.times.Mobility(n)+1)
}

// soleLink is the degenerate route of a same-cluster transfer: such a
// transfer should not exist, but hand-built ones keep the legacy
// single-hop accounting on link 0 rather than vanishing from the cost.
var soleLink = []int{0}

// transferRoute returns the hop links tr traverses on the datapath's
// interconnect.
func (s *Set) transferRoute(tr Transfer) []int {
	if r := s.dp.Route(tr.Src, tr.Dest); r != nil {
		return r
	}
	return soleLink
}

// transferFrame returns the inclusive profile frame and weight of a
// transfer's first hop. Per the paper, the transfer sits right after its
// producer completes and inherits the consumer's mobility reduced by the
// route latency (lat(move) per hop — just lat(move) on the shared bus),
// clamped at zero. Hop h's frame is this frame shifted h·lat(move) to
// the right.
func (s *Set) transferFrame(tr Transfer) (lo, hi int, w float64) {
	lo = s.times.ASAP[tr.Prod.ID()] + s.dp.Latency(tr.Prod.Op())
	mob := s.times.Mobility(tr.Cons) - len(s.transferRoute(tr))*s.dp.MoveLat()
	if mob < 0 {
		mob = 0
	}
	hi = lo + mob + s.dp.MoveDII() - 1
	if lo >= s.L {
		lo = s.L - 1
	}
	if hi >= s.L {
		hi = s.L - 1
	}
	return lo, hi, 1 / float64(mob+1)
}

// FUCost computes fucost(v,c): the number of profile steps at which
// binding v to cluster c would push the cluster's normalized load for v's
// FU type above both the centralized reference and full utilization
// (Section 3.1.2: penalty only when load_CL > max(load_DP, 1)).
func (s *Set) FUCost(v *dfg.Node, c int) int {
	t := v.FUType()
	n := s.dp.NumFU(c, t)
	if n == 0 {
		// The binder never asks about unsupporting clusters; treat an
		// impossible binding as infinitely serialized anyway.
		return s.L + 1
	}
	lo, hi, w := s.opFrame(v)
	cost := 0
	for tau := lo; tau <= hi; tau++ {
		load := s.cluster[c][t][tau] + w/float64(n)
		ref := s.central[t][tau]
		if ref < 1 {
			ref = 1
		}
		if load > ref+eps {
			cost++
		}
	}
	return cost
}

// BusCost computes buscost for a candidate binding that would require the
// given new transfers: the number of profile steps at which the bus load,
// including the tentative transfers, exceeds full utilization. Transfers
// already committed for the same (producer, destination) pair are skipped,
// mirroring move dedup in the bound graph. The tentative loads live in
// the set's scratch, so BusCost allocates nothing once warm; like the
// other methods it is not safe for concurrent use.
func (s *Set) BusCost(trs []Transfer) int {
	if s.dp.NumBuses() == 0 {
		if len(trs) == 0 {
			return 0
		}
		return s.L + 1
	}
	s.stamp++
	if s.stamp == 0 { // wrapped: no stale stamp may match
		for l := range s.gen {
			clear(s.gen[l])
		}
		s.stamp = 1
	}
	s.touched, s.seen = s.touched[:0], s.seen[:0]
	for _, tr := range trs {
		key := [2]int{tr.Prod.ID(), tr.Dest}
		if s.committed[key] || slices.Contains(s.seen, key) {
			continue
		}
		s.seen = append(s.seen, key)
		lo, hi, w := s.transferFrame(tr)
		for h, l := range s.transferRoute(tr) {
			chans := float64(s.dp.LinkCapacity(l))
			shift := h * s.dp.MoveLat()
			for tau := lo; tau <= hi; tau++ {
				at := tau + shift
				if at >= s.L {
					at = s.L - 1
				}
				if s.gen[l][at] != s.stamp {
					s.gen[l][at], s.tent[l][at] = s.stamp, 0
					s.touched = append(s.touched, [2]int{l, at})
				}
				s.tent[l][at] += w / chans
			}
		}
	}
	cost := 0
	for _, k := range s.touched {
		if s.bus[k[0]][k[1]]+s.tent[k[0]][k[1]] > 1+eps {
			cost++
		}
	}
	return cost
}

// CommitOp adds operation v to cluster c's profile. The binder calls it
// once per op, after choosing the cluster.
func (s *Set) CommitOp(v *dfg.Node, c int) {
	t := v.FUType()
	n := s.dp.NumFU(c, t)
	lo, hi, w := s.opFrame(v)
	for tau := lo; tau <= hi; tau++ {
		s.cluster[c][t][tau] += w / float64(n)
	}
}

// CommitTransfers adds the given transfers to the bus profile, skipping
// (producer, destination) pairs that were already committed.
func (s *Set) CommitTransfers(trs []Transfer) {
	if s.dp.NumBuses() == 0 {
		return
	}
	for _, tr := range trs {
		key := [2]int{tr.Prod.ID(), tr.Dest}
		if s.committed[key] {
			continue
		}
		s.committed[key] = true
		lo, hi, w := s.transferFrame(tr)
		for h, l := range s.transferRoute(tr) {
			chans := float64(s.dp.LinkCapacity(l))
			shift := h * s.dp.MoveLat()
			for tau := lo; tau <= hi; tau++ {
				at := tau + shift
				if at >= s.L {
					at = s.L - 1
				}
				s.bus[l][at] += w / chans
			}
		}
	}
}

// CentralLoad returns load_DP(t, tau) for inspection and tests.
func (s *Set) CentralLoad(t dfg.FUType, tau int) float64 { return s.central[t][tau] }

// ClusterLoad returns load_CL(c, t, tau) for inspection and tests.
func (s *Set) ClusterLoad(c int, t dfg.FUType, tau int) float64 { return s.cluster[c][t][tau] }

// BusLoad returns the committed normalized load of link 0 at step tau —
// on the shared bus, the paper's bus profile. Routed topologies have
// one profile per link.
func (s *Set) BusLoad(tau int) float64 { return s.bus[0][tau] }
