package main

import (
	"encoding/json"
	"net/http"
	"slices"
	"testing"

	"vliwbind"
	"vliwbind/internal/explore"
	"vliwbind/internal/machine"
)

func boundEWF(t *testing.T) *vliwbind.Result {
	t.Helper()
	dp, err := vliwbind.ParseDatapath("[2,1|1,1]", vliwbind.DatapathConfig{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := vliwbind.Bind(vliwbind.KernelMust("EWF"), dp, vliwbind.Options{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// flipped returns bn with node i moved to the next cluster.
func flipped(bn []int, i, clusters int) []int {
	out := slices.Clone(bn)
	out[i] = (out[i] + 1) % clusters
	return out
}

func TestCheckerAcceptsGenuineAnswers(t *testing.T) {
	res := boundEWF(t)
	if err := checkResult(res); err != nil {
		t.Fatalf("genuine result rejected: %v", err)
	}
	if _, err := checkAnswer(answerOf(res)); err != nil {
		t.Fatalf("genuine answer rejected: %v", err)
	}
}

// hitReply encodes a served store hit carrying the given answer.
func hitReply(t *testing.T, binding []int, l, m int) []byte {
	t.Helper()
	raw, err := json.Marshal(bindReply{Outcome: "ok", L: l, Moves: m, Binding: binding, Audited: true, Source: "store"})
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

func wrongAnswer(res *vliwbind.Result) error {
	a := answerOf(res)
	a.l++
	_, err := checkAnswer(a)
	return err
}

func TestCheckerCountsCorruptedResponses(t *testing.T) {
	res := boundEWF(t)
	nc := res.Datapath.NumClusters()
	w := &serveMix{
		pairs: []layerCase{{name: "EWF [2,1|1,1]", kernel: "EWF", g: res.Graph, dp: res.Datapath}},
		warm:  []bindReply{{L: res.L(), Moves: res.Moves(), Binding: res.Binding}},
	}
	hit := func(body []byte) error {
		_, err := w.checkReply(served{pair: 0, status: http.StatusOK, body: body})
		return err
	}
	if err := hit(hitReply(t, res.Binding, res.L(), res.Moves())); err != nil {
		t.Fatalf("genuine hit rejected: %v", err)
	}

	flippedResult := *res
	flippedResult.Binding = flipped(res.Binding, 0, nc)
	longSchedule := *res.Schedule
	longSchedule.L++
	wrongL := *res
	wrongL.Schedule = &longSchedule

	rep := newReport()
	corruptions := []struct {
		name string
		err  error
	}{
		{"flipped cluster in a served hit", hit(hitReply(t, flipped(res.Binding, 0, nc), res.L(), res.Moves()))},
		{"flipped cluster in a result", checkResult(&flippedResult)},
		{"wrong L in a served hit", hit(hitReply(t, res.Binding, res.L()+1, res.Moves()))},
		{"wrong L in an answer", wrongAnswer(res)},
		{"wrong L in a result", checkResult(&wrongL)},
	}
	for _, c := range corruptions {
		if c.err == nil {
			t.Errorf("%s: checker accepted it", c.name)
		}
		rep.op(c.err)
	}
	if rep.failed != len(corruptions) || rep.attempted != len(corruptions) {
		t.Errorf("counted %d failed of %d attempted, want %d of %d", rep.failed, rep.attempted, len(corruptions), len(corruptions))
	}
}

func TestCheckerCountsColdAnswerWithWrongL(t *testing.T) {
	dp, err := machine.Parse("[2,1|1,1]", machine.Config{})
	if err != nil {
		t.Fatal(err)
	}
	w := &serveMix{seed: 3, dps: []*vliwbind.Datapath{dp}, coldOrd: []int32{0}}
	c := w.coldCase(0)
	res, err := vliwbind.Bind(c.g, c.dp, vliwbind.Options{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	cold := func(l int) error {
		raw, err := json.Marshal(bindReply{Outcome: "ok", L: l, Moves: res.Moves(), Binding: res.Binding, Audited: true, Source: "search"})
		if err != nil {
			t.Fatal(err)
		}
		_, err = w.checkReply(served{idx: 0, pair: -1, status: http.StatusOK, body: raw})
		return err
	}
	if err := cold(res.L()); err != nil {
		t.Fatalf("genuine cold answer rejected: %v", err)
	}
	if cold(res.L()+1) == nil {
		t.Error("cold answer with a wrong L accepted")
	}
}

func TestCheckerCountsFrontierMissingAPoint(t *testing.T) {
	w := &exploreSweep{g: vliwbind.KernelMust(sweepKernel)}
	run := w.sweep(machine.TopoBus, nil, 0)
	if run.err != nil {
		t.Fatal(run.err)
	}
	w.runs = []sweepRun{run}
	rep := newReport()
	w.checkRuns(rep)
	if rep.failed != 0 {
		t.Fatalf("genuine sweep failed the check: %v", rep.problems)
	}

	points := slices.Clone(run.res.Points)
	i := slices.IndexFunc(points, func(p explore.Point) bool { return p.Pareto })
	if i < 0 {
		t.Fatal("sweep reported an empty frontier")
	}
	points[i].Pareto = false
	res := *run.res
	res.Points = points
	corrupt := run
	corrupt.res = &res
	w.runs = []sweepRun{corrupt}
	rep = newReport()
	w.checkRuns(rep)
	if rep.failed != 1 {
		t.Errorf("frontier missing %s: %d failed, want 1 (%v)", points[i].Spec, rep.failed, rep.problems)
	}
	if bad := checkFrontier(points); !slices.Equal(bad, []string{points[i].Spec}) {
		t.Errorf("checkFrontier = %v, want [%s]", bad, points[i].Spec)
	}
}
