package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"vliwbind"
	"vliwbind/internal/expt"
	"vliwbind/internal/kernels"
	"vliwbind/internal/server"
	"vliwbind/internal/textio"
)

// serve-mix: an in-process vliwbindd server (server.New, 2 workers,
// engine Parallelism 1, default deadlines, journal-backed store in a
// fresh directory) behind a loopback listener, driven by a closed loop
// of 2 clients. Request i is drawn from the seed: in every block of 100
// requests, 90 are store hits on one of the 33 Table 1 (kernel,
// datapath) pairs warmed during set-up, and 10 are cold: a never-seen
// random DFG of 24-48 ops sent as .dfg text on a Table 1 datapath.

const (
	serveClients = 2
	serveWorkers = 2
	serveBlock   = 100  // requests per stratified block (and per wall_s batch)
	serveCold    = 10   // cold requests per block
	serveBlocks  = 1000 // request draws precomputed; indices wrap past them
)

// bindJob mirrors the /bind request fields this benchmark sends.
type bindJob struct {
	Kernel string `json:"kernel,omitempty"`
	DFG    string `json:"dfg,omitempty"`
	DP     string `json:"dp"`
}

// bindReply mirrors the /bind response fields the check reads.
type bindReply struct {
	Outcome   string  `json:"outcome"`
	L         int     `json:"l"`
	Moves     int     `json:"moves"`
	Binding   []int   `json:"binding"`
	Audited   bool    `json:"audited"`
	Source    string  `json:"source"`
	ElapsedMS float64 `json:"elapsed_ms"`
	Error     string  `json:"error"`
}

// served is one request as the client saw it; the body is decoded and
// checked only after the window.
type served struct {
	idx        int64
	pair       int // hit: index into pairs; cold: -1
	traced     bool
	start, end time.Time
	status     int
	body       []byte
	err        error
}

type serveWindow struct {
	start time.Time
	reqs  []served
}

// loopback is an in-process server behind a loopback listener.
type loopback struct {
	srv    *server.Server
	hs     *http.Server
	served chan error
	url    string
	client *http.Client
}

func startLoopback(st *vliwbind.ResultStore) (*loopback, error) {
	srv, err := server.New(server.Config{
		Workers:     serveWorkers,
		Store:       st,
		BindOptions: vliwbind.Options{Parallelism: 1},
	})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	lb := &loopback{
		srv:    srv,
		hs:     &http.Server{Handler: srv},
		served: make(chan error, 1),
		url:    "http://" + ln.Addr().String() + "/bind",
		client: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: serveClients}},
	}
	go func() { lb.served <- lb.hs.Serve(ln) }()
	return lb, nil
}

func (lb *loopback) post(body []byte) (int, []byte, error) {
	resp, err := lb.client.Post(lb.url, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	return resp.StatusCode, raw, err
}

// close stops the listener, waits for its serve loop, and drains the
// server (which compacts and flushes the store journal).
func (lb *loopback) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	lb.hs.Shutdown(ctx)
	<-lb.served
	lb.client.CloseIdleConnections()
	lb.srv.Drain()
}

// jobBody is the /bind request for a case: a paper kernel by name, a
// generated graph as .dfg text.
func jobBody(c layerCase) ([]byte, error) {
	job := bindJob{Kernel: c.kernel, DP: c.dp.SpecString()}
	if c.kernel == "" {
		job.DFG = textio.PrintString(c.g)
	}
	return json.Marshal(job)
}

type serveMix struct {
	seed      int64
	dir       string
	st        *vliwbind.ResultStore
	lb        *loopback
	pairs     []layerCase
	hitBodies [][]byte
	warm      []bindReply
	dps       []*vliwbind.Datapath // distinct Table 1 datapaths for cold requests
	coldOrd   []int32              // request i's ordinal among the cold requests, -1 for a hit
	next      atomic.Int64
	windows   []serveWindow
}

func setupServeMix(cfg config) (workload, error) {
	w := &serveMix{seed: cfg.seed}
	var err error
	if w.dir, err = os.MkdirTemp(cfg.workdir, "serve-"); err != nil {
		return nil, err
	}
	if err := w.start(); err != nil {
		w.close()
		return nil, err
	}
	return w, nil
}

func (w *serveMix) start() error {
	var err error
	if w.st, err = vliwbind.OpenStore(w.dir); err != nil {
		return err
	}
	if w.lb, err = startLoopback(w.st); err != nil {
		return err
	}
	seen := map[string]bool{}
	for _, r := range expt.Table1() {
		k, err := kernels.ByName(r.Kernel)
		if err != nil {
			return err
		}
		dp, err := r.Datapath()
		if err != nil {
			return err
		}
		c := layerCase{name: r.Name(), kernel: r.Kernel, g: k.Build(), dp: dp}
		body, err := jobBody(c)
		if err != nil {
			return err
		}
		w.pairs = append(w.pairs, c)
		w.hitBodies = append(w.hitBodies, body)
		if !seen[dp.SpecString()] {
			seen[dp.SpecString()] = true
			w.dps = append(w.dps, dp)
		}
	}
	// Store warm-up: each pair's first request is a cold bind whose
	// answer every later hit must repeat.
	for i, body := range w.hitBodies {
		status, raw, err := w.lb.post(body)
		var rep bindReply
		if err == nil {
			err = json.Unmarshal(raw, &rep)
		}
		if err == nil && (status != http.StatusOK || rep.Outcome != server.OutcomeOK) {
			err = fmt.Errorf("status %d, outcome %q: %s", status, rep.Outcome, rep.Error)
		}
		if err != nil {
			return fmt.Errorf("warm-up %s: %w", w.pairs[i].name, err)
		}
		w.warm = append(w.warm, rep)
	}
	rng := rand.New(rand.NewSource(w.seed))
	w.coldOrd = make([]int32, serveBlock*serveBlocks)
	k := int32(0)
	for b := 0; b < serveBlocks; b++ {
		block := w.coldOrd[b*serveBlock : (b+1)*serveBlock]
		for j := range block {
			block[j] = -1
		}
		for _, j := range rng.Perm(serveBlock)[:serveCold] {
			block[j] = 0
		}
		for j := range block {
			if block[j] == 0 {
				block[j] = k
				k++
			}
		}
	}
	return nil
}

// coldCase generates request i's cold input: a random DFG drawn from
// the seed. Its size and datapath cycle with the request's cold ordinal
// (24..48 ops against the 12 Table 1 datapaths, periods 25 and 12 being
// coprime, from a seeded starting point), so every run's cold requests
// cover sizes and datapaths evenly and seeds differ in graph structure,
// not in how much binding work the mix holds.
func (w *serveMix) coldCase(i int64) layerCase {
	k := int64(w.coldOrd[i%int64(len(w.coldOrd))]) + int64(splitmix(w.seed, -1)%300)
	g := kernels.Random(kernels.RandomConfig{Ops: 24 + int(k%25), Seed: int64(splitmix(w.seed, i) >> 1)})
	return layerCase{name: g.Name(), g: g, dp: w.dps[k%int64(len(w.dps))]}
}

// request returns request i's body and, for a hit, its pair index
// (-1 for a cold request).
func (w *serveMix) request(i int64) ([]byte, int, error) {
	if w.coldOrd[i%int64(len(w.coldOrd))] < 0 {
		p := int(splitmix(w.seed^0x5eed, i) % uint64(len(w.pairs)))
		return w.hitBodies[p], p, nil
	}
	body, err := jobBody(w.coldCase(i))
	return body, -1, err
}

func (w *serveMix) window(d time.Duration, tr *tracer) (int, time.Duration) {
	win := serveWindow{start: time.Now()}
	recs := make([][]served, serveClients)
	var wg sync.WaitGroup
	for c := 0; c < serveClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			root := tr.start("client", 0, int64(c))
			for len(recs[c]) == 0 || time.Since(win.start) < d {
				i := w.next.Add(1) - 1
				body, pair, err := w.request(i)
				rec := served{idx: i, pair: pair, traced: tr != nil, err: err}
				if err == nil {
					name := "server.request_hit"
					if pair < 0 {
						name = "server.request_cold"
					}
					sp := tr.start(name, root, i)
					rec.start = time.Now()
					rec.status, rec.body, rec.err = w.lb.post(body)
					rec.end = time.Now()
					tr.end(sp)
				}
				recs[c] = append(recs[c], rec)
			}
			tr.end(root)
		}(c)
	}
	wg.Wait()
	elapsed := time.Since(win.start)
	n := 0
	for _, r := range recs {
		win.reqs = append(win.reqs, r...)
		n += len(r)
	}
	w.windows = append(w.windows, win)
	return n, elapsed
}

// checkReply decodes and checks one response: a hit must be a store
// answer equal to its warm-up answer, a cold answer must re-derive and
// certify.
func (w *serveMix) checkReply(r served) (bindReply, error) {
	var rep bindReply
	if r.err != nil {
		return rep, r.err
	}
	if err := json.Unmarshal(r.body, &rep); err != nil {
		return rep, fmt.Errorf("request %d: decode: %w", r.idx, err)
	}
	if r.status != http.StatusOK || rep.Outcome != server.OutcomeOK || !rep.Audited {
		return rep, fmt.Errorf("request %d: status %d, outcome %q, audited %v: %s", r.idx, r.status, rep.Outcome, rep.Audited, rep.Error)
	}
	if r.pair >= 0 {
		if rep.Source != "store" {
			return rep, fmt.Errorf("request %d: hit on %s answered from %q", r.idx, w.pairs[r.pair].name, rep.Source)
		}
		c := w.pairs[r.pair]
		ref := w.warm[r.pair]
		return rep, checkSame(c.name, answer{c.g, c.dp, rep.Binding, rep.L, rep.Moves},
			answer{c.g, c.dp, ref.Binding, ref.L, ref.Moves})
	}
	if rep.Source != "search" {
		return rep, fmt.Errorf("request %d: cold request answered from %q", r.idx, rep.Source)
	}
	c := w.coldCase(r.idx)
	if _, err := checkAnswer(answer{c.g, c.dp, rep.Binding, rep.L, rep.Moves}); err != nil {
		return rep, fmt.Errorf("request %d (%s on %s): %w", r.idx, c.name, c.dp.SpecString(), err)
	}
	return rep, nil
}

func (w *serveMix) finish(rep *report) {
	sumL, sumM := 0, 0
	for i, a := range w.warm {
		_, err := checkAnswer(answer{w.pairs[i].g, w.pairs[i].dp, a.Binding, a.L, a.Moves})
		rep.op(err)
		sumL += a.L
		sumM += a.Moves
	}
	var hit, cold, binds, outHit, outCold, walls []float64
	total, elapsed := 0, 0.0
	for _, win := range w.windows {
		ends := make([]float64, 0, len(win.reqs))
		for _, r := range win.reqs {
			reply, err := w.checkReply(r)
			rep.op(err)
			total++
			if err != nil {
				continue
			}
			lat := ms(r.end.Sub(r.start))
			ends = append(ends, r.end.Sub(win.start).Seconds())
			outside := lat - reply.ElapsedMS
			if r.pair >= 0 {
				hit = append(hit, lat)
				if r.traced {
					outHit = append(outHit, outside)
				}
			} else {
				cold = append(cold, lat)
				binds = append(binds, reply.ElapsedMS)
				if r.traced {
					outCold = append(outCold, outside)
				}
			}
		}
		// wall_s: time to complete each successive block of requests.
		sort.Float64s(ends)
		prev := 0.0
		for k := serveBlock - 1; k < len(ends); k += serveBlock {
			walls = append(walls, ends[k]-prev)
			prev = ends[k]
		}
		if len(ends) > 0 {
			elapsed += ends[len(ends)-1]
		}
	}
	if len(walls) == 0 || len(cold) == 0 || len(hit) == 0 {
		rep.op(errors.New("serve-mix: window too short for a block of requests"))
	}
	rep.e2e["wall_s"] = sample{median(walls), len(walls)}
	rep.e2e["req_per_s"] = sample{float64(total) / elapsed, total}
	rep.e2e["bind_geomean_ms"] = sample{geomean(binds), len(binds)}
	rep.e2e["iter_sum_L"] = sample{float64(sumL), len(w.warm)}
	rep.e2e["iter_sum_M"] = sample{float64(sumM), len(w.warm)}
	rep.e2e["hit_p50_ms"] = sample{median(hit), len(hit)}
	rep.e2e["hit_p99_ms"] = sample{quantile(hit, 0.99), len(hit)}
	rep.e2e["cold_p50_ms"] = sample{median(cold), len(cold)}
	rep.e2e["cold_p90_ms"] = sample{quantile(cold, 0.9), len(cold)}
	if len(outHit) > 0 && len(outCold) > 0 {
		rep.layer["server.outside_bind_hit_ms"] = sample{median(outHit), len(outHit)}
		rep.layer["server.outside_bind_cold_ms"] = sample{median(outCold), len(outCold)}
	}
}

// cases are the 33 warmed pairs plus the run's first ten cold inputs.
func (w *serveMix) cases() []layerCase {
	out := append([]layerCase(nil), w.pairs...)
	for i := int64(0); len(out) < len(w.pairs)+serveCold; i++ {
		if w.coldOrd[i] >= 0 {
			out = append(out, w.coldCase(i))
		}
	}
	return out
}

func (w *serveMix) close() {
	if w.lb != nil {
		w.lb.close()
	}
	if w.st != nil {
		w.st.Close()
	}
	os.RemoveAll(w.dir)
}
