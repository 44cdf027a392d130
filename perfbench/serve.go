package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net"
	"net/http"
	"net/url"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/apps"
	"repro/internal/experiments"
	"repro/internal/jobs"
	"repro/internal/machine"
	"repro/internal/obs"
	"repro/internal/runner"
	"repro/internal/server"
	"repro/internal/whatif"
)

// serveConfig sizes serve-warm. The benchmark runs defaultServe; tests
// run a tiny one.
type serveConfig struct {
	// opts are the server's experiment options, shared with the
	// warm-up so that warm keys are the keys requests look up.
	opts    experiments.Options
	apps    []string // warmed sweep workloads
	procs   []int    // warmed sweep concurrencies, on every Table 1 machine
	figures []int    // warmed paper figures
	// opsPerClient is each client's fixed operation count per pass;
	// every jobEvery-th operation is an async job.
	opsPerClient int
	jobEvery     int
	// wrap, if non-nil, wraps the server's handler (tests inject faults).
	wrap func(http.Handler) http.Handler
}

// defaultServe warms 72 sweep points (4 workloads × 6 machines × 3
// concurrencies), Figures 2 and 6, and one whatif plan per workload.
// A pass is 2500 operations per client with a job every 1000th. That
// job share is an assumption: at the share the repository's recorded
// calls give (7 of 18 operations), the clients' submit pacing would set
// the pass time. README.md, "The serve-warm mix", has the arithmetic.
var defaultServe = serveConfig{
	opts:         experiments.Options{Quick: true, MaxProcs: 128},
	apps:         []string{"gtc", "paratec", "cactus", "beambeam3d"},
	procs:        []int{16, 32, 64},
	figures:      []int{2, 6},
	opsPerClient: 2500,
	jobEvery:     1000,
}

// The queue's quota and rate settings: petasim serve -jobs-dir's
// defaults.
var serveQueueConfig = jobs.Config{
	MaxRunning:         2,
	MaxRetries:         2,
	MaxActivePerClient: 16,
	SubmitRate:         10,
	SubmitBurst:        20,
}

// Clients pace their job submissions under a token bucket a little
// tighter than the queue's, so that a 429 means the server broke its
// limit, not that the client ran ahead of it.
const (
	clientJobRate  = 8
	clientJobBurst = 16
)

var serveWarm = newServeWarm(defaultServe)

func newServeWarm(cfg serveConfig) workload {
	return workload{
		name: "serve-warm",
		setup: func(ctx context.Context, e *env, sp *spanLog) (instance, error) {
			s := &serveInst{env: e, sp: sp, cfg: cfg}
			if err := s.setup(ctx); err != nil {
				s.close()
				return nil, err
			}
			return s, nil
		},
		layers: serveLayers,
	}
}

// request is one catalog entry: a synchronous request, its async twin,
// and the reference body both must return.
type request struct {
	kind string // sweep, whatif, figure or metrics
	path string // the synchronous request's path and query
	spec jobs.Spec
	ref  []byte
}

// op is one operation of a client's list: a synchronous request, or
// (req nil) the next async job dealt from the instance's job deck.
type op struct {
	req *request
	job bool
}

// serveInst is one petasim server on a loopback listener, over a jobs
// queue with its WAL in a scratch directory and a memory tier sized
// below the warmed population, plus the mix its clients send.
type serveInst struct {
	env *env
	sp  *spanLog
	cfg serveConfig

	dir    string
	store  *tieredStore
	pool   *runner.Pool
	queue  *jobs.Queue
	srv    *http.Server
	base   string
	client *http.Client
	stop   context.CancelFunc
	bg     sync.WaitGroup // listener and queue dispatcher
	timed  *timedHandler  // traced instances only

	sweeps, whatifs, figures []*request
	metrics                  *request
	mix                      [][]op    // per client
	buckets                  []*bucket // per client
	jobDeck                  []*request
	jobsDealt                atomic.Int64

	mu        sync.Mutex
	reqLat    []float64 // seconds, synchronous requests
	jobLat    []float64 // submit until result body received
	scrapeLat []float64
	resultLat []float64
	queueWait []float64
	logged    int

	// counters when the measured passes began and, once report has
	// run, when they ended
	before, after serveCounters
}

type serveCounters struct {
	runner runner.Stats
	store  storeCounts
	queue  jobs.QueueStats
}

func (s *serveInst) counters() serveCounters {
	return serveCounters{s.pool.Stats(), s.store.counts(), s.queue.Stats()}
}

func (s *serveInst) setup(ctx context.Context) error {
	var err error
	if s.dir, err = os.MkdirTemp(s.env.work, "serve-"); err != nil {
		return err
	}
	rng := rand.New(rand.NewPCG(uint64(s.env.seed), 0x5e12e))
	machines := machine.All()
	if err := s.warm(ctx, rng, machines); err != nil {
		return err
	}
	if err := s.start(); err != nil {
		return err
	}
	s.jobDeck = s.dealJobDeck(rng)
	s.mix = make([][]op, s.env.nproc)
	s.buckets = make([]*bucket, s.env.nproc)
	for c := range s.mix {
		s.mix[c] = s.genMix(rand.New(rand.NewPCG(uint64(s.env.seed), uint64(c+1))))
		s.buckets[c] = &bucket{tokens: clientJobBurst, last: time.Now()}
	}
	s.before = s.counters()
	return nil
}

// warm generates the catalog from rng and simulates every point it
// needs into the disk tier through a separate pool, keeping the
// simulated bodies as references. The memory tier is then sized to half
// the warmed population, so that a good share of lookups fall through
// to disk and backfill.
func (s *serveInst) warm(ctx context.Context, rng *rand.Rand, machines []machine.Spec) error {
	storeDir := filepath.Join(s.dir, "store")
	cache, err := runner.OpenCache(storeDir)
	if err != nil {
		return err
	}
	warmPool := &runner.Pool{Workers: s.env.nproc, Cache: cache}
	opts := s.cfg.opts
	opts.Runner = warmPool

	var machineNames []string
	for _, m := range machines {
		machineNames = append(machineNames, m.Name)
	}
	plan, err := experiments.PlanSweep(opts, s.cfg.apps, machineNames, s.cfg.procs)
	if err != nil {
		return err
	}
	figs, err := plan.Execute(ctx)
	if err != nil {
		return fmt.Errorf("warming the sweep grid: %w", err)
	}
	grid := map[string]runner.Result{}
	for _, fig := range figs {
		for _, r := range fig.Results {
			grid[gridKey(r.App, r.Machine, r.Procs)] = r
		}
	}

	// Sweep selectors: every workload with every shape of one to three
	// machines × one to three concurrencies, so that every seed's
	// catalog holds the same number of points. The seed draws which
	// machines and concurrencies, in which order; the reference body is
	// assembled from the grid in the order PlanSweep promises.
	for _, app := range s.cfg.apps {
		w, err := apps.Lookup(app)
		if err != nil {
			return err
		}
		for nm := 1; nm <= 3; nm++ {
			for np := 1; np <= 3 && np <= len(s.cfg.procs); np++ {
				ms, ps := pick(rng, machineNames, nm), pick(rng, s.cfg.procs, np)
				q := url.Values{"app": {app}, "machine": {strings.Join(ms, ",")}, "procs": {joinInts(ps)}}
				var rs []runner.Result
				for _, m := range ms {
					for _, p := range ps {
						r, ok := grid[gridKey(w.Name(), m, p)]
						if !ok {
							return fmt.Errorf("sweep grid lacks %s %s P=%d", w.Name(), m, p)
						}
						rs = append(rs, r)
					}
				}
				end := s.sp.start("experiments.render")
				var buf bytes.Buffer
				err = runner.WriteJSON(&buf, rs)
				end()
				if err != nil {
					return err
				}
				s.sweeps = append(s.sweeps, &request{kind: "sweep", path: "/v1/sweep?" + q.Encode(), ref: buf.Bytes(),
					spec: jobs.Spec{Kind: jobs.KindSweep, Apps: []string{app}, Machines: ms, Procs: ps}})
			}
		}
	}

	for _, n := range s.cfg.figures {
		fig, err := experiments.FigureN(ctx, opts, n)
		if err != nil {
			return fmt.Errorf("warming figure %d: %w", n, err)
		}
		var buf bytes.Buffer
		if err := fig.JSON(&buf); err != nil {
			return err
		}
		s.figures = append(s.figures, &request{kind: "figure", path: fmt.Sprintf("/v1/figures/%d", n), ref: buf.Bytes(),
			spec: jobs.Spec{Kind: jobs.KindFigure, Figure: n}})
	}

	// One whatif plan per workload, on a generated machine and
	// concurrency, over the default ±10% perturbations.
	for _, app := range s.cfg.apps {
		m := machines[rng.IntN(len(machines))]
		p := s.cfg.procs[rng.IntN(len(s.cfg.procs))]
		wp, err := whatif.NewPlan(app, []machine.Spec{m}, []int{p}, nil, 0)
		if err != nil {
			return err
		}
		study, err := wp.Execute(ctx, warmPool)
		if err != nil {
			return fmt.Errorf("warming whatif %s: %w", app, err)
		}
		var buf bytes.Buffer
		if err := study.JSON(&buf); err != nil {
			return err
		}
		q := url.Values{"app": {app}, "machine": {m.Name}, "procs": {strconv.Itoa(p)}}
		s.whatifs = append(s.whatifs, &request{kind: "whatif", path: "/v1/whatif?" + q.Encode(), ref: buf.Bytes(),
			spec: jobs.Spec{Kind: jobs.KindWhatIf, Apps: []string{app}, Machines: []string{m.Name}, Procs: []int{p}}})
	}
	s.metrics = &request{kind: "metrics", path: "/metrics"}

	memCap := cache.Len() / 2
	if memCap < 1 {
		memCap = 1
	}
	s.store, err = newTieredStore(storeDir, memCap, s.sp)
	return err
}

func gridKey(app, machineName string, procs int) string {
	return fmt.Sprintf("%s|%s|%d", app, machineName, procs)
}

// pick returns n distinct elements of xs in random order.
func pick[T any](rng *rand.Rand, xs []T, n int) []T {
	if n > len(xs) {
		n = len(xs)
	}
	idx := rng.Perm(len(xs))[:n]
	out := make([]T, n)
	for i, j := range idx {
		out[i] = xs[j]
	}
	return out
}

func joinInts(xs []int) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = strconv.Itoa(x)
	}
	return strings.Join(parts, ",")
}

// start opens the queue and the server, as petasim serve -jobs-dir
// does, on a loopback listener.
func (s *serveInst) start() error {
	s.pool = &runner.Pool{Workers: s.env.nproc, Store: s.store}
	opts := s.cfg.opts
	opts.Runner = s.pool
	qcfg := serveQueueConfig
	qcfg.Sink = obs.DefaultSink
	var exec jobs.Executor = jobs.NewExecutor(opts)
	if s.sp != nil {
		exec = timedExecutor{exec, s.sp}
	}
	qcfg.Executor = exec
	q, err := jobs.Open(filepath.Join(s.dir, "jobs"), qcfg)
	if err != nil {
		return err
	}
	s.queue = q
	var h http.Handler = server.NewWithQueue(opts, q)
	if s.cfg.wrap != nil {
		h = s.cfg.wrap(h)
	}
	if s.sp != nil {
		s.timed = &timedHandler{h: h, sp: s.sp}
		h = s.timed
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	s.base = "http://" + ln.Addr().String()
	s.srv = &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second}
	ctx, stop := context.WithCancel(context.Background())
	s.stop = stop
	s.bg.Add(2)
	go func() {
		defer s.bg.Done()
		s.srv.Serve(ln) // returns http.ErrServerClosed at close
	}()
	go func() {
		defer s.bg.Done()
		q.Serve(ctx) // returns ctx.Err() at close
	}()
	s.client = &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     s.env.nproc,
		MaxIdleConnsPerHost: s.env.nproc,
		DisableCompression:  true,
	}}
	return nil
}

// The mix's request kinds are weighted by how often the repository's
// own recorded calls make them: the README's service and jobs
// walkthroughs and the CI serve and jobs smokes, counting each call
// that expects success. README.md lists every counted call.
var (
	// Synchronous calls: 6 GET /v1/sweep, 2 GET /v1/whatif,
	// 1 GET /v1/figures/{n}, 2 GET /metrics.
	syncWeights = kindWeights{{"sweep", 6}, {"whatif", 2}, {"figure", 1}, {"metrics", 2}}
	// Jobs run to done: 5 sweeps, 1 figure, 1 whatif.
	jobWeights = kindWeights{{"sweep", 5}, {"figure", 1}, {"whatif", 1}}
)

type kindWeights []struct {
	kind   string
	weight int
}

// draw picks a kind with probability proportional to its weight.
func (ws kindWeights) draw(rng *rand.Rand) string {
	total := 0
	for _, w := range ws {
		total += w.weight
	}
	n := rng.IntN(total)
	for _, w := range ws {
		if n < w.weight {
			return w.kind
		}
		n -= w.weight
	}
	panic("unreachable")
}

// entry picks a uniform catalog entry of a request kind.
func (s *serveInst) entry(rng *rand.Rand, kind string) *request {
	switch kind {
	case "sweep":
		return s.sweeps[rng.IntN(len(s.sweeps))]
	case "whatif":
		return s.whatifs[rng.IntN(len(s.whatifs))]
	case "figure":
		return s.figures[rng.IntN(len(s.figures))]
	}
	return s.metrics
}

// genMix draws one client's fixed-count operation list: every
// jobEvery-th operation an async job, the rest synchronous requests,
// each kind drawn by its weight and then a uniform catalog entry of it.
func (s *serveInst) genMix(rng *rand.Rand) []op {
	ops := make([]op, s.cfg.opsPerClient)
	for i := range ops {
		if s.cfg.jobEvery > 0 && i%s.cfg.jobEvery == s.cfg.jobEvery-1 {
			ops[i] = op{job: true}
			continue
		}
		ops[i] = op{req: s.entry(rng, syncWeights.draw(rng))}
	}
	return ops
}

// dealJobDeck lists one cycle of async jobs: each job kind as many
// times as its weight, each a catalog entry of that kind, in seed
// order. Jobs are dealt from it in turn, across clients and passes, so
// that every cycle has the weighted shares even though a pass holds
// fewer jobs than a cycle, and two passes reach every kind.
func (s *serveInst) dealJobDeck(rng *rand.Rand) []*request {
	var deck []*request
	for _, w := range jobWeights {
		for i := 0; i < w.weight; i++ {
			deck = append(deck, s.entry(rng, w.kind))
		}
	}
	rng.Shuffle(len(deck), func(i, j int) { deck[i], deck[j] = deck[j], deck[i] })
	return deck
}

func (s *serveInst) nextJob() *request {
	n := s.jobsDealt.Add(1) - 1
	return s.jobDeck[n%int64(len(s.jobDeck))]
}

// pass runs every client's operation list concurrently, each client a
// closed loop, and waits for all of them.
func (s *serveInst) pass(ctx context.Context) (attempted, failed int) {
	var nfailed atomic.Int64
	var wg sync.WaitGroup
	for c := range s.mix {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			client := "perfbench-" + strconv.Itoa(c)
			for _, o := range s.mix[c] {
				var err error
				r := o.req
				if o.job {
					r = s.nextJob()
					err = s.job(ctx, client, s.buckets[c], r)
				} else {
					err = s.sync(ctx, client, r)
				}
				if err != nil {
					nfailed.Add(1)
					s.logf("serve-warm: %s (job %v): %v", r.path, o.job, err)
				}
			}
		}(c)
	}
	wg.Wait()
	for _, ops := range s.mix {
		attempted += len(ops)
	}
	return attempted, int(nfailed.Load())
}

// logf reports the first few failures of an instance.
func (s *serveInst) logf(format string, args ...any) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.logged < 10 {
		fmt.Fprintf(s.env.log, format+"\n", args...)
	}
	s.logged++
}

func (s *serveInst) record(dst *[]float64, d time.Duration) {
	s.mu.Lock()
	*dst = append(*dst, d.Seconds())
	s.mu.Unlock()
}

func (s *serveInst) get(ctx context.Context, client, path string) (*http.Response, []byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, s.base+path, nil)
	if err != nil {
		return nil, nil, err
	}
	return s.do(req, client)
}

func (s *serveInst) do(req *http.Request, client string) (*http.Response, []byte, error) {
	req.Header.Set("X-Petasim-Client", client)
	resp, err := s.client.Do(req)
	if err != nil {
		return nil, nil, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	return resp, body, err
}

// sync sends one synchronous request and checks its reply: a 200, no
// simulation, and the reference body byte for byte (a /metrics scrape
// must carry the pool's point counter; its values change by design).
func (s *serveInst) sync(ctx context.Context, client string, r *request) error {
	t0 := time.Now()
	resp, body, err := s.get(ctx, client, r.path)
	d := time.Since(t0)
	s.record(&s.reqLat, d)
	if r.kind == "metrics" {
		s.record(&s.scrapeLat, d)
	}
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("status %d", resp.StatusCode)
	}
	if r.kind == "metrics" {
		if !bytes.Contains(body, []byte("petasim_points_total")) {
			return errors.New("scrape lacks petasim_points_total")
		}
		return nil
	}
	if sim := resp.Header.Get("X-Petasim-Simulated"); sim != "0" {
		return fmt.Errorf("warm request simulated %q points", sim)
	}
	if !bytes.Equal(body, r.ref) {
		return errors.New("body differs from the reference")
	}
	return nil
}

// bucket is a client's own submission token bucket.
type bucket struct {
	tokens float64
	last   time.Time
}

// wait blocks until the bucket holds a token, then takes it.
func (b *bucket) wait(ctx context.Context) error {
	for {
		now := time.Now()
		b.tokens += now.Sub(b.last).Seconds() * clientJobRate
		if b.tokens > clientJobBurst {
			b.tokens = clientJobBurst
		}
		b.last = now
		if b.tokens >= 1 {
			b.tokens--
			return nil
		}
		t := time.NewTimer(time.Duration((1 - b.tokens) / clientJobRate * float64(time.Second)))
		select {
		case <-t.C:
		case <-ctx.Done():
			t.Stop()
			return ctx.Err()
		}
	}
}

// job submits r's async twin, follows its stream until the job is
// terminal, fetches the result, and checks it: done, nothing simulated,
// and the synchronous reference body byte for byte.
func (s *serveInst) job(ctx context.Context, client string, b *bucket, r *request) error {
	if err := b.wait(ctx); err != nil {
		return err
	}
	t0 := time.Now()
	spec, err := json.Marshal(r.spec)
	if err != nil {
		return err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, s.base+"/v1/jobs", bytes.NewReader(spec))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, body, err := s.do(req, client)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusAccepted {
		return fmt.Errorf("submit status %d: %s", resp.StatusCode, bytes.TrimSpace(body))
	}
	var sub jobs.Job
	if err := json.Unmarshal(body, &sub); err != nil {
		return fmt.Errorf("submit reply: %w", err)
	}
	last, err := s.follow(ctx, client, sub.ID)
	if err != nil {
		return err
	}
	if last.State != jobs.StateDone {
		return fmt.Errorf("job %s ended %s: %s", sub.ID, last.State, last.Error)
	}
	if last.Progress.Simulated != 0 {
		return fmt.Errorf("warm job %s simulated %d points", sub.ID, last.Progress.Simulated)
	}
	s.record(&s.queueWait, last.Started.Sub(last.Created))
	t1 := time.Now()
	resp, body, err = s.get(ctx, client, "/v1/jobs/"+sub.ID+"/result")
	s.record(&s.resultLat, time.Since(t1))
	s.record(&s.jobLat, time.Since(t0))
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("result status %d", resp.StatusCode)
	}
	if !bytes.Equal(body, r.ref) {
		return errors.New("job result differs from the synchronous reference")
	}
	return nil
}

// follow reads a job's NDJSON stream to its terminal record.
func (s *serveInst) follow(ctx context.Context, client, id string) (jobs.Job, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, s.base+"/v1/jobs/"+id+"/stream", nil)
	if err != nil {
		return jobs.Job{}, err
	}
	req.Header.Set("X-Petasim-Client", client)
	resp, err := s.client.Do(req)
	if err != nil {
		return jobs.Job{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return jobs.Job{}, fmt.Errorf("stream status %d", resp.StatusCode)
	}
	dec := json.NewDecoder(resp.Body)
	for {
		var j jobs.Job
		if err := dec.Decode(&j); err != nil {
			return jobs.Job{}, fmt.Errorf("stream of %s ended before a terminal state: %w", id, err)
		}
		if j.State.Terminal() {
			io.Copy(io.Discard, resp.Body) // drain so the connection is reused
			return j, nil
		}
	}
}

func (s *serveInst) close() {
	if s.srv != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
		s.srv.Shutdown(ctx) // the mix is over; nothing is in flight
		cancel()
	}
	if s.stop != nil {
		s.stop()
	}
	s.bg.Wait()
	if s.client != nil {
		s.client.CloseIdleConnections()
	}
	if s.dir != "" {
		os.RemoveAll(s.dir)
	}
}

// report adds the serve workload's request and job latencies to an
// untraced run, and checks that the measured passes were served warm
// from both tiers: no simulation, and hits in memory and on disk.
func (s *serveInst) report(ph *phase) ([]string, error) {
	s.after = s.counters()
	st := subStats(s.after.runner, s.before.runner)
	var lines []string
	add := func(name string, v float64, unit string, n int, note string) {
		lines = append(lines, fmt.Sprintf("metric %-10s %12.6g %-3s n=%d %s", name, v, unit, n, note))
	}
	s.mu.Lock()
	req, jobLat := append([]float64(nil), s.reqLat...), append([]float64(nil), s.jobLat...)
	s.mu.Unlock()
	var mixS float64
	for _, w := range ph.walls {
		mixS += w
	}
	add("req_per_s", float64(len(req))/mixS, "1/s", len(req), "synchronous requests per second of mix")
	add("req_p50_ms", median(req)*1e3, "ms", len(req), "")
	add("req_p99_ms", percentile(req, 99)*1e3, "ms", len(req), tailNote(req, 99))
	add("job_p50_ms", median(jobLat)*1e3, "ms", len(jobLat), "submit until result received")
	add("job_p90_ms", percentile(jobLat, 90)*1e3, "ms", len(jobLat), tailNote(jobLat, 90))
	lines = append(lines, fmt.Sprintf("served %s", st))
	switch {
	case st.Simulated != 0:
		return lines, fmt.Errorf("warm passes simulated %d points", st.Simulated)
	case st.MemHits == 0 || st.Hits == 0:
		return lines, fmt.Errorf("warm passes must hit both tiers: %d mem hits, %d disk hits", st.MemHits, st.Hits)
	}
	return lines, nil
}

// tailNote flags a percentile the sample count cannot support.
func tailNote(xs []float64, p float64) string {
	if supports(xs, p) {
		return ""
	}
	tp, _, _ := tailPercentile(xs)
	return fmt.Sprintf("(too few samples for p%g; highest supported is p%g)", p, tp)
}

// serveLayers reduces serve-warm's phases: counts, request and job
// latencies from the untraced phase; handler, executor, plan and tier
// timings from the traced one.
func serveLayers(ctx context.Context, e *env, u, t *phase) (map[string]float64, int, int, error) {
	us, ts := u.inst.(*serveInst), t.inst.(*serveInst)
	if t.spanErr != nil {
		return nil, 0, 0, t.spanErr
	}
	m := map[string]float64{}
	k := 1 / float64(len(u.walls))
	runnerInto(m, subStats(us.after.runner, us.before.runner), k)
	us.after.store.sub(us.before.store).scale(k).into(m)
	q, q0 := us.after.queue, us.before.queue
	m["jobs.submitted"] = float64(q.Submitted-q0.Submitted) * k
	m["jobs.done"] = float64(q.Done-q0.Done) * k
	m["jobs.failed"] = float64(q.Failed-q0.Failed) * k
	m["jobs.retries"] = float64(q.Retries-q0.Retries) * k
	m["jobs.rate_limited"] = float64(q.RateLimited-q0.RateLimited) * k
	t.spans.into(m, len(t.walls))

	us.mu.Lock()
	var mixS float64
	for _, w := range u.walls {
		mixS += w
	}
	m["req_per_s"] = float64(len(us.reqLat)) / mixS
	m["req_p50_ms"] = median(us.reqLat) * 1e3
	m["req_p99_ms"] = percentile(us.reqLat, 99) * 1e3
	m["job_p50_ms"] = median(us.jobLat) * 1e3
	m["job_p90_ms"] = percentile(us.jobLat, 90) * 1e3
	m["jobs.queue_wait_ms_p50"] = median(us.queueWait) * 1e3
	m["jobs.result_ms_p50"] = median(us.resultLat) * 1e3
	m["obs.scrape_ms_p50"] = median(us.scrapeLat) * 1e3
	us.mu.Unlock()
	m["failed_frac"] = frac(u.failed, u.attempted)

	for _, h := range []string{"sweep", "whatif", "figure", "jobs", "metrics"} {
		m["server."+h+".handler_us_p50"] = t.sp.p50("server."+h, 1e6)
	}
	m["server.non2xx"] = float64(ts.timed.non2xx.Load()) / float64(len(t.walls))
	m["jobs.exec_ms_p50"] = t.sp.p50("jobs.exec", 1e3)
	m["store.mem.get_us_p50"] = t.sp.p50("store.mem.get", 1e6)
	m["store.disk.get_us_p50"] = t.sp.p50("store.disk.get", 1e6)
	m["store.disk.put_us_p50"] = t.sp.p50("store.disk.put", 1e6)
	m["experiments.render_ms"] = t.sp.p50("experiments.render", 1e3)
	m["experiments.plan_us_p50"] = t.sp.p50("experiments.plan", 1e6)
	m["whatif.plan_us_p50"] = t.sp.p50("whatif.plan", 1e6)
	return m, 0, 0, nil
}

// timedHandler is the traced run's wrapper around the server: it times
// each handler by route family and counts non-2xx replies.
type timedHandler struct {
	h      http.Handler
	sp     *spanLog
	non2xx atomic.Int64
}

func (t *timedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	cw := &codeWriter{ResponseWriter: w}
	t0 := time.Now()
	t.h.ServeHTTP(cw, r)
	t.sp.add(routeSpan(r), time.Since(t0))
	if cw.code != 0 && (cw.code < 200 || cw.code > 299) {
		t.non2xx.Add(1)
	}
}

// routeSpan names a request's handler span. A job's stream lives as
// long as the job and is timed by the jobs metrics instead.
func routeSpan(r *http.Request) string {
	p := r.URL.Path
	switch {
	case strings.HasPrefix(p, "/v1/sweep"):
		return "server.sweep"
	case strings.HasPrefix(p, "/v1/whatif"):
		return "server.whatif"
	case strings.HasPrefix(p, "/v1/figures/"):
		return "server.figure"
	case strings.HasPrefix(p, "/v1/jobs") && strings.HasSuffix(p, "/stream"):
		return "server.jobs.stream"
	case strings.HasPrefix(p, "/v1/jobs"):
		return "server.jobs"
	case p == "/metrics":
		return "server.metrics"
	}
	return "server.other"
}

// codeWriter records the status a handler writes and passes flushes
// through, so streamed job records still reach the client line by line.
type codeWriter struct {
	http.ResponseWriter
	code int
}

func (c *codeWriter) WriteHeader(code int) {
	if c.code == 0 {
		c.code = code
	}
	c.ResponseWriter.WriteHeader(code)
}

func (c *codeWriter) Write(b []byte) (int, error) {
	if c.code == 0 {
		c.code = http.StatusOK
	}
	return c.ResponseWriter.Write(b)
}

func (c *codeWriter) Flush() {
	if f, ok := c.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// timedExecutor is the traced run's wrapper around the jobs executor:
// it times each execution, and each plan expansion the queue asks for
// at submission (a figure spec needs none).
type timedExecutor struct {
	jobs.Executor
	sp *spanLog
}

func (e timedExecutor) Validate(spec jobs.Spec) error {
	switch spec.Kind {
	case jobs.KindSweep:
		defer e.sp.start("experiments.plan")()
	case jobs.KindWhatIf:
		defer e.sp.start("whatif.plan")()
	}
	return e.Executor.Validate(spec)
}

func (e timedExecutor) Run(ctx context.Context, spec jobs.Spec, report func(jobs.PointEvent)) error {
	defer e.sp.start("jobs.exec")()
	return e.Executor.Run(ctx, spec, report)
}
