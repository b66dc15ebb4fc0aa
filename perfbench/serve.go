package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"smart/internal/core"
	"smart/internal/obs"
	"smart/internal/resilience"
	"smart/internal/serve"
	"smart/internal/store"
)

// Request kinds of the serve-mixed loop.
const (
	kindHit         = "hit"          // POST /v1/run of a corpus config
	kindNotModified = "not_modified" // the same with If-None-Match
	kindResult      = "result"       // GET /v1/result/{fp}
	kindSweep       = "sweep"        // POST /v1/sweep over corpus loads
	kindMiss        = "miss"         // POST /v1/run of a config never seen
)

var requestKinds = []string{kindHit, kindNotModified, kindResult, kindSweep, kindMiss}

// kindOf fixes the request mix by position in the request sequence.
// The revalidation share, 1 in 16, is cmd/loadtest's. The other shares
// are chosen, not measured, since the repository holds no record of
// real traffic: misses are the small fixed share the workload calls for,
// 1 in 128, enough for a few thousand misses in a 30-second run while
// /v1/run hits stay the bulk; result reads (1 in 32) and sweeps (1 in
// 64) are set so each kind gets thousands of samples in a run.
func kindOf(n int64) string {
	switch {
	case n%128 == 13:
		return kindMiss
	case n%16 == 3:
		return kindNotModified
	case n%32 == 7:
		return kindResult
	case n%64 == 11:
		return kindSweep
	}
	return kindHit
}

// serveSize dimensions the corpus configs; they are small so that the
// HTTP and store paths, not simulation, dominate the loop.
type serveSize struct {
	warmup, horizon         int64
	missWarmup, missHorizon int64
}

var serveSizes = map[string]serveSize{
	"full": {warmup: 100, horizon: 600, missWarmup: 50, missHorizon: 300},
	"tiny": {warmup: 50, horizon: 200, missWarmup: 20, missHorizon: 100},
}

// corpusBases are the two service configs the corpus crosses with loads
// and seeds.
func corpusBases() []core.Config {
	return []core.Config{
		{Network: core.NetworkTree, Algorithm: core.AlgAdaptive, VCs: 2, K: 4, N: 2, Pattern: core.PatternUniform},
		{Network: core.NetworkCube, Algorithm: core.AlgDuato, VCs: 4, K: 4, N: 2, Pattern: core.PatternUniform},
	}
}

func corpusLoads() []float64 {
	loads := make([]float64, 8)
	for i := range loads {
		loads[i] = float64(i+1) / 10
	}
	return loads
}

// ref is a corpus entry with the reference response captured when the
// store was filled.
type ref struct {
	body []byte // request body
	fp   string
	resp []byte // response body
	etag string
	rec  serve.RunResponse
}

// serviceEnv is a running in-process service with its warm corpus.
type serviceEnv struct {
	st      *store.Store
	srv     *http.Server
	served  chan struct{}
	url     string
	client  *http.Client
	corpus  []*ref
	sweeps  []*ref
	cleanup func()
}

func (e *serviceEnv) close() error {
	e.client.CloseIdleConnections()
	e.srv.Close()
	<-e.served
	err := e.st.Close()
	e.cleanup()
	return err
}

// startService opens a fresh store, serves it on loopback and fills the
// corpus through the service, capturing each reference response.
func startService(size string, seed uint64, clients int) (*serviceEnv, error) {
	dir, cleanup, err := workDir("serve")
	if err != nil {
		return nil, err
	}
	st, err := store.Open(dir)
	if err != nil {
		cleanup()
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		st.Close()
		cleanup()
		return nil, err
	}
	svc := serve.New(st, serve.Options{Workers: clients, Queue: clients})
	e := &serviceEnv{
		st: st, srv: &http.Server{Handler: svc.Handler()}, served: make(chan struct{}),
		url: "http://" + ln.Addr().String(), cleanup: cleanup,
		client: &http.Client{Transport: &http.Transport{MaxIdleConns: 2 * clients, MaxIdleConnsPerHost: 2 * clients}},
	}
	go func() {
		defer close(e.served)
		e.srv.Serve(ln)
	}()
	if err := e.fill(size, seed); err != nil {
		e.close()
		return nil, err
	}
	return e, nil
}

// fill posts every corpus config once, each a miss, and then each sweep
// over the corpus loads, each a hit.
func (e *serviceEnv) fill(size string, seed uint64) error {
	sz := serveSizes[size]
	// The second corpus seed, 6 to 10, is also one no other workload
	// seed's corpus uses.
	seeds := []uint64{simSeed(seed), simSeed(seed) + heldOutSimSeed}
	for _, base := range corpusBases() {
		for _, s := range seeds {
			cfg := base
			cfg.Seed, cfg.Warmup, cfg.Horizon = s, sz.warmup, sz.horizon
			for _, l := range corpusLoads() {
				c := cfg
				c.Load = l
				r, err := e.capture("/v1/run", c, serve.CacheMiss)
				if err != nil {
					return err
				}
				e.corpus = append(e.corpus, r)
			}
			r, err := e.capture("/v1/sweep", serve.SweepSpec{Config: cfg, Loads: corpusLoads()}, serve.CacheHit)
			if err != nil {
				return err
			}
			e.sweeps = append(e.sweeps, r)
		}
	}
	return nil
}

func (e *serviceEnv) capture(path string, v any, cache string) (*ref, error) {
	body, err := json.Marshal(v)
	if err != nil {
		return nil, err
	}
	resp, err := e.client.Post(e.url+path, "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK || resp.Header.Get("X-Smart-Cache") != cache {
		return nil, fmt.Errorf("filling %s: status %d, cache %q: %s", path, resp.StatusCode, resp.Header.Get("X-Smart-Cache"), data)
	}
	r := &ref{body: body, resp: data, etag: resp.Header.Get("ETag")}
	if path == "/v1/run" {
		if err := json.Unmarshal(data, &r.rec); err != nil {
			return nil, err
		}
		r.fp = r.rec.Fingerprint
	}
	return r, nil
}

// missConfig is the k-th config of the run that the store has never
// seen: a small tree with a seed derived from the workload seed.
func missConfig(size string, seed uint64, k int64) core.Config {
	sz := serveSizes[size]
	return core.Config{
		Network: core.NetworkTree, Algorithm: core.AlgAdaptive, VCs: 1, K: 4, N: 2,
		Pattern: core.PatternUniform, Load: 0.3,
		Seed:   1000 + (splitmix(seed)>>24)<<20 + uint64(k),
		Warmup: sz.missWarmup, Horizon: sz.missHorizon,
	}
}

// loopOut is what a closed loop measured.
type loopOut struct {
	wall    time.Duration
	seconds float64
	// perSecond counts the requests completed in each second of the loop.
	perSecond []int64
	requests  int64
	failed    int64
	lat       map[string][]float64 // ms by kind
	failures  []string
	cycles    int64 // simulated by misses
}

// rate is the median over the loop's whole seconds of the requests
// completed in each, which a stall in one second moves less than the
// mean; a loop shorter than a second reports the mean.
func (l loopOut) rate() float64 {
	var per []float64
	for sec, c := range l.perSecond {
		if float64(sec+1) <= l.seconds {
			per = append(per, float64(c))
		}
	}
	if len(per) == 0 {
		return float64(l.requests) / l.wall.Seconds()
	}
	return median(per)
}

func (l loopOut) all() []float64 {
	var out []float64
	for _, k := range requestKinds {
		out = append(out, l.lat[k]...)
	}
	return out
}

// sequence hands out the indices of the request sequence to the
// clients of one service.
type sequence struct{ next atomic.Int64 }

func (s *sequence) take() int64 { return s.next.Add(1) - 1 }

// closedLoop runs clients closed-loop clients until seconds elapse,
// taking requests from seq.
func (e *serviceEnv) closedLoop(p params, clients int, seconds float64, seq *sequence, rec *recorder) loopOut {
	var mu sync.Mutex
	out := loopOut{lat: map[string][]float64{}, seconds: seconds}
	deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			lat := map[string][]float64{}
			var perSecond []int64
			var n, bad, cycles int64
			var fails []string
			for time.Now().Before(deadline) {
				i := seq.take()
				kind := kindOf(i)
				var err error
				var run string
				if rec != nil {
					run = fmt.Sprintf("%s-%d", kind, i)
				}
				t := time.Now()
				rec.do("serve."+kind, run, 0, func(int64) { err = e.issue(p, kind, i) })
				lat[kind] = append(lat[kind], float64(time.Since(t).Nanoseconds())/1e6)
				sec := int(time.Since(start) / time.Second)
				for len(perSecond) <= sec {
					perSecond = append(perSecond, 0)
				}
				perSecond[sec]++
				n++
				if kind == kindMiss {
					cycles += serveSizes[p.size].missHorizon
				}
				if err != nil {
					bad++
					if len(fails) < 5 {
						fails = append(fails, fmt.Sprintf("request %d (%s): %v", i, kind, err))
					}
				}
			}
			mu.Lock()
			for k, v := range lat {
				out.lat[k] = append(out.lat[k], v...)
			}
			out.requests += n
			for sec, c := range perSecond {
				for len(out.perSecond) <= sec {
					out.perSecond = append(out.perSecond, 0)
				}
				out.perSecond[sec] += c
			}
			out.failed += bad
			out.cycles += cycles
			out.failures = append(out.failures, fails...)
			mu.Unlock()
		}()
	}
	wg.Wait()
	out.wall = time.Since(start)
	return out
}

// issue sends request i of the sequence and verifies the answer.
func (e *serviceEnv) issue(p params, kind string, i int64) error {
	pick := func(n int) int { return int(splitmix(p.seed^uint64(i)*0x2545f4914f6cdd1d) % uint64(n)) }
	switch kind {
	case kindMiss:
		cfg := missConfig(p.size, p.seed, i)
		body, err := json.Marshal(cfg)
		if err != nil {
			return err
		}
		status, hdr, data, err := e.do(http.MethodPost, "/v1/run", body, "")
		if err != nil {
			return err
		}
		return checkMiss(cfg, status, hdr, data)
	case kindSweep:
		r := e.sweeps[pick(len(e.sweeps))]
		return e.expect(http.MethodPost, "/v1/sweep", r.body, "", r, http.StatusOK)
	case kindResult:
		r := e.corpus[pick(len(e.corpus))]
		return e.expect(http.MethodGet, "/v1/result/"+r.fp, nil, "", r, http.StatusOK)
	case kindNotModified:
		r := e.corpus[pick(len(e.corpus))]
		return e.expect(http.MethodPost, "/v1/run", r.body, r.etag, r, http.StatusNotModified)
	default:
		r := e.corpus[pick(len(e.corpus))]
		return e.expect(http.MethodPost, "/v1/run", r.body, "", r, http.StatusOK)
	}
}

// expect checks a cached answer against its reference: the status, the
// ETag and, for 200, the byte-identical body served from cache.
func (e *serviceEnv) expect(method, path string, body []byte, inm string, r *ref, want int) error {
	status, hdr, data, err := e.do(method, path, body, inm)
	if err != nil {
		return err
	}
	if status != want {
		return fmt.Errorf("status %d, want %d", status, want)
	}
	if hdr.Get("ETag") != r.etag {
		return fmt.Errorf("ETag %s, reference %s", hdr.Get("ETag"), r.etag)
	}
	if want == http.StatusOK {
		if c := hdr.Get("X-Smart-Cache"); c != serve.CacheHit {
			return fmt.Errorf("cache status %q, want hit", c)
		}
		if !bytes.Equal(data, r.resp) {
			return fmt.Errorf("body differs from the reference for %s", path)
		}
	}
	return nil
}

// checkMiss verifies a fresh execution: a miss whose record answers the
// posted config.
func checkMiss(cfg core.Config, status int, hdr http.Header, data []byte) error {
	if status != http.StatusOK {
		return fmt.Errorf("status %d: %s", status, data)
	}
	if c := hdr.Get("X-Smart-Cache"); c != serve.CacheMiss {
		return fmt.Errorf("cache status %q, want miss", c)
	}
	var rr serve.RunResponse
	if err := json.Unmarshal(data, &rr); err != nil {
		return err
	}
	// The service stamps its default watchdog onto configs without one.
	full := cfg
	full.WatchdogCycles = resilience.DefaultWatchdogCycles
	if fp := full.WithDefaults().Fingerprint(); rr.Fingerprint != fp || rr.Record.Fingerprint != fp {
		return fmt.Errorf("answered fingerprint %s, posted %s", rr.Fingerprint, fp)
	}
	if rr.Record.Failure != "" || rr.Record.Cycles != cfg.Horizon {
		return fmt.Errorf("record failure %q after %d cycles", rr.Record.Failure, rr.Record.Cycles)
	}
	if hdr.Get("ETag") != `"`+rr.Digest+`"` {
		return fmt.Errorf("ETag %s does not name digest %s", hdr.Get("ETag"), rr.Digest)
	}
	return nil
}

func (e *serviceEnv) do(method, path string, body []byte, inm string) (int, http.Header, []byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, e.url+path, rd)
	if err != nil {
		return 0, nil, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if inm != "" {
		req.Header.Set("If-None-Match", inm)
	}
	resp, err := e.client.Do(req)
	if err != nil {
		return 0, nil, nil, err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	return resp.StatusCode, resp.Header, data, err
}

// scrape reads the service's /metrics counters.
func (e *serviceEnv) scrape() (map[string]float64, error) {
	status, _, data, err := e.do(http.MethodGet, "/metrics", nil, "")
	if err != nil {
		return nil, err
	}
	if status != http.StatusOK {
		return nil, fmt.Errorf("/metrics status %d", status)
	}
	out := map[string]float64{}
	sc := bufio.NewScanner(bytes.NewReader(data))
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "#") {
			continue
		}
		name, val, ok := strings.Cut(line, " ")
		if !ok {
			continue
		}
		v, err := strconv.ParseFloat(val, 64)
		if err != nil {
			return nil, fmt.Errorf("/metrics line %q: %w", line, err)
		}
		out[name] = v
	}
	return out, sc.Err()
}

// serveMixed is the serve-mixed workload. Set-up starts the service over
// a fresh store and fills the corpus through it (setupSamples times; the
// median is reported and the last service is kept); the measured phase
// is the closed loop.
func serveMixed(p params) (*report, error) {
	rep := newReport(p.trace)
	clients := workers()
	var setups []float64
	var env *serviceEnv
	for i := 0; i < setupSamples; i++ {
		if env != nil {
			if err := env.close(); err != nil {
				return nil, err
			}
		}
		runtime.GC()
		start := time.Now()
		var err error
		if env, err = startService(p.size, p.seed, clients); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	rep.set("setup_s", median(setups))
	rep.ops(int64(len(env.corpus)+len(env.sweeps)), 0)

	var seq sequence
	if p.trace {
		err := tracedServe(p, rep, env, clients, &seq)
		if cerr := env.close(); err == nil {
			err = cerr
		}
		return rep, err
	}
	out := env.closedLoop(p, clients, p.seconds, &seq, nil)
	rep.ops(out.requests, out.failed)
	rep.failures = append(rep.failures, out.failures...)
	opP50 := median(out.all())
	rep.aliases["misses"] = float64(len(out.lat[kindMiss]))
	out.lat = nil
	rep.set("heap_live_mb", liveHeapMB())
	if err := env.close(); err != nil {
		return nil, err
	}
	rep.set("work_per_s", out.rate())
	rep.set("op_p50_ms", opP50)
	rep.aliases["req_per_s"] = out.rate()
	rep.aliases["requests"] = float64(out.requests)
	rep.notef("serve-mixed: %d requests from %d clients in %.2f s", out.requests, clients, out.wall.Seconds())
	return rep, nil
}

// tracedServe splits the measured time between an untraced loop (the
// tracing-overhead base) and a traced one with a span per request, then
// times the store and the cached core path directly.
func tracedServe(p params, rep *report, env *serviceEnv, clients int, seq *sequence) error {
	plain := env.closedLoop(p, clients, p.seconds/2, seq, nil)
	rep.ops(plain.requests, plain.failed)
	rep.failures = append(rep.failures, plain.failures...)

	before, err := env.scrape()
	if err != nil {
		return err
	}
	msBefore := memStats()
	out := env.closedLoop(p, clients, p.seconds/2, seq, rep.rec)
	msAfter := memStats()
	rep.ops(out.requests, out.failed)
	rep.failures = append(rep.failures, out.failures...)
	after, err := env.scrape()
	if err != nil {
		return err
	}
	delta := func(name string) float64 { return after[name] - before[name] }

	rec := rep.rec
	recs := make([]obs.RunRecord, len(env.corpus))
	for i, r := range env.corpus {
		recs[i] = r.rec.Record
	}
	getUS, putUS, err := storeTimings(rec, &rep.tally, env.st, recs, 200)
	if err != nil {
		return err
	}
	// core.RunWith against the warm store: the library's cached path,
	// without HTTP.
	var replayUS []float64
	for round := 0; round < 20; round++ {
		for _, r := range env.corpus {
			var cfg core.Config
			if err := json.Unmarshal(r.body, &cfg); err != nil {
				return err
			}
			cfg.WatchdogCycles = resilience.DefaultWatchdogCycles
			var res core.Result
			var rerr error
			sp := rec.do("core.replay", "replay", 0, func(int64) { res, rerr = core.RunWith(cfg, core.Options{Store: env.st}) })
			replayUS = append(replayUS, sp.us())
			rep.check(rerr == nil && res.Sample == r.rec.Record.Sample, "replay of %s: %v", r.fp, rerr)
		}
	}

	hitP50 := median(out.lat[kindHit])
	stats := env.st.Stats()
	rep.set("store.get_us_p50", quantile(getUS, 0.5))
	rep.set("store.get_us_p99", quantile(getUS, 0.99))
	rep.set("store.put_us", median(putUS))
	rep.set("store.bytes_per_record", float64(stats.Bytes)/float64(stats.Records))
	rep.set("serve.http_overhead_us", hitP50*1e3-quantile(getUS, 0.5))
	rep.set("serve.hit_ms", hitP50)
	rep.set("serve.hit_p99_ms", quantile(out.lat[kindHit], 0.99))
	rep.set("serve.miss_ms", median(out.lat[kindMiss]))
	rep.set("serve.not_modified_ms", median(out.lat[kindNotModified]))
	rep.set("serve.result_ms", median(out.lat[kindResult]))
	rep.set("serve.sweep_ms", median(out.lat[kindSweep]))
	hits, misses, coalesced := delta("smart_serve_cache_hits_total"), delta("smart_serve_cache_misses_total"), delta("smart_serve_cache_coalesced_total")
	rep.set("serve.hit_ratio", hits/(hits+misses+coalesced))
	rep.set("serve.requests", delta("smart_serve_requests_total"))
	rep.set("serve.misses", misses)
	rep.set("serve.coalesced", coalesced)
	rep.set("serve.busy", delta("smart_serve_busy_total"))
	rep.set("serve.failures", delta("smart_serve_errors_total"))
	rep.set("core.replay_us", median(replayUS))
	rep.set("go.gc_cycles", float64(msAfter.NumGC-msBefore.NumGC))
	perCycle := 0.0
	if out.cycles > 0 {
		perCycle = float64(msAfter.TotalAlloc-msBefore.TotalAlloc) / float64(out.cycles)
	}
	rep.set("go.alloc_bytes_per_cycle", perCycle)
	rep.set("trace.work_per_s_delta", out.rate()-plain.rate())
	zeroStages(rep)
	rep.zero("core.assemble_ms", "core.overhead_share", "core.grid_idle_share", "core.paper_sat_mae")
	rep.aliases["hit_p50_ms"] = hitP50
	rep.aliases["untraced_req_per_s"] = plain.rate()
	rep.aliases["traced_req_per_s"] = out.rate()
	return nil
}

// zeroServe records that a workload sends no HTTP requests.
func zeroServe(rep *report) {
	for _, d := range perLayer {
		if strings.HasPrefix(d.name, "serve.") {
			rep.values[d.name] = 0
		}
	}
}

// zeroStages records that no engine stage is reachable from the
// benchmark: the service assembles and runs its simulations itself.
func zeroStages(rep *report) {
	for _, d := range perLayer {
		if strings.HasPrefix(d.name, "wormhole.") || strings.HasPrefix(d.name, "traffic.") || d.name == "sim.shard_speedup" {
			rep.values[d.name] = 0
		}
	}
}
