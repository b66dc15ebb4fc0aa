// Command loadtest drives the sweep service (cmd/serve) with a
// deterministic closed-loop HTTP workload and reports latency and
// throughput as a smart/loadtest/v1 JSON record.
//
// The corpus is a seeded sweep grid — one base config crossed with
// -loads load points and -seeds seeds — so every invocation issues the
// same request bodies in the same per-client discipline. The cold
// phase POSTs each corpus config once (every request a miss or
// coalesced execution, filling the store); the warm phase then issues
// -requests POSTs round-robin over the corpus, every one of which must
// be a cache hit. Each warm response is verified against the cold
// response for its fingerprint: same ETag, byte-identical body (the
// cache-status header is excluded by construction — it is a header).
// Every 16th warm request revalidates with If-None-Match and must get
// 304 Not Modified.
//
// With -url the harness targets a running server; without it a service
// is started in-process over a throwaway store, so
//
//	loadtest -requests 5000 -clients 8
//
// is a self-contained benchmark. Exit status is 1 if any verification
// fails.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"smart/internal/core"
	"smart/internal/obs"
	"smart/internal/serve"
	"smart/internal/store"
)

// Report is the committed benchmark record.
type Report struct {
	Schema    string `json:"schema"`
	Timestamp string `json:"timestamp"`
	GoVersion string `json:"go_version"`
	Target    string `json:"target"`
	Corpus    int    `json:"corpus"`
	Clients   int    `json:"clients"`
	Cold      Phase  `json:"cold"`
	Warm      Phase  `json:"warm"`
}

// Phase summarizes one load phase.
type Phase struct {
	Requests int     `json:"requests"`
	WallMS   float64 `json:"wall_ms"`
	ReqPerS  float64 `json:"req_per_sec"`
	P50MS    float64 `json:"p50_ms"`
	P99MS    float64 `json:"p99_ms"`
}

// entry is one corpus request plus the reference response captured in
// the cold phase.
type entry struct {
	body     string
	bodyHash string
	etag     string
}

const schema = "smart/loadtest/v1"

func main() {
	url := flag.String("url", "", "base URL of a running serve instance (empty: start one in-process)")
	dir := flag.String("store", "", "store directory for the in-process server (empty: a temp dir)")
	clients := flag.Int("clients", 8, "concurrent closed-loop clients")
	requests := flag.Int("requests", 2000, "warm-phase requests across all clients")
	loadsN := flag.Int("loads", 10, "load points in the corpus grid")
	seedsN := flag.Int("seeds", 2, "seeds in the corpus grid")
	warmup := flag.Int64("warmup", 200, "config warm-up cycles (small: the corpus must execute quickly)")
	horizon := flag.Int64("horizon", 1000, "config horizon cycles")
	jsonPath := flag.String("json", "", "write the report JSON to this file (default stdout)")
	flag.Parse()

	corpus := buildCorpus(*loadsN, *seedsN, *warmup, *horizon)
	target := *url
	if target == "" {
		shutdown, addr, err := startInProcess(*dir, *clients)
		if err != nil {
			fmt.Fprintln(os.Stderr, "loadtest:", err)
			os.Exit(1)
		}
		defer shutdown()
		target = addr
	}
	target = strings.TrimRight(target, "/")
	client := &http.Client{Transport: &http.Transport{
		MaxIdleConns:        *clients * 2,
		MaxIdleConnsPerHost: *clients * 2,
	}}

	cold, err := runPhase(client, target, corpus, *clients, len(corpus), true)
	if err != nil {
		fmt.Fprintln(os.Stderr, "loadtest: cold phase:", err)
		os.Exit(1)
	}
	warm, err := runPhase(client, target, corpus, *clients, *requests, false)
	if err != nil {
		fmt.Fprintln(os.Stderr, "loadtest: warm phase:", err)
		os.Exit(1)
	}

	rep := Report{
		Schema: schema,
		//smartlint:allow wallclock — timestamping the committed benchmark record; not simulation time
		Timestamp: time.Now().UTC().Format(time.RFC3339),
		GoVersion: runtime.Version(),
		Target:    target,
		Corpus:    len(corpus),
		Clients:   *clients,
		Cold:      cold,
		Warm:      warm,
	}
	out, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "loadtest:", err)
		os.Exit(1)
	}
	out = append(out, '\n')
	if *jsonPath != "" {
		if err := os.WriteFile(*jsonPath, out, 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "loadtest:", err)
			os.Exit(1)
		}
	} else {
		os.Stdout.Write(out)
	}
	fmt.Fprintf(os.Stderr, "loadtest: cold %d req, %.1f req/s, p50 %.2f ms, p99 %.2f ms\n",
		cold.Requests, cold.ReqPerS, cold.P50MS, cold.P99MS)
	fmt.Fprintf(os.Stderr, "loadtest: warm %d req, %.1f req/s, p50 %.2f ms, p99 %.2f ms\n",
		warm.Requests, warm.ReqPerS, warm.P50MS, warm.P99MS)
}

// buildCorpus crosses the base config with the load grid and seeds.
// The corpus is a pure function of the flags, so two invocations issue
// identical request bodies in identical order.
func buildCorpus(loads, seeds int, warmup, horizon int64) []*entry {
	var corpus []*entry
	for seed := 1; seed <= seeds; seed++ {
		for i := 0; i < loads; i++ {
			cfg := core.Config{
				Network: core.NetworkTree, Algorithm: core.AlgAdaptive, VCs: 2, K: 4, N: 2,
				Pattern: core.PatternUniform,
				Load:    0.9 * float64(i+1) / float64(loads),
				Seed:    uint64(seed),
				Warmup:  warmup, Horizon: horizon,
			}
			body, err := json.Marshal(cfg)
			if err != nil {
				panic(err) // Config is a plain value struct
			}
			corpus = append(corpus, &entry{body: string(body)})
		}
	}
	return corpus
}

// startInProcess opens a store and serves on an ephemeral port,
// returning a shutdown func and the base URL.
func startInProcess(dir string, clients int) (func(), string, error) {
	if dir == "" {
		tmp, err := os.MkdirTemp("", "loadtest-store-")
		if err != nil {
			return nil, "", err
		}
		dir = tmp
	}
	st, err := store.Open(dir)
	if err != nil {
		return nil, "", err
	}
	svc := serve.New(st, serve.Options{Queue: clients * 2})
	_, ln, err := obs.Listen("127.0.0.1:0", svc.Handler())
	if err != nil {
		st.Close()
		return nil, "", fmt.Errorf("serve: %w", err)
	}
	fmt.Fprintf(os.Stderr, "loadtest: in-process server on http://%s (store %s)\n", ln.Addr(), dir)
	return func() { ln.Close(); st.Close() }, "http://" + ln.Addr().String(), nil
}

// runPhase issues total requests over the corpus from closed-loop
// clients sharing one atomic cursor. In the cold phase each corpus
// entry is requested exactly once and its reference hash and ETag are
// captured; in the warm phase every response must be a cache hit that
// matches its entry's reference byte for byte.
func runPhase(client *http.Client, target string, corpus []*entry, clients, total int, cold bool) (Phase, error) {
	var cursor atomic.Int64
	latencies := make([][]float64, clients)
	errs := make([]error, clients)
	var wg sync.WaitGroup
	elapsed := obs.Stopwatch()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for {
				n := int(cursor.Add(1)) - 1
				if n >= total {
					return
				}
				e := corpus[n%len(corpus)]
				ms, err := issue(client, target, e, n, cold)
				if err != nil {
					errs[c] = fmt.Errorf("request %d: %w", n, err)
					cursor.Store(int64(total)) // stop the other clients
					return
				}
				latencies[c] = append(latencies[c], ms)
			}
		}(c)
	}
	wg.Wait()
	wall := elapsed()
	if err := errors.Join(errs...); err != nil {
		return Phase{}, err
	}
	var all []float64
	for _, l := range latencies {
		all = append(all, l...)
	}
	sort.Float64s(all)
	wallMS := float64(wall.Nanoseconds()) / 1e6
	return Phase{
		Requests: len(all),
		WallMS:   wallMS,
		ReqPerS:  float64(len(all)) / wall.Seconds(),
		P50MS:    percentile(all, 0.50),
		P99MS:    percentile(all, 0.99),
	}, nil
}

// issue performs one request and verifies it, returning its latency in
// milliseconds. Warm request n with n%16 == 3 is a revalidation: it
// sends the entry's ETag and expects 304.
func issue(client *http.Client, target string, e *entry, n int, cold bool) (float64, error) {
	revalidate := !cold && n%16 == 3
	req, err := http.NewRequest(http.MethodPost, target+"/v1/run", strings.NewReader(e.body))
	if err != nil {
		return 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	if revalidate {
		req.Header.Set("If-None-Match", e.etag)
	}
	sw := obs.Stopwatch()
	resp, err := client.Do(req)
	if err != nil {
		return 0, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	ms := float64(sw().Nanoseconds()) / 1e6
	if err != nil {
		return 0, err
	}

	if revalidate {
		if resp.StatusCode != http.StatusNotModified {
			return 0, fmt.Errorf("revalidation status %d, want 304 (body %.200s)", resp.StatusCode, body)
		}
		return ms, nil
	}
	if resp.StatusCode != http.StatusOK {
		return 0, fmt.Errorf("status %d: %.200s", resp.StatusCode, body)
	}
	sum := sha256.Sum256(body)
	hash := hex.EncodeToString(sum[:])
	etag := resp.Header.Get("ETag")
	if cold {
		e.bodyHash, e.etag = hash, etag
		return ms, nil
	}
	if cache := resp.Header.Get("X-Smart-Cache"); cache != serve.CacheHit {
		return 0, fmt.Errorf("warm request was %q, want %q", cache, serve.CacheHit)
	}
	if hash != e.bodyHash {
		return 0, fmt.Errorf("warm body hash %s != cold %s (responses not byte-identical)", hash, e.bodyHash)
	}
	if etag != e.etag {
		return 0, fmt.Errorf("warm ETag %q != cold %q", etag, e.etag)
	}
	return ms, nil
}

// percentile returns the q-quantile of sorted (nearest-rank).
func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	idx := int(q * float64(len(sorted)))
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx]
}
