package telemetry

import (
	"encoding/json"
	"net/http"
	"strconv"
	"sync"

	"smart/internal/obs"
)

// Server exposes live telemetry over HTTP: /metrics serves the
// Prometheus text exposition format, /telemetry.json the same state as
// JSON. Samplers attach as runs start; the server renders whatever is
// attached at request time, so a scrape mid-sweep sees the in-flight
// runs' live gauges plus grid-level progress. Rendering order follows
// attach order (never map iteration), so two scrapes of the same state
// produce identical bodies.
type Server struct {
	//smartlint:allow concurrency — HTTP handlers run on net/http goroutines; the mutex guards sampler registration
	mu       sync.Mutex
	samplers []*Sampler
	progress *obs.Progress
	// runsDone/runsFailed are cumulative across the process, advancing
	// as samplers finish.
	runsDone, runsFailed int64
}

// NewServer returns an empty telemetry server.
func NewServer() *Server { return &Server{} }

// Attach registers a run's sampler for serving. Finished samplers stay
// attached (bounded by the grid size) so late scrapes can still read
// terminal state; RunDone moves their counts into the cumulative
// totals.
func (s *Server) Attach(sp *Sampler) {
	if s == nil || sp == nil {
		return
	}
	s.mu.Lock()
	s.samplers = append(s.samplers, sp)
	s.mu.Unlock()
}

// Detach removes a finished run's sampler and folds it into the
// cumulative run counters.
func (s *Server) Detach(sp *Sampler, failed bool) {
	if s == nil || sp == nil {
		return
	}
	s.mu.Lock()
	for i, have := range s.samplers {
		if have == sp {
			s.samplers = append(s.samplers[:i], s.samplers[i+1:]...)
			break
		}
	}
	s.runsDone++
	if failed {
		s.runsFailed++
	}
	s.mu.Unlock()
}

// SetProgress wires the grid-level progress tracker (optional).
func (s *Server) SetProgress(p *obs.Progress) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.progress = p
	s.mu.Unlock()
}

// Handler returns the HTTP mux serving /metrics and /telemetry.json.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", s.serveMetrics)
	mux.HandleFunc("/telemetry.json", s.serveJSON)
	return mux
}

// snapshotState collects a consistent view for rendering.
type serverState struct {
	samplers []*Sampler
	progress obs.Snapshot
	hasProg  bool
	done     int64
	failed   int64
}

func (s *Server) state() serverState {
	s.mu.Lock()
	st := serverState{
		samplers: append([]*Sampler(nil), s.samplers...),
		done:     s.runsDone,
		failed:   s.runsFailed,
	}
	if s.progress != nil {
		st.progress = s.progress.Snapshot()
		st.hasProg = true
	}
	s.mu.Unlock()
	return st
}

// runMetric is one per-run /metrics family and how to read its value
// from a run's latest point.
type runMetric struct {
	name, kind, help string
	// faultsOnly families render only for faulted runs, so fault-free
	// runs expose exactly the families they did before fault injection.
	faultsOnly bool
	value      func(last Point, events int) int64
}

// runMetrics lists the per-run families in exposition order.
var runMetrics = []runMetric{
	{"smart_run_flits_injected_total", obs.Counter, "Flits injected since fabric construction.", false,
		func(p Point, _ int) int64 { return p.FlitsInjected }},
	{"smart_run_flits_delivered_total", obs.Counter, "Flits delivered since fabric construction.", false,
		func(p Point, _ int) int64 { return p.FlitsDelivered }},
	{"smart_run_headers_routed_total", obs.Counter, "Routing decisions won.", false,
		func(p Point, _ int) int64 { return p.HeadersRouted }},
	{"smart_run_credit_stalls_total", obs.Counter, "Send attempts lost to exhausted credits.", false,
		func(p Point, _ int) int64 { return p.CreditStalls }},
	{"smart_run_fault_stalls_total", obs.Counter, "Transfer opportunities suppressed by fault masks.", true,
		func(p Point, _ int) int64 { return p.FaultStalls }},
	{"smart_run_rerouted_total", obs.Counter, "Routing decisions diverted around fault masks.", true,
		func(p Point, _ int) int64 { return p.Rerouted }},
	{"smart_run_cycle", obs.Gauge, "Cycle of the latest sample.", false,
		func(p Point, _ int) int64 { return p.Cycle }},
	{"smart_run_in_flight", obs.Gauge, "Flits inside the network.", false,
		func(p Point, _ int) int64 { return p.InFlight }},
	{"smart_run_queued", obs.Gauge, "Packets waiting at sources.", false,
		func(p Point, _ int) int64 { return p.Queued }},
	{"smart_run_occupied_lanes", obs.Gauge, "Lanes holding at least one flit.", false,
		func(p Point, _ int) int64 { return int64(p.OccupiedLanes) }},
	{"smart_run_buffered_flits", obs.Gauge, "Flits buffered in lanes.", false,
		func(p Point, _ int) int64 { return int64(p.BufferedFlits) }},
	{"smart_run_max_nic_queue", obs.Gauge, "Deepest source queue.", false,
		func(p Point, _ int) int64 { return p.MaxNICQueue }},
	{"smart_run_events", obs.Gauge, "Congestion events recorded.", false,
		func(_ Point, events int) int64 { return int64(events) }},
	{"smart_run_down_links", obs.Gauge, "Physical links currently fault-masked.", true,
		func(p Point, _ int) int64 { return int64(p.DownLinks) }},
	{"smart_run_down_routers", obs.Gauge, "Routers currently fault-masked.", true,
		func(p Point, _ int) int64 { return int64(p.DownRouters) }},
}

func (s *Server) serveMetrics(w http.ResponseWriter, r *http.Request) {
	st := s.state()
	var x obs.Exposition
	x.Family("smart_runs_completed_total", obs.Counter, "Runs finished by this process.").Int(st.done)
	x.Family("smart_runs_failed_total", obs.Counter, "Runs that finished with a failure.").Int(st.failed)
	x.Family("smart_runs_active", obs.Gauge, "Runs currently recording telemetry.").Int(int64(len(st.samplers)))
	if st.hasProg {
		x.Family("smart_grid_completed", obs.Gauge, "Grid points completed.").Int(st.progress.Completed)
		x.Family("smart_grid_total", obs.Gauge, "Grid points in the sweep.").Int(st.progress.Total)
		x.Family("smart_grid_cycles_total", obs.Counter, "Simulated cycles across completed runs.").Int(st.progress.Cycles)
		x.Family("smart_grid_cycles_per_second", obs.Gauge, "Aggregate simulation rate.").Float(st.progress.CyclesPerSec)
	}

	// Gather each sampled run's latest point once, in attach order.
	type runView struct {
		labels  []string
		last    Point
		names   []string
		events  int
		faulted bool
	}
	views := make([]runView, 0, len(st.samplers))
	for _, sp := range st.samplers {
		points, events := sp.Snapshot()
		if len(points) == 0 {
			continue
		}
		run := sp.Run()
		views = append(views, runView{
			labels: []string{"batch", run.Batch, "index", strconv.Itoa(run.Index), "label", run.Label,
				"pattern", run.Pattern, "load", strconv.FormatFloat(run.Load, 'g', -1, 64)},
			last:    points[len(points)-1],
			names:   sp.ClassNames(),
			events:  len(events),
			faulted: sp.HasFaults(),
		})
	}
	for _, m := range runMetrics {
		x.Family(m.name, m.kind, m.help)
		for _, v := range views {
			if !m.faultsOnly || v.faulted {
				x.Int(m.value(v.last, v.events), v.labels...)
			}
		}
	}
	x.Family("smart_run_class_flits", obs.Gauge, "Flits moved per channel class in the last sample interval.")
	for _, v := range views {
		for i, n := range v.names {
			if i >= len(v.last.ClassFlits) {
				break
			}
			x.Int(v.last.ClassFlits[i], append(v.labels[:len(v.labels):len(v.labels)], "class", n)...)
		}
	}
	x.Serve(w)
}

// jsonState is the /telemetry.json response body.
type jsonState struct {
	RunsActive    int       `json:"runs_active"`
	RunsCompleted int64     `json:"runs_completed"`
	RunsFailed    int64     `json:"runs_failed"`
	Grid          *gridJSON `json:"grid,omitempty"`
	Runs          []runJSON `json:"runs"`
}

type gridJSON struct {
	Completed    int64   `json:"completed"`
	Total        int64   `json:"total"`
	Cycles       int64   `json:"cycles"`
	CyclesPerSec float64 `json:"cycles_per_sec"`
}

type runJSON struct {
	RunInfo
	Every      int64    `json:"every"`
	ClassNames []string `json:"class_names,omitempty"`
	Points     []Point  `json:"points"`
	Events     []Event  `json:"events,omitempty"`
}

func (s *Server) serveJSON(w http.ResponseWriter, r *http.Request) {
	st := s.state()
	body := jsonState{
		RunsActive:    len(st.samplers),
		RunsCompleted: st.done,
		RunsFailed:    st.failed,
		Runs:          []runJSON{},
	}
	if st.hasProg {
		body.Grid = &gridJSON{
			Completed:    st.progress.Completed,
			Total:        st.progress.Total,
			Cycles:       st.progress.Cycles,
			CyclesPerSec: st.progress.CyclesPerSec,
		}
	}
	for _, sp := range st.samplers {
		points, events := sp.Snapshot()
		body.Runs = append(body.Runs, runJSON{
			RunInfo:    sp.Run(),
			Every:      sp.Every(),
			ClassNames: sp.ClassNames(),
			Points:     points,
			Events:     events,
		})
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(body)
}
