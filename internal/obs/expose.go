package obs

import (
	"net"
	"net/http"
	"strconv"
	"strings"
	"time"
)

// Metric kinds of an Exposition family.
const (
	Counter = "counter"
	Gauge   = "gauge"
)

// Exposition builds a Prometheus text-format (version 0.0.4) body, the
// one /metrics format of the telemetry endpoint and the sweep service.
// Families appear in call order. A family's HELP and TYPE lines are
// written just before its first sample, so a family that gets no
// samples is left out of the body.
type Exposition struct {
	b strings.Builder
	// name, kind and help describe the current family; headed reports
	// whether its HELP/TYPE lines are already in the body.
	name, kind, help string
	headed           bool
}

// Family starts a new metric family; the samples written next belong
// to it. It returns e so a one-sample family reads as one line.
func (e *Exposition) Family(name, kind, help string) *Exposition {
	e.name, e.kind, e.help, e.headed = name, kind, help, false
	return e
}

// Int writes one integer sample of the current family. labels
// alternates label names and values.
func (e *Exposition) Int(v int64, labels ...string) {
	e.sample(labels)
	e.b.WriteString(strconv.FormatInt(v, 10))
	e.b.WriteByte('\n')
}

// Float writes one sample in the shortest %g form.
func (e *Exposition) Float(v float64, labels ...string) {
	e.sample(labels)
	e.b.WriteString(strconv.FormatFloat(v, 'g', -1, 64))
	e.b.WriteByte('\n')
}

// labelEscaper escapes a label value the way the text format defines:
// backslash, double quote and line feed, and nothing else.
var labelEscaper = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)

// sample writes the family header if due, then the sample's name and
// label set up to the value.
func (e *Exposition) sample(labels []string) {
	if !e.headed {
		e.b.WriteString("# HELP " + e.name + " " + e.help + "\n")
		e.b.WriteString("# TYPE " + e.name + " " + e.kind + "\n")
		e.headed = true
	}
	e.b.WriteString(e.name)
	for i := 0; i+1 < len(labels); i += 2 {
		if i == 0 {
			e.b.WriteByte('{')
		} else {
			e.b.WriteByte(',')
		}
		e.b.WriteString(labels[i] + `="`)
		labelEscaper.WriteString(&e.b, labels[i+1])
		e.b.WriteByte('"')
	}
	if len(labels) > 1 {
		e.b.WriteByte('}')
	}
	e.b.WriteByte(' ')
}

// Serve answers an HTTP request with the body.
func (e *Exposition) Serve(w http.ResponseWriter) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	w.Write([]byte(e.b.String()))
}

// readHeaderTimeout bounds how long a client may take to send its
// request headers, so an idle connection cannot hold a listener slot.
const readHeaderTimeout = 10 * time.Second

// Listen binds addr and serves h from a background goroutine until the
// listener is closed or the server shut down. It returns the server and
// the bound listener, whose address reports the port ":0" picked. The
// server sets no WriteTimeout: a service cache miss runs its simulation
// inline in the handler, for as long as the run takes.
func Listen(addr string, h http.Handler) (*http.Server, net.Listener, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, nil, err
	}
	srv := &http.Server{Handler: h, ReadHeaderTimeout: readHeaderTimeout}
	//smartlint:allow concurrency — the HTTP loop must accept while the simulation or request handlers run
	go srv.Serve(ln)
	return srv, ln, nil
}
