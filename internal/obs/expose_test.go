package obs

import (
	"context"
	"io"
	"net/http"
	"testing"
)

// TestListenServesOnEphemeralPort binds ":0", reaches the handler at the
// reported address, and shuts the server down.
func TestListenServesOnEphemeralPort(t *testing.T) {
	srv, ln, err := Listen("127.0.0.1:0", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var x Exposition
		x.Family("smart_test_total", Counter, "A test counter.").Int(3)
		x.Serve(w)
	}))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Shutdown(context.Background())
	if srv.ReadHeaderTimeout <= 0 || srv.WriteTimeout != 0 {
		t.Fatalf("timeouts: read header %v, write %v", srv.ReadHeaderTimeout, srv.WriteTimeout)
	}
	resp, err := http.Get("http://" + ln.Addr().String() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	want := "# HELP smart_test_total A test counter.\n# TYPE smart_test_total counter\nsmart_test_total 3\n"
	if string(body) != want {
		t.Fatalf("body %q, want %q", body, want)
	}
	if _, _, err := Listen(ln.Addr().String(), http.NotFoundHandler()); err == nil {
		t.Fatal("second Listen on a bound address succeeded")
	}
}
