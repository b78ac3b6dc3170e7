package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"strings"
	"testing"
	"time"

	"mqsched/internal/metrics"
	"mqsched/internal/trace"
)

// TestParseSlides runs mqserver with malformed -slides values: each must
// be a usage error (exit status 2 with a message), never a panic.
func TestParseSlides(t *testing.T) {
	if bad := os.Getenv("MQSERVER_TEST_SLIDES"); bad != "" {
		os.Args = []string{"mqserver", "-addr", "127.0.0.1:0", "-metrics", "", "-slides", bad}
		main()
		return
	}
	for _, bad := range []string{"s:0x100", "a:100xzz", "a:100x200,b"} {
		cmd := exec.Command(os.Args[0], "-test.run=^TestParseSlides$")
		cmd.Env = append(os.Environ(), "MQSERVER_TEST_SLIDES="+bad)
		var stderr bytes.Buffer
		cmd.Stderr = &stderr
		err := cmd.Run()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 2 {
			t.Fatalf("-slides %q: err %v, want exit status 2\n%s", bad, err, stderr.String())
		}
		if out := stderr.String(); strings.Contains(out, "panic:") || !strings.Contains(out, "mqserver: ") {
			t.Fatalf("-slides %q: want a usage message, got\n%s", bad, out)
		}
	}
}

func TestMetricsMux(t *testing.T) {
	reg := metrics.NewRegistry()
	reg.Counter("mqsched_test_total", "a counter").Add(3)

	srv := httptest.NewServer(metricsMux(reg, nil))
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Fatalf("content type %q", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"# HELP mqsched_test_total a counter",
		"# TYPE mqsched_test_total counter",
		"mqsched_test_total 3",
	} {
		if !strings.Contains(string(body), want) {
			t.Errorf("/metrics body missing %q; got:\n%s", want, body)
		}
	}
}

func TestTraceAndPprofEndpoints(t *testing.T) {
	reg := metrics.NewRegistry()
	tr := trace.NewTracer(func() time.Duration { return 0 }, trace.TracerOptions{})
	tr.StartRoot(1, "server", "query").Finish()

	srv := httptest.NewServer(metricsMux(reg, tr))
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/trace")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/trace status %d", resp.StatusCode)
	}
	var ct trace.ChromeTrace
	if err := json.NewDecoder(resp.Body).Decode(&ct); err != nil {
		t.Fatalf("/trace is not valid Chrome trace JSON: %v", err)
	}
	if len(ct.TraceEvents) == 0 {
		t.Fatal("/trace returned no events")
	}

	presp, err := http.Get(srv.URL + "/debug/pprof/cmdline")
	if err != nil {
		t.Fatal(err)
	}
	defer presp.Body.Close()
	if presp.StatusCode != http.StatusOK {
		t.Fatalf("/debug/pprof/cmdline status %d", presp.StatusCode)
	}
}
