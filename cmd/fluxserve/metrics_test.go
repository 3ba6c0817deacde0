package main

import (
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"os"
	"strconv"
	"strings"
	"sync"
	"testing"

	"fluxquery"
)

// TestMain quiets the access log for every test server in the package:
// newServer captures slog.Default at construction.
func TestMain(m *testing.M) {
	slog.SetDefault(slog.New(slog.NewTextHandler(io.Discard, nil)))
	os.Exit(m.Run())
}

// promSamples is a tiny lexer for the Prometheus text exposition
// format (version 0.0.4). It validates the line grammar — every sample
// belongs to a family announced by # HELP and # TYPE lines, values
// parse as floats — and returns the samples keyed by the full series
// string (name plus label set).
func promSamples(t *testing.T, body string) map[string]float64 {
	t.Helper()
	samples := map[string]float64{}
	typed := map[string]string{}
	helped := map[string]bool{}
	for ln, line := range strings.Split(body, "\n") {
		if line == "" {
			continue
		}
		if rest, ok := strings.CutPrefix(line, "# HELP "); ok {
			name, _, found := strings.Cut(rest, " ")
			if !found {
				t.Fatalf("line %d: HELP without text: %q", ln+1, line)
			}
			helped[name] = true
			continue
		}
		if rest, ok := strings.CutPrefix(line, "# TYPE "); ok {
			name, kind, found := strings.Cut(rest, " ")
			if !found || (kind != "counter" && kind != "gauge" && kind != "histogram") {
				t.Fatalf("line %d: bad TYPE: %q", ln+1, line)
			}
			typed[name] = kind
			continue
		}
		if strings.HasPrefix(line, "#") {
			t.Fatalf("line %d: unknown comment form: %q", ln+1, line)
		}
		series, val, found := cutSample(line)
		if !found {
			t.Fatalf("line %d: not a sample: %q", ln+1, line)
		}
		f, err := strconv.ParseFloat(val, 64)
		if err != nil {
			t.Fatalf("line %d: bad value %q: %v", ln+1, line, err)
		}
		name := series
		if i := strings.IndexByte(name, '{'); i >= 0 {
			name = name[:i]
		}
		// Histogram sample names carry the family name plus a suffix.
		family := name
		for _, suf := range []string{"_bucket", "_sum", "_count"} {
			if base, ok := strings.CutSuffix(name, suf); ok && typed[base] == "histogram" {
				family = base
			}
		}
		if typed[family] == "" || !helped[family] {
			t.Fatalf("line %d: sample %q precedes its HELP/TYPE", ln+1, series)
		}
		if _, dup := samples[series]; dup {
			t.Fatalf("line %d: duplicate series %q", ln+1, series)
		}
		samples[series] = f
	}
	return samples
}

// cutSample splits a sample line into series (name{labels}) and value,
// tolerating spaces inside quoted label values.
func cutSample(line string) (series, value string, ok bool) {
	inQuotes := false
	for i := 0; i < len(line); i++ {
		switch line[i] {
		case '"':
			if i == 0 || line[i-1] != '\\' {
				inQuotes = !inQuotes
			}
		case ' ':
			if !inQuotes {
				return line[:i], line[i+1:], true
			}
		}
	}
	return "", "", false
}

func scrape(t *testing.T, url string) map[string]float64 {
	t.Helper()
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("metrics: %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "version=0.0.4") {
		t.Fatalf("content type = %q, want Prometheus text v0.0.4", ct)
	}
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return promSamples(t, string(b))
}

// TestMetricsExposition: /metrics serves valid exposition covering the
// scan, pipeline, pool and HTTP families, and the pass counters are
// monotone across /eval calls.
func TestMetricsExposition(t *testing.T) {
	withProcs(t, 4)
	srv, ts := newTestServer(t)
	if err := srv.register("q3", testQ3); err != nil {
		t.Fatal(err)
	}
	if err := srv.register("titles", testQT); err != nil {
		t.Fatal(err)
	}

	if code, body := do(t, "POST", ts.URL+"/eval", testDoc(50)); code != 200 {
		t.Fatalf("eval 1: %d %s", code, body)
	}
	first := scrape(t, ts.URL)
	if code, body := do(t, "POST", ts.URL+"/eval", testDoc(50)); code != 200 {
		t.Fatalf("eval 2: %d %s", code, body)
	}
	second := scrape(t, ts.URL)

	for _, series := range []string{
		"flux_scan_passes_total",
		"flux_scan_bytes_total",
		"flux_scan_events_total",
		"flux_dispatch_batches_total",
		"flux_pass_seconds_count",
		`flux_eval_batch_seconds_count{plan="q3"}`,
		`flux_eval_batch_seconds_count{plan="titles"}`,
		`flux_stage_stall_seconds_total{stage="tokenize"}`,
		`flux_ring_peak_occupancy_count{ring="event"}`,
		"flux_pool_inflight",
		"flux_pool_capacity",
		"flux_pool_rejected_total",
		"flux_http_requests_total",
		"flux_http_request_seconds_count",
	} {
		if _, ok := second[series]; !ok {
			t.Errorf("exposition lacks %s", series)
		}
	}
	if first["flux_scan_passes_total"] != 1 || second["flux_scan_passes_total"] != 2 {
		t.Errorf("pass counter not monotone: %v then %v",
			first["flux_scan_passes_total"], second["flux_scan_passes_total"])
	}
	for _, counter := range []string{"flux_scan_bytes_total", "flux_scan_events_total", "flux_http_requests_total"} {
		if second[counter] <= first[counter] {
			t.Errorf("%s not monotone: %v then %v", counter, first[counter], second[counter])
		}
	}
}

// TestMetricsBufmgrSeries: a budgeted server exposes the buffer
// manager's ledger and spill traffic.
func TestMetricsBufmgrSeries(t *testing.T) {
	srv, err := newServer(testDTD, 1<<20, fluxquery.ProjectionFast, 16<<10, fluxquery.BufferSpill, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.handler())
	defer ts.Close()
	if err := srv.register("buf", testQBuf); err != nil {
		t.Fatal(err)
	}
	if code, body := do(t, "POST", ts.URL+"/eval", testDoc(200)); code != 200 {
		t.Fatalf("eval: %d %s", code, body)
	}
	samples := scrape(t, ts.URL)
	if got := samples["flux_bufmgr_budget_bytes"]; got != 16<<10 {
		t.Errorf("budget gauge = %v, want %d", got, 16<<10)
	}
	if samples["flux_bufmgr_spilled_bytes_total"] <= 0 || samples["flux_bufmgr_spill_ops_total"] <= 0 {
		t.Errorf("spill counters empty: spilled=%v ops=%v",
			samples["flux_bufmgr_spilled_bytes_total"], samples["flux_bufmgr_spill_ops_total"])
	}
}

// TestPoolSaturationMetrics: a shed request reports the live pool
// depth in its JSON body and increments the rejected-requests series.
func TestPoolSaturationMetrics(t *testing.T) {
	srv, ts := newTestServer(t)
	srv.setPool(1)
	if err := srv.register("q3", testQ3); err != nil {
		t.Fatal(err)
	}
	srv.pool <- struct{}{} // occupy the only slot
	code, body := do(t, "POST", ts.URL+"/eval", testDoc(1))
	if code != http.StatusServiceUnavailable {
		t.Fatalf("saturated eval: %d %s", code, body)
	}
	var shed struct {
		Code     string `json:"code"`
		Depth    int    `json:"pool_depth"`
		Capacity int    `json:"pool_capacity"`
	}
	if err := json.Unmarshal([]byte(body), &shed); err != nil {
		t.Fatal(err)
	}
	if shed.Code != codePoolSaturated || shed.Depth != 1 || shed.Capacity != 1 {
		t.Fatalf("503 body = %s", body)
	}
	<-srv.pool
	samples := scrape(t, ts.URL)
	if samples["flux_pool_rejected_total"] != 1 {
		t.Errorf("rejected series = %v, want 1", samples["flux_pool_rejected_total"])
	}
}

// TestEvalTrace: ?trace=1 returns the pass's span tree, tagged with
// the request id and carrying stamped scan/dispatch/eval spans.
func TestEvalTrace(t *testing.T) {
	srv, ts := newTestServer(t)
	if err := srv.register("q3", testQ3); err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest("POST", ts.URL+"/eval?trace=1", strings.NewReader(testDoc(100)))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("X-Request-Id", "trace-me")
	hresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer hresp.Body.Close()
	b, _ := io.ReadAll(hresp.Body)
	if hresp.StatusCode != 200 {
		t.Fatalf("traced eval: %d %s", hresp.StatusCode, b)
	}
	var resp evalResponse
	if err := json.Unmarshal(b, &resp); err != nil {
		t.Fatal(err)
	}
	tr := resp.Trace
	if tr == nil || tr.ID != "trace-me" || tr.PassID == 0 || tr.Root == nil {
		t.Fatalf("trace = %+v", tr)
	}
	if tr.Root.Name != "pass" || tr.Root.Dur <= 0 {
		t.Fatalf("root span = %+v", tr.Root)
	}
	names := map[string]bool{}
	for _, ch := range tr.Root.Children {
		names[ch.Name] = true
		for _, gr := range ch.Children {
			names[gr.Name] = true
		}
	}
	for _, want := range []string{"scan", "dispatch", "eval:q3"} {
		if !names[want] {
			t.Errorf("trace lacks span %q: have %v", want, names)
		}
	}
	// Untraced evals must not carry a tree.
	_, body := do(t, "POST", ts.URL+"/eval", testDoc(1))
	var plain evalResponse
	if err := json.Unmarshal([]byte(body), &plain); err != nil {
		t.Fatal(err)
	}
	if plain.Trace != nil {
		t.Errorf("untraced eval carries a trace: %+v", plain.Trace)
	}
}

// TestConcurrentScrapeRace drives staged /eval traffic while
// scraping /metrics from other goroutines; under -race this pins the
// scrape path against live instrument writes.
func TestConcurrentScrapeRace(t *testing.T) {
	withProcs(t, 2)
	srv, ts := newTestServer(t)
	if err := srv.register("q3", testQ3); err != nil {
		t.Fatal(err)
	}
	if err := srv.register("titles", testQT); err != nil {
		t.Fatal(err)
	}
	doc := testDoc(200)
	const evalWorkers, scrapeWorkers, rounds = 3, 2, 8
	var wg sync.WaitGroup
	errs := make(chan error, evalWorkers*rounds)
	for w := 0; w < evalWorkers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				resp, err := http.Post(ts.URL+"/eval", "application/xml", strings.NewReader(doc))
				if err != nil {
					errs <- err
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode != 200 {
					errs <- fmt.Errorf("eval: %d", resp.StatusCode)
					return
				}
			}
		}()
	}
	for w := 0; w < scrapeWorkers; w++ {
		wg.Add(1)
		go func() {
			// t.Fatal is test-goroutine-only, so the workers just drain
			// the exposition; the validated scrape happens after the join.
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				resp, err := http.Get(ts.URL + "/metrics")
				if err != nil {
					errs <- err
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode != 200 {
					errs <- fmt.Errorf("metrics: %d", resp.StatusCode)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	final := scrape(t, ts.URL)
	if got := final["flux_scan_passes_total"]; got != evalWorkers*rounds {
		t.Errorf("passes = %v, want %d", got, evalWorkers*rounds)
	}
}
