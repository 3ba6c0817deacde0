package main

// Flight-recorder and cost-attribution endpoint tests: /debug/passes,
// /debug/passes/{id}, /queries/{name}/stats, /top, plus the build-info
// and uptime series, exercised through the public handler.

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"
)

// recTestServer is newTestServer with the flight recorder armed.
func recTestServer(t *testing.T, size int) (*server, *httptest.Server) {
	t.Helper()
	srv, ts := newTestServer(t)
	srv.setFlightRecorder(size, 0, 0)
	return srv, ts
}

// evalWithReqID posts a document with an explicit X-Request-Id.
func evalWithReqID(t *testing.T, url, doc, reqID string) {
	t.Helper()
	req, err := http.NewRequest("POST", url+"/eval", strings.NewReader(doc))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("X-Request-Id", reqID)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != 200 {
		t.Fatalf("eval: %d %s", resp.StatusCode, b)
	}
}

// TestDebugPassesEndpoint: every /eval deposits one record; the ring
// document reports totals, windowed rollups and most-recent-first
// records carrying the caller's X-Request-Id; single records resolve
// by pass id.
func TestDebugPassesEndpoint(t *testing.T) {
	srv, ts := recTestServer(t, 8)
	url := ts.URL
	if err := srv.register("q3", testQ3); err != nil {
		t.Fatal(err)
	}
	evalWithReqID(t, url, testDoc(10), "pass-one")
	evalWithReqID(t, url, testDoc(20), "pass-two")

	code, body := do(t, "GET", url+"/debug/passes", "")
	if code != 200 {
		t.Fatalf("debug/passes: %d %s", code, body)
	}
	var pr passesResponse
	if err := json.Unmarshal([]byte(body), &pr); err != nil {
		t.Fatal(err)
	}
	if pr.Total != 2 || pr.Retained != 2 || pr.Capacity != 8 {
		t.Fatalf("ring counters = %+v", pr)
	}
	if len(pr.Passes) != 2 {
		t.Fatalf("passes = %d, want 2", len(pr.Passes))
	}
	// Most recent first, request ids propagated from the HTTP layer.
	if pr.Passes[0].RequestID != "pass-two" || pr.Passes[1].RequestID != "pass-one" {
		t.Errorf("request ids = %q, %q", pr.Passes[0].RequestID, pr.Passes[1].RequestID)
	}
	latest := pr.Passes[0]
	if latest.Plans != 1 || latest.InputBytes != int64(len(testDoc(20))) ||
		latest.Events == 0 || latest.Duration <= 0 {
		t.Errorf("latest record = %+v", latest)
	}
	for _, win := range []string{"1m", "5m", "all"} {
		ru, ok := pr.Rollups[win]
		if !ok || ru.Passes != 2 || ru.P50 <= 0 {
			t.Errorf("rollup %q = %+v, %v", win, ru, ok)
		}
	}

	// ?n=1 truncates to the most recent record only.
	_, body = do(t, "GET", url+"/debug/passes?n=1", "")
	var one passesResponse
	if err := json.Unmarshal([]byte(body), &one); err != nil {
		t.Fatal(err)
	}
	if len(one.Passes) != 1 || one.Passes[0].PassID != latest.PassID || one.Total != 2 {
		t.Fatalf("?n=1 = %+v", one)
	}
	if code, body := do(t, "GET", url+"/debug/passes?n=zebra", ""); code != 400 || !strings.Contains(body, codeBadRequest) {
		t.Fatalf("bad n: %d %s", code, body)
	}

	// Single-record lookup by pass id, and the 404 taxonomy.
	code, body = do(t, "GET", fmt.Sprintf("%s/debug/passes/%d", url, latest.PassID), "")
	if code != 200 {
		t.Fatalf("debug/passes/{id}: %d %s", code, body)
	}
	var rec struct {
		PassID    uint64 `json:"pass_id"`
		RequestID string `json:"request_id"`
	}
	if err := json.Unmarshal([]byte(body), &rec); err != nil {
		t.Fatal(err)
	}
	if rec.PassID != latest.PassID || rec.RequestID != "pass-two" {
		t.Fatalf("record = %+v", rec)
	}
	if code, body := do(t, "GET", url+"/debug/passes/99999999", ""); code != 404 || !strings.Contains(body, codePassNotFound) {
		t.Fatalf("unknown pass: %d %s", code, body)
	}
	if code, body := do(t, "GET", url+"/debug/passes/zebra", ""); code != 400 || !strings.Contains(body, codeBadRequest) {
		t.Fatalf("bad pass id: %d %s", code, body)
	}
}

// TestDebugPassesRecorderOff: with -flightrec 0 the ring endpoints
// answer a structured RECORDER_OFF, not an empty document.
func TestDebugPassesRecorderOff(t *testing.T) {
	_, ts := newTestServer(t)
	for _, path := range []string{"/debug/passes", "/debug/passes/1"} {
		if code, body := do(t, "GET", ts.URL+path, ""); code != 404 || !strings.Contains(body, codeRecorderOff) {
			t.Errorf("%s with recorder off: %d %s", path, code, body)
		}
	}
}

// TestQueryStatsEndpoint: the per-query ledger accrues across /eval
// calls; a registered-but-unevaluated query reads as a zero entry and
// an unregistered name is a 404.
func TestQueryStatsEndpoint(t *testing.T) {
	srv, ts := newTestServer(t)
	if err := srv.register("q3", testQ3); err != nil {
		t.Fatal(err)
	}

	// Registered, never evaluated: zero entry, not 404.
	code, body := do(t, "GET", ts.URL+"/queries/q3/stats", "")
	if code != 200 {
		t.Fatalf("pre-eval stats: %d %s", code, body)
	}
	var qs struct {
		Name    string `json:"name"`
		Passes  int64  `json:"passes"`
		EvalCPU int64  `json:"eval_cpu_ns"`
		Events  int64  `json:"events"`
	}
	if err := json.Unmarshal([]byte(body), &qs); err != nil {
		t.Fatal(err)
	}
	if qs.Name != "q3" || qs.Passes != 0 {
		t.Fatalf("zero entry = %+v", qs)
	}

	for i := 0; i < 2; i++ {
		if code, body := do(t, "POST", ts.URL+"/eval", testDoc(20)); code != 200 {
			t.Fatalf("eval: %d %s", code, body)
		}
	}
	_, body = do(t, "GET", ts.URL+"/queries/q3/stats", "")
	if err := json.Unmarshal([]byte(body), &qs); err != nil {
		t.Fatal(err)
	}
	if qs.Passes != 2 || qs.EvalCPU <= 0 || qs.Events <= 0 {
		t.Fatalf("post-eval ledger = %+v", qs)
	}

	if code, body := do(t, "GET", ts.URL+"/queries/nosuch/stats", ""); code != 404 || !strings.Contains(body, codeQueryNotFound) {
		t.Fatalf("unregistered stats: %d %s", code, body)
	}
}

// TestTopEndpoint: /top ranks registered queries on any ledger axis
// and rejects unknown axes.
func TestTopEndpoint(t *testing.T) {
	srv, ts := newTestServer(t)
	if err := srv.register("q3", testQ3); err != nil {
		t.Fatal(err)
	}
	if err := srv.register("titles", testQT); err != nil {
		t.Fatal(err)
	}
	if code, body := do(t, "POST", ts.URL+"/eval", testDoc(50)); code != 200 {
		t.Fatalf("eval: %d %s", code, body)
	}

	code, body := do(t, "GET", ts.URL+"/top", "")
	if code != 200 {
		t.Fatalf("top: %d %s", code, body)
	}
	var top topResponse
	if err := json.Unmarshal([]byte(body), &top); err != nil {
		t.Fatal(err)
	}
	if top.Axis != "cpu" || len(top.Axes) == 0 || len(top.Queries) != 2 {
		t.Fatalf("default top = %+v", top)
	}
	for _, q := range top.Queries {
		if q.Passes != 1 || q.EvalCPU <= 0 {
			t.Errorf("ranked entry = %+v", q)
		}
	}

	_, body = do(t, "GET", ts.URL+"/top?axis=passes&k=1", "")
	if err := json.Unmarshal([]byte(body), &top); err != nil {
		t.Fatal(err)
	}
	if top.Axis != "passes" || len(top.Queries) != 1 {
		t.Fatalf("top?axis=passes&k=1 = %+v", top)
	}
	if code, body := do(t, "GET", ts.URL+"/top?axis=bogus", ""); code != 400 || !strings.Contains(body, codeBadRequest) {
		t.Fatalf("unknown axis: %d %s", code, body)
	}
	if code, body := do(t, "GET", ts.URL+"/top?k=zebra", ""); code != 400 || !strings.Contains(body, codeBadRequest) {
		t.Fatalf("bad k: %d %s", code, body)
	}
}

// TestBuildInfoAndUptime: /metrics exposes flux_build_info (value 1,
// metadata in labels) and a monotone uptime gauge; /stats mirrors both
// as structured fields.
func TestBuildInfoAndUptime(t *testing.T) {
	srv, ts := newTestServer(t)
	samples := scrape(t, ts.URL)
	foundBuild := false
	for series, val := range samples {
		if strings.HasPrefix(series, "flux_build_info{") {
			foundBuild = true
			if val != 1 {
				t.Errorf("flux_build_info = %v, want 1", val)
			}
			for _, label := range []string{"version=", "goversion=", "revision="} {
				if !strings.Contains(series, label) {
					t.Errorf("flux_build_info lacks %s label: %s", label, series)
				}
			}
		}
	}
	if !foundBuild {
		t.Error("exposition lacks flux_build_info")
	}
	if _, ok := samples["flux_server_uptime_seconds"]; !ok {
		t.Error("exposition lacks flux_server_uptime_seconds")
	}

	// Backdate the start: the gauge must track elapsed wall time.
	srv.started = time.Now().Add(-90 * time.Second)
	samples = scrape(t, ts.URL)
	if up := samples["flux_server_uptime_seconds"]; up < 90 {
		t.Errorf("uptime = %v, want >= 90 after backdating", up)
	}

	_, body := do(t, "GET", ts.URL+"/stats", "")
	var st statsResponse
	if err := json.Unmarshal([]byte(body), &st); err != nil {
		t.Fatal(err)
	}
	if st.Build.GoVersion == "" || st.Build.Version == "" || st.Build.Revision == "" {
		t.Errorf("stats build = %+v", st.Build)
	}
	if st.UptimeSeconds < 90 {
		t.Errorf("stats uptime = %d, want >= 90", st.UptimeSeconds)
	}
}

// TestSlowPassCaptureOverHTTP: with -slow-pass armed at an
// unachievably low threshold, every record is marked slow and retains
// its span tree in the ring document.
func TestSlowPassCaptureOverHTTP(t *testing.T) {
	srv, ts := newTestServer(t)
	srv.setFlightRecorder(8, time.Nanosecond, 0)
	if err := srv.register("q3", testQ3); err != nil {
		t.Fatal(err)
	}
	if code, body := do(t, "POST", ts.URL+"/eval", testDoc(20)); code != 200 {
		t.Fatalf("eval: %d %s", code, body)
	}
	_, body := do(t, "GET", ts.URL+"/debug/passes", "")
	var pr passesResponse
	if err := json.Unmarshal([]byte(body), &pr); err != nil {
		t.Fatal(err)
	}
	if len(pr.Passes) != 1 || !pr.Passes[0].Slow {
		t.Fatalf("slow pass not flagged: %+v", pr.Passes)
	}
	if pr.Passes[0].Trace == nil || pr.Passes[0].Trace.Root == nil {
		t.Fatalf("slow pass record lacks its span tree: %+v", pr.Passes[0])
	}
	if pr.Rollups["all"].Slow != 1 {
		t.Errorf("rollup slow count = %d, want 1", pr.Rollups["all"].Slow)
	}
}

// settleGoroutines waits for the goroutine count to drop back to the
// baseline (plus slack for runtime helpers); churn tests use it to
// prove scrapes and evals leak nothing.
func settleGoroutines(t *testing.T, baseline int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if runtime.NumGoroutine() <= baseline+3 {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("goroutines settled at %d, baseline %d:\n%s",
				runtime.NumGoroutine(), baseline, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestDebugEndpointsChurnRace scrapes /debug/passes and /top while
// staged evals and register/unregister churn run concurrently;
// under -race this pins the ring and ledger against live pass
// deposits, and the settle check proves nothing leaks.
func TestDebugEndpointsChurnRace(t *testing.T) {
	baseline := runtime.NumGoroutine()
	srv, ts := recTestServer(t, 32)
	url := ts.URL
	withProcs(t, 2)
	if err := srv.register("q3", testQ3); err != nil {
		t.Fatal(err)
	}
	if err := srv.register("titles", testQT); err != nil {
		t.Fatal(err)
	}

	doc := testDoc(100)
	const evalWorkers, scrapeWorkers, rounds = 3, 2, 8
	var wg sync.WaitGroup
	errs := make(chan error, (evalWorkers+scrapeWorkers+1)*rounds)
	for w := 0; w < evalWorkers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				resp, err := http.Post(url+"/eval", "application/xml", strings.NewReader(doc))
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
		go func(w int) {
			defer wg.Done()
			paths := []string{"/debug/passes", "/top", "/debug/passes?n=4", "/top?axis=events"}
			for i := 0; i < rounds; i++ {
				resp, err := http.Get(url + paths[(w+i)%len(paths)])
				if err != nil {
					errs <- err
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode != 200 {
					errs <- fmt.Errorf("scrape %s: %d", paths[(w+i)%len(paths)], resp.StatusCode)
					return
				}
			}
		}(w)
	}
	// Register/unregister churn: a third query flickers in and out while
	// passes run and the ledger is ranked.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < rounds; i++ {
			if err := srv.register(fmt.Sprintf("churn%d", i), testQT); err != nil {
				errs <- err
				return
			}
			resp, err := http.Get(url + "/top?axis=passes")
			if err != nil {
				errs <- err
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			req, _ := http.NewRequest("DELETE", fmt.Sprintf("%s/queries/churn%d", url, i), nil)
			dresp, err := http.DefaultClient.Do(req)
			if err != nil {
				errs <- err
				return
			}
			io.Copy(io.Discard, dresp.Body)
			dresp.Body.Close()
		}
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	// The ring saw every pass; counters agree between endpoints.
	_, body := do(t, "GET", url+"/debug/passes", "")
	var pr passesResponse
	if err := json.Unmarshal([]byte(body), &pr); err != nil {
		t.Fatal(err)
	}
	if pr.Total != evalWorkers*rounds {
		t.Errorf("recorder total = %d, want %d", pr.Total, evalWorkers*rounds)
	}
	seen := map[uint64]bool{}
	for _, rec := range pr.Passes {
		if seen[rec.PassID] {
			t.Errorf("duplicate pass id %d in snapshot", rec.PassID)
		}
		seen[rec.PassID] = true
	}

	// Tear the server and the client's idle connections down first: the
	// settle check targets leaks in the pass/ledger path, not keep-alive
	// plumbing.
	http.DefaultClient.CloseIdleConnections()
	ts.Close()
	settleGoroutines(t, baseline)
}
