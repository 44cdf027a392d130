package server

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"repro/internal/experiments"
	"repro/internal/runner"
)

// newTestServer builds a server over a shared pool with both tiers, at
// smoke-run scale.
func newTestServer(t *testing.T) (*httptest.Server, *runner.Pool) {
	t.Helper()
	cache, err := runner.OpenCache(filepath.Join(t.TempDir(), "cache"))
	if err != nil {
		t.Fatal(err)
	}
	pool := &runner.Pool{Workers: 4, Cache: cache, Mem: runner.NewMemCache(256)}
	srv := New(experiments.Options{Quick: true, MaxProcs: 64, Runner: pool})
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	return ts, pool
}

func get(t *testing.T, url string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, body
}

func TestWorkloadsEndpoint(t *testing.T) {
	ts, _ := newTestServer(t)
	resp, body := get(t, ts.URL+"/v1/workloads")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var rows []workloadInfo
	if err := json.Unmarshal(body, &rows); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	if len(rows) < 6 {
		t.Fatalf("%d workloads, want the paper's six", len(rows))
	}
	names := map[string]bool{}
	for _, r := range rows {
		names[r.Name] = true
		if r.Scaling != "weak" && r.Scaling != "strong" {
			t.Errorf("workload %s has scaling %q", r.Name, r.Scaling)
		}
	}
	if !names["GTC"] || !names["PARATEC"] {
		t.Fatalf("registry rows missing: %v", names)
	}
}

func TestMachinesEndpoint(t *testing.T) {
	ts, _ := newTestServer(t)
	resp, body := get(t, ts.URL+"/v1/machines")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var rows []map[string]any
	if err := json.Unmarshal(body, &rows); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	if len(rows) != 6 {
		t.Fatalf("%d machines, want the six-system testbed", len(rows))
	}
	found := false
	for _, r := range rows {
		if r["name"] == "Bassi" {
			found = true
			if r["peak_gflops"].(float64) <= 0 {
				t.Error("Bassi row lost its Table 1 numbers")
			}
		}
	}
	if !found {
		t.Fatal("Bassi missing from /v1/machines")
	}
}

const sweepQuery = "/v1/sweep?app=GTC&machine=Bassi&procs=64"

// cliSweepArtifact builds the byte-exact body the CLI's `sweep -json`
// writes for the same selectors, through an independent serial pool.
func cliSweepArtifact(t *testing.T) []byte {
	t.Helper()
	figs, err := experiments.Sweep(context.Background(), experiments.Options{Quick: true, MaxProcs: 64},
		[]string{"GTC"}, []string{"Bassi"}, []int{64})
	if err != nil {
		t.Fatal(err)
	}
	var results []runner.Result
	for _, fig := range figs {
		results = append(results, fig.Results...)
	}
	var buf bytes.Buffer
	if err := runner.WriteJSON(&buf, results); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestSweepMatchesCLIArtifact(t *testing.T) {
	ts, _ := newTestServer(t)
	resp, body := get(t, ts.URL+sweepQuery)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Fatalf("content type %q", ct)
	}
	if want := cliSweepArtifact(t); !bytes.Equal(body, want) {
		t.Fatalf("sweep body differs from the CLI artifact:\nserve: %s\ncli:   %s", body, want)
	}
	if resp.Header.Get("X-Petasim-Simulated") != "1" {
		t.Fatalf("cold sweep simulated %q points, want 1", resp.Header.Get("X-Petasim-Simulated"))
	}
}

func TestWarmSweepServedFromMemoryTier(t *testing.T) {
	ts, pool := newTestServer(t)
	_, cold := get(t, ts.URL+sweepQuery)
	resp, warm := get(t, ts.URL+sweepQuery)
	if !bytes.Equal(cold, warm) {
		t.Fatal("warm response differs from cold response")
	}
	if got := resp.Header.Get("X-Petasim-Simulated"); got != "0" {
		t.Fatalf("warm sweep re-simulated %s points", got)
	}
	if got := resp.Header.Get("X-Petasim-Mem-Hits"); got != "1" {
		t.Fatalf("warm sweep took %s memory hits, want 1", got)
	}
	if s := pool.Stats(); s.Simulated != 1 || s.MemHits != 1 {
		t.Fatalf("pool stats %v, want 1 simulated + 1 mem hit", s)
	}
}

func TestConcurrentIdenticalSweepsSimulateOnce(t *testing.T) {
	ts, pool := newTestServer(t)
	const requests = 4
	bodies := make([][]byte, requests)
	var wg sync.WaitGroup
	for i := 0; i < requests; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, body := get(t, ts.URL+sweepQuery)
			if resp.StatusCode != http.StatusOK {
				t.Errorf("request %d: status %d", i, resp.StatusCode)
			}
			bodies[i] = body
		}(i)
	}
	wg.Wait()
	for i := 1; i < requests; i++ {
		if !bytes.Equal(bodies[i], bodies[0]) {
			t.Fatalf("request %d returned a different body", i)
		}
	}
	s := pool.Stats()
	if s.Simulated != 1 {
		t.Fatalf("pool stats %v: %d requests simulated the point %d times, want exactly once",
			s, requests, s.Simulated)
	}
	if s.Points != requests {
		t.Fatalf("pool stats %v, want %d points", s, requests)
	}
}

func TestSweepRejectsBadSelectors(t *testing.T) {
	ts, _ := newTestServer(t)
	for _, q := range []string{
		"/v1/sweep?app=NoSuchApp",
		"/v1/sweep?machine=NoSuchMachine",
		"/v1/sweep?procs=sixty-four",
		"/v1/sweep?app=GTC&machine=Bassi&procs=-4",
	} {
		resp, body := get(t, ts.URL+q)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", q, resp.StatusCode)
		}
		var e map[string]string
		if err := json.Unmarshal(body, &e); err != nil || e["error"] == "" {
			t.Errorf("%s: error body %s", q, body)
		}
	}
}

func TestFigureEndpointBounds(t *testing.T) {
	ts, _ := newTestServer(t)
	for _, q := range []string{"/v1/figures/1", "/v1/figures/9", "/v1/figures/abc"} {
		resp, _ := get(t, ts.URL+q)
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("%s: status %d, want 404", q, resp.StatusCode)
		}
	}
}

func TestFigureEndpointMatchesDirectBuild(t *testing.T) {
	ts, _ := newTestServer(t)
	resp, body := get(t, ts.URL+"/v1/figures/3")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	fig, err := experiments.FigureN(context.Background(), experiments.Options{Quick: true, MaxProcs: 64}, 3)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := fig.JSON(&buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(body, buf.Bytes()) {
		t.Fatal("figure body differs from the CLI artifact")
	}
}

// storeTier finds the named tier in a /v1/stats store tree.
func storeTier(st *runner.StoreStats, name string) *runner.StoreStats {
	if st == nil || st.Name == name {
		return st
	}
	for i := range st.Tiers {
		if found := storeTier(&st.Tiers[i], name); found != nil {
			return found
		}
	}
	return nil
}

func TestStatsAndHealthEndpoints(t *testing.T) {
	ts, _ := newTestServer(t)
	// The same two tiers configured through Store must report the same
	// store tree as the Cache/Mem convenience fields.
	cache, err := runner.OpenCache(filepath.Join(t.TempDir(), "cache"))
	if err != nil {
		t.Fatal(err)
	}
	storePool := &runner.Pool{Workers: 4, Store: runner.NewTiered(
		runner.NewMemStore(runner.NewMemCache(256)), runner.NewDiskStore(cache))}
	storeTS := httptest.NewServer(New(experiments.Options{Quick: true, MaxProcs: 64, Runner: storePool}))
	t.Cleanup(storeTS.Close)

	for _, url := range []string{ts.URL, storeTS.URL} {
		get(t, url+sweepQuery)
		resp, body := get(t, url+"/v1/stats")
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d", resp.StatusCode)
		}
		var st statsResponse
		if err := json.Unmarshal(body, &st); err != nil {
			t.Fatalf("invalid stats JSON: %v", err)
		}
		mem, disk := storeTier(st.Store, "mem"), storeTier(st.Store, "disk")
		if st.Stats.Points != 1 || st.Workers != 4 || mem == nil || mem.Len != 1 || mem.Cap != 256 || disk == nil || disk.Len != 1 {
			t.Fatalf("stats %s do not reflect the sweep", body)
		}
	}

	resp, body := get(t, ts.URL+"/healthz")
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), "ok") {
		t.Fatalf("healthz: %d %s", resp.StatusCode, body)
	}
}

func TestMethodAndRouteNotAllowed(t *testing.T) {
	ts, _ := newTestServer(t)
	resp, err := http.Post(ts.URL+"/v1/workloads", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("POST /v1/workloads: status %d, want 405", resp.StatusCode)
	}
	resp2, _ := get(t, ts.URL+"/v1/nope")
	if resp2.StatusCode != http.StatusNotFound {
		t.Fatalf("GET /v1/nope: status %d, want 404", resp2.StatusCode)
	}
}

func TestPostSweepWithFormBody(t *testing.T) {
	ts, _ := newTestServer(t)
	resp, err := http.Post(ts.URL+"/v1/sweep", "application/x-www-form-urlencoded",
		strings.NewReader("app=GTC&machine=Bassi&procs=64"))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	if want := cliSweepArtifact(t); !bytes.Equal(body, want) {
		t.Fatal("POST sweep body differs from the CLI artifact")
	}
}

func TestPostSweepRejectsUnparseableBody(t *testing.T) {
	// Anything the form parser would silently drop must be rejected
	// up front: empty selectors mean the full everything-sweep, so a
	// swallowed parse error would buy minutes of unintended simulation.
	ts, pool := newTestServer(t)
	cases := []struct {
		name, contentType, body string
		wantStatus              int
	}{
		{"json body", "application/json", `{"app":"gtc"}`, http.StatusUnsupportedMediaType},
		{"boundaryless multipart", "multipart/form-data", "app=gtc", http.StatusUnsupportedMediaType},
		{"bad percent escape", "application/x-www-form-urlencoded", "app=gtc&machine=%zz&procs=64", http.StatusBadRequest},
	}
	for _, tc := range cases {
		resp, err := http.Post(ts.URL+"/v1/sweep", tc.contentType, strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != tc.wantStatus {
			t.Errorf("%s: status %d, want %d", tc.name, resp.StatusCode, tc.wantStatus)
		}
	}
	// A body with no Content-Type at all would be ignored by ParseForm
	// without error; it must be rejected, not silently dropped.
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/sweep",
		strings.NewReader("app=gtc&machine=bassi&procs=64"))
	if err != nil {
		t.Fatal(err)
	}
	resp2, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusUnsupportedMediaType {
		t.Errorf("typeless body: status %d, want 415", resp2.StatusCode)
	}
	// A malformed GET query string must 400 the same way.
	resp, _ := get(t, ts.URL+"/v1/sweep?app=gtc&machine=%zz")
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("malformed query: status %d, want 400", resp.StatusCode)
	}
	if s := pool.Stats(); s.Points != 0 {
		t.Fatalf("rejected requests still dispatched %d points", s.Points)
	}
}
