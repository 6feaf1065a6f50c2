package main

import (
	"bytes"
	"encoding/json"
	"os"
	"regexp"
	"strconv"
	"testing"
)

type result struct {
	Correct   bool  `json:"correct"`
	Attempted int64 `json:"attempted"`
	Failed    int64 `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	} `json:"metrics"`
}

// runWorkload runs the command in-process and decodes its last line.
func runWorkload(t *testing.T, args ...string) (int, string, result) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	code := run(args, &stdout, &stderr)
	out := stdout.String()
	lines := bytes.Split(bytes.TrimSpace(stdout.Bytes()), []byte("\n"))
	var res result
	if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
		t.Fatalf("%v: last line is not a result: %v\nstdout:\n%s\nstderr:\n%s", args, err, out, stderr.String())
	}
	return code, out, res
}

// benchmarkSpec is the part of ../BENCHMARK.json the program must match.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func loadSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

// TestWorkloadsPassTheirOracles runs every workload of BENCHMARK.json
// briefly: every check passes and every end-to-end metric is present,
// with its unit, and positive.
func TestWorkloadsPassTheirOracles(t *testing.T) {
	spec := loadSpec(t)
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program %d", len(spec.Workloads), len(workloads))
	}
	for _, wl := range spec.Workloads {
		code, out, res := runWorkload(t, "--workload", wl.Name, "--seed", "3", "--seconds", "1")
		if code != 0 || !res.Correct || res.Failed != 0 || res.Attempted < 1 {
			t.Fatalf("%s: exit %d, result %+v\n%s", wl.Name, code, res, out)
		}
		if len(res.Metrics) != len(spec.EndToEnd) {
			t.Errorf("%s: %d metrics, BENCHMARK.json has %d end-to-end", wl.Name, len(res.Metrics), len(spec.EndToEnd))
		}
		for _, m := range spec.EndToEnd {
			got, ok := res.Metrics[m.Name]
			if !ok || got.Unit != m.Unit || !(got.Value > 0) {
				t.Errorf("%s: metric %s = %+v, want a positive value in %s", wl.Name, m.Name, got, m.Unit)
			}
		}
	}
}

// TestTracedRunReportsEveryLayerMetric checks the traced run's metric
// set against BENCHMARK.json and that it reconciles per-rank time.
func TestTracedRunReportsEveryLayerMetric(t *testing.T) {
	spec := loadSpec(t)
	code, out, res := runWorkload(t, "--workload", "bfs-local", "--seed", "3", "--seconds", "2",
		"--trace", "1", "--spans-dir", t.TempDir())
	if code != 0 || !res.Correct {
		t.Fatalf("exit %d, result %+v\n%s", code, res, out)
	}
	if len(res.Metrics) != len(spec.PerLayer) {
		t.Errorf("%d metrics, BENCHMARK.json has %d per-layer", len(res.Metrics), len(spec.PerLayer))
	}
	for _, m := range spec.PerLayer {
		if got, ok := res.Metrics[m.Name]; !ok || got.Unit != m.Unit {
			t.Errorf("metric %s = %+v, want unit %s", m.Name, got, m.Unit)
		}
	}
	if e := res.Metrics["trace.reconcile_err_max"].Value; e > reconcileTolerance {
		t.Errorf("per-rank time reconciles only within %.3g, tolerance %.3g", e, reconcileTolerance)
	}
	for _, name := range []string{"ygm.send_ns", "wire.inject_ns", "app.handler_ns", "codec.encode_ns", "self_share.blocked"} {
		if !(res.Metrics[name].Value > 0) {
			t.Errorf("%s = %v on bfs-local, want > 0", name, res.Metrics[name].Value)
		}
	}
}

var failRatio = regexp.MustCompile(`fail_ratio\s+(\S+)`)

// TestWrongExpectationIsCounted is the teeth test: with one oracle
// expectation seeded wrong, every workload counts the failure, reports
// fail_ratio > 0 and exits non-zero.
func TestWrongExpectationIsCounted(t *testing.T) {
	for _, wl := range workloads {
		code, out, res := runWorkload(t, "--workload", wl.name, "--seed", "3", "--seconds", "1", "--corrupt-oracle")
		if code == 0 || res.Correct || res.Failed < 1 {
			t.Errorf("%s: exit %d, result correct=%v failed=%d: the wrong expectation went unnoticed",
				wl.name, code, res.Correct, res.Failed)
		}
		m := failRatio.FindStringSubmatch(out)
		if m == nil {
			t.Fatalf("%s: no fail_ratio line in\n%s", wl.name, out)
		}
		if r, err := strconv.ParseFloat(m[1], 64); err != nil || !(r > 0) {
			t.Errorf("%s: fail_ratio %q, want > 0", wl.name, m[1])
		}
	}
}

func TestRejectsBadArguments(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "bfs-local", "--trace", "2"},
		{"--workload", "bfs-local", "--seconds", "0"},
		{"--workload", "bfs-local", "extra"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code != 2 || stdout.Len() != 0 {
			t.Errorf("%v: exit %d with output %q, want exit 2 and no output", args, code, stdout.String())
		}
	}
}
