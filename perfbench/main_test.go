package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"
)

// tiny keeps every workload's inputs small enough for a unit test.
var tiny = sizes{
	evalSeq:   64,
	evalHot:   4,
	traceReqs: 2048,
	schedReqs: 2048,
	probeReqs: 2048,
	bodies:    2,
	setups:    2,
}

func TestGeneratorsAreDeterministic(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			a, err := w.gen(7, tiny)
			if err != nil {
				t.Fatal(err)
			}
			b, err := w.gen(7, tiny)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(a, b) {
				t.Fatal("the same seed generated different inputs")
			}
			c, err := w.gen(8, tiny)
			if err != nil {
				t.Fatal(err)
			}
			if reflect.DeepEqual(a.bodies, c.bodies) {
				t.Fatal("different seeds generated the same bodies")
			}
		})
	}
}

// corrupting flips one byte of every second response.
type corrupting struct {
	instance
	n int
}

func (c *corrupting) do(body []byte, tr *tracer, parent, req int64) ([]byte, error) {
	resp, err := c.instance.do(body, tr, parent, req)
	c.n++
	if err == nil && c.n%2 == 0 && len(resp) > 0 {
		resp = append([]byte(nil), resp...)
		resp[len(resp)/2] ^= 0x20
	}
	return resp, err
}

func TestCorruptedResponseLowersSuccessFrac(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			in, err := w.gen(3, tiny)
			if err != nil {
				t.Fatal(err)
			}
			inst, _, err := setUp(&w, in)
			if err != nil {
				t.Fatal(err)
			}
			defer inst.close()
			success := func(inst instance) float64 {
				st := closedLoop(inst, in, 50*time.Millisecond, nil)
				return endToEndMetrics(st, []float64{1}, 1)["success_frac"].Value
			}
			if got := success(inst); got != 1 {
				t.Fatalf("success_frac = %v on correct responses, want 1", got)
			}
			if got := success(&corrupting{instance: inst}); got >= 1 {
				t.Fatalf("success_frac = %v with corrupted responses, want < 1", got)
			}
		})
	}
}

// benchmarkSpec is the part of BENCHMARK.json that names the metrics.
type benchmarkSpec struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func TestEveryMetricIsPrintedWithItsUnit(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, perfbench has %d", len(spec.Workloads), len(workloads))
	}
	for _, sw := range spec.Workloads {
		for trace, want := range [][]struct{ Name, Unit string }{spec.EndToEnd, spec.PerLayer} {
			var stdout, stderr bytes.Buffer
			args := []string{"--workload", sw.Name, "--seed", "5", "--seconds", "0.2",
				"--trace", []string{"0", "1"}[trace], "--spans", t.TempDir()}
			if code := run(args, &stdout, &stderr, tiny); code != 0 {
				t.Fatalf("%v: exit %d: %s", args, code, stderr.String())
			}
			lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
			var res result
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatalf("%v: last line is not the result: %v", args, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%v: correct=%v attempted=%d failed=%d", args, res.Correct, res.Attempted, res.Failed)
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%v: printed %d metrics, BENCHMARK.json names %d", args, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%v: metric %s = %+v, want unit %q", args, m.Name, got, m.Unit)
				}
			}
		}
	}
}

func TestUnknownWorkloadFails(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"--workload", "nope"}, &stdout, &stderr, tiny); code == 0 || stdout.Len() != 0 {
		t.Fatalf("exit %d, stdout %q; want a failure and no result", code, stdout.String())
	}
}

func TestSelfTimeSubtractsChildren(t *testing.T) {
	tr := &tracer{}
	tr.spans = []span{
		{ID: 1, Name: "request", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "b", Start: 30, End: 60},
		{ID: 4, Parent: 3, Name: "c", Start: 35, End: 45},
	}
	self := tr.selfTimes()
	for name, want := range map[string]float64{"request": 50, "a": 30, "b": 20, "c": 10} {
		if got := self.median(name); got != want {
			t.Errorf("self time of %s = %v, want %v", name, got, want)
		}
	}
}

func TestTimingsAreCPUTimePerRequest(t *testing.T) {
	st := loopStats{
		lat:       []float64{9e6, 9e6, 9e6},
		cpu:       []float64{1e6, 2e6, 5e6},
		alloc:     []float64{1024, 1024, 1024},
		attempted: 3,
	}
	m := endToEndMetrics(st, []float64{1}, 1)
	for name, want := range map[string]float64{"cpu_ms_p50": 2, "cpu_ms_p90": 4.4, "req_per_cpu_s": 375} {
		if got := m[name].Value; math.Abs(got-want) > 1e-9 {
			t.Errorf("%s = %v, want %v", name, got, want)
		}
	}
}
