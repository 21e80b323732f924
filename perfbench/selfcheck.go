package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"strings"
	"time"
)

// benchmarkFile is the metric contract the runs must honour, read from
// the repository root (the working directory of run.sh).
type benchmarkFile struct {
	EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer []struct{ Name, Unit string } `json:"per_layer"`
}

// runSelfCheck runs every workload at small size. It asserts that the
// untraced and traced runs emit every metric BENCHMARK.json names, with
// its unit, plus each workload's human-readable metrics; that CPU shares
// sum to 1; and that two same-seed runs of each simulated workload agree
// on every simulator-side count while a different seed changes them.
func runSelfCheck() error {
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return err
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		return fmt.Errorf("BENCHMARK.json: %w", err)
	}
	for _, w := range workloads {
		plain, err := run(w, 1, 0, false, true)
		if err != nil {
			return fmt.Errorf("%s: %w", w.name, err)
		}
		if err := hasMetrics(plain, bf.EndToEnd); err != nil {
			return err
		}
		want := []string{"error_rate", "query_wall_ms.p50.", "query_wall_ms.tail."}
		if w.simulated {
			want = append(want, "sim_time_to_kth_s", "sim_time_to_last_s")
		}
		if w == churn2k {
			want = append(want, "background_bytes_per_node_s")
		}
		if w == tcp2 {
			want = append(want, "publish_rows_per_s")
		}
		for _, name := range want {
			if !hasPrefix(plain.Extra, name) {
				return fmt.Errorf("%s: no %s line", w.name, name)
			}
		}
		traced, err := run(w, 1, time.Second, true, true)
		if err != nil {
			return fmt.Errorf("%s traced: %w", w.name, err)
		}
		if err := hasMetrics(traced, bf.PerLayer); err != nil {
			return err
		}
		sum := 0.0
		for _, m := range traced.Metrics {
			if strings.HasSuffix(m.Name, ".cpu_share") {
				sum += m.Value
			}
		}
		if math.Abs(sum-1) > 1e-6 {
			return fmt.Errorf("%s: cpu shares sum to %v", w.name, sum)
		}
		if !plain.Correct || !traced.Correct {
			return fmt.Errorf("%s: wrong answers at small size", w.name)
		}
		if w.simulated {
			if err := checkDeterminism(w); err != nil {
				return err
			}
		}
		fmt.Printf("selfcheck: %s ok\n", w.name)
	}
	return nil
}

// hasMetrics checks that r emits exactly the wanted metrics, each with
// its unit and a finite value.
func hasMetrics(r *result, want []struct{ Name, Unit string }) error {
	byName := map[string]metric{}
	for _, m := range r.Metrics {
		byName[m.Name] = m
	}
	for _, w := range want {
		m, ok := byName[w.Name]
		switch {
		case !ok:
			return fmt.Errorf("%s: metric %s missing", r.Workload, w.Name)
		case m.Unit != w.Unit:
			return fmt.Errorf("%s: metric %s in %s, want %s", r.Workload, w.Name, m.Unit, w.Unit)
		case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
			return fmt.Errorf("%s: metric %s is %v", r.Workload, w.Name, m.Value)
		}
	}
	if len(byName) != len(want) {
		return fmt.Errorf("%s: %d metrics emitted, BENCHMARK.json names %d", r.Workload, len(byName), len(want))
	}
	return nil
}

func hasPrefix(ms []metric, prefix string) bool {
	for _, m := range ms {
		if strings.HasPrefix(m.Name, prefix) {
			return true
		}
	}
	return false
}

// checkDeterminism compares the simulator-side figures of a fixed
// number of steps: seed 1 twice, then seed 2.
func checkDeterminism(w *spec) error {
	fp := func(seed int64) (string, error) {
		dep, err := w.prepare(seed, true)()
		if err != nil {
			return "", err
		}
		defer dep.close()
		m := newMeter()
		ls, err := drive(dep, m, 0, 4, false)
		if err != nil {
			return "", err
		}
		return fmt.Sprint(m.qBytes, m.qMsgs, m.simKth, m.simLast, m.gotRows, m.refRows, m.extraRows,
			m.indexContacts, m.bgBytes, ls.delta), nil
	}
	a, err := fp(1)
	if err != nil {
		return err
	}
	b, err := fp(1)
	if err != nil {
		return err
	}
	c, err := fp(2)
	if err != nil {
		return err
	}
	if a != b {
		return fmt.Errorf("%s: same seed, different runs:\n%s\n%s", w.name, a, b)
	}
	if a == c {
		return fmt.Errorf("%s: seeds 1 and 2 gave identical runs", w.name)
	}
	return nil
}
