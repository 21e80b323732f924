// Command perfbench is PIER's benchmark: one process that sets up a
// named workload, drives it as a closed loop for a fixed wall time,
// checks every answer against a reference computed from the generated
// tables, and prints the end-to-end metrics (untraced run) or the
// per-layer attribution (traced run). The last line of standard output
// is one JSON object: {"correct", "attempted", "failed", "metrics"}.
//
//	go run . --workload join4k --seed 1 --seconds 10 --trace 0
//	go run . --selfcheck
//
// See README.md for the workloads, the metrics and the layer mapping.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"time"

	"pier"
)

// spec is one named benchmark input: a deployment recipe plus the
// closed-loop client that drives it.
type spec struct {
	name string
	// setupReps is how many times a run builds the deployment; setup_s
	// is the median. Each build is discarded before the next starts.
	setupReps int
	// simulated workloads report virtual-time metrics and take part in
	// the determinism self-check. They run with one P: the simulator is
	// a single goroutine, and one P makes its wall time its own work,
	// collector included, rather than depending on whether the machine
	// has a second core free at the moment.
	simulated bool
	// faulty workloads crash nodes on purpose: a query may miss rows
	// without counting as failed (recall shows the loss).
	faulty bool
	// stepRate, when set, fixes the run's work instead of its length:
	// --seconds × stepRate steps. churn2k's overlay keeps changing as
	// virtual time passes, so a time-bound run would measure a stretch
	// of the timeline that depends on the machine's speed.
	stepRate float64
	// prepare generates the inputs from the seed and returns the
	// builder; only the builder's call is timed as setup.
	prepare func(seed int64, small bool) func() (deployment, error)
}

// deployment is a queryable system built by a workload's setup.
type deployment interface {
	// nodes is the deployment size used for per-node metrics.
	nodes() int
	// loadStats reports the items loaded during setup and the wall time
	// spent in the load calls.
	loadStats() (items int, wall time.Duration)
	// step runs the next closed-loop operation (one query, or a publish
	// followed by the reads) and records it in m.
	step(m *meter, traced bool) error
	// counters snapshots the deployment's cumulative layer counters.
	counters() counters
	close()
}

var workloads = []*spec{join4k, scan100k, churn2k, tcp2}

func findWorkload(name string) *spec {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

func main() {
	name := flag.String("workload", "", "workload: join4k, scan100k, churn2k or tcp2")
	seed := flag.Int64("seed", 1, "workload seed")
	seconds := flag.Float64("seconds", 10, "measured wall time of the query phase")
	traced := flag.Int("trace", 0, "1 = traced run: report per-layer metrics instead of end-to-end ones")
	selfcheck := flag.Bool("selfcheck", false, "run every workload small: metric presence and same-seed determinism")
	flag.Parse()

	if *selfcheck {
		if err := runSelfCheck(); err != nil {
			fmt.Fprintln(os.Stderr, "selfcheck:", err)
			os.Exit(1)
		}
		fmt.Println("selfcheck: ok")
		return
	}
	w := findWorkload(*name)
	if w == nil {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *name)
		os.Exit(2)
	}
	if *seconds <= 0 {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be positive")
		os.Exit(2)
	}
	if w.simulated {
		runtime.GOMAXPROCS(1)
	}
	res, err := run(w, *seed, time.Duration(*seconds*float64(time.Second)), *traced == 1, false)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
		os.Exit(1)
	}
	res.print(os.Stdout)
	if !res.Correct {
		os.Exit(1)
	}
}

// result is one run's outcome. Metrics holds what the JSON line
// carries; Extra holds the workload-specific metrics printed only in
// the human-readable lines.
type result struct {
	Workload  string
	Correct   bool
	Attempted int
	Failed    int
	Metrics   []metric
	Extra     []metric
}

type metric struct {
	Name  string
	Value float64
	Unit  string
	Note  string
}

func (r *result) add(name string, v float64, unit string) {
	r.Metrics = append(r.Metrics, metric{Name: name, Value: v, Unit: unit})
}

func (r *result) extra(name string, v float64, unit, note string) {
	r.Extra = append(r.Extra, metric{Name: name, Value: v, Unit: unit, Note: note})
}

func (r *result) print(f *os.File) {
	for _, m := range append(append([]metric(nil), r.Metrics...), r.Extra...) {
		line := fmt.Sprintf("%s %s = %.6g %s", r.Workload, m.Name, m.Value, m.Unit)
		if m.Note != "" {
			line += "  (" + m.Note + ")"
		}
		fmt.Fprintln(f, line)
	}
	type jm struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool          `json:"correct"`
		Attempted int           `json:"attempted"`
		Failed    int           `json:"failed"`
		Metrics   map[string]jm `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, map[string]jm{}}
	for _, m := range r.Metrics {
		out.Metrics[m.Name] = jm{m.Value, m.Unit}
	}
	b, _ := json.Marshal(out) // finite floats and strings always marshal
	fmt.Fprintln(f, string(b))
}

// meter accumulates one run's per-operation observations.
type meter struct {
	// Per-query samples by query kind: wall time, and the traffic of
	// the query window through the drained cancel.
	wallMs, qBytes, qMsgs map[string][]float64
	kinds                 []string
	// rows counts rows received over queryWall, the queries' summed wall
	// time; refRows and gotRows sum the reference rows and the distinct
	// reference rows received; extraRows counts rows outside it.
	rows, refRows, gotRows, extraRows int
	queryWall                         time.Duration
	attempted, failed                 int
	errors                            int
	failures                          []string
	// Virtual time to the k-th and last row, seconds (simulated only).
	simKth, simLast []float64
	// Writes: rows confirmed stored and the wall time spent publishing.
	pubRows int
	pubWall time.Duration
	// Background traffic outside query windows (churn2k).
	bgBytes   int64
	bgVirtual time.Duration
	// Per-call timings of Node.Query and ParseSQL, microseconds.
	queryStartUs, parseUs []float64
	indexContacts         []float64
	// Per-stage span time of traced simulated joins, summed over queries.
	stageMs map[string]float64
	traces  int
	// collect asks simulated queries to start from a collected heap;
	// forcedGCs counts those collections, which gc.cycles_per_query
	// leaves out.
	collect   bool
	forcedGCs int
}

func newMeter() *meter {
	return &meter{wallMs: map[string][]float64{}, qBytes: map[string][]float64{}, qMsgs: map[string][]float64{},
		stageMs: map[string]float64{}}
}

// query records one completed query and checks its answer. A row the
// reference lacks or a duplicate fails the query; so do missing rows on
// a fault-free workload, where every row arrives by the deadline.
func (m *meter) query(kind string, wall time.Duration, bytes, msgs int64, c *rowCheck, faulty bool) {
	if _, ok := m.wallMs[kind]; !ok {
		m.kinds = append(m.kinds, kind)
	}
	m.wallMs[kind] = append(m.wallMs[kind], float64(wall)/1e6)
	m.qBytes[kind] = append(m.qBytes[kind], float64(bytes))
	m.qMsgs[kind] = append(m.qMsgs[kind], float64(msgs))
	m.rows += c.dist + c.extra + c.dup
	m.queryWall += wall
	m.extraRows += c.extra
	m.refRows += c.total
	m.gotRows += c.dist
	m.attempted++
	switch {
	case c.extra+c.dup > 0:
		m.fail("%s: %d rows not in the reference, %d duplicates", kind, c.extra, c.dup)
	case !faulty && !c.complete():
		m.fail("%s: %d of %d reference rows by the deadline", kind, c.dist, c.total)
	}
}

// queryError records a query the initiator refused.
func (m *meter) queryError(kind string, err error) {
	m.attempted++
	m.errorf("%s: %v", kind, err)
}

// correct reports whether every answer was right. On a fault-free
// workload no operation may fail. On a faulty one, lost rows lower
// recall and duplicates count in error_rate, but a query that errors,
// a publish never stored, or a row outside the reference is wrong.
func (m *meter) correct(faulty bool) bool {
	if m.attempted == 0 {
		return false
	}
	if faulty {
		return m.errors == 0 && m.extraRows == 0
	}
	return m.failed == 0
}

// errorf records a failed operation that returned no answer at all.
func (m *meter) errorf(format string, args ...any) {
	m.errors++
	m.fail(format, args...)
}

func (m *meter) fail(format string, args ...any) {
	m.failed++
	if len(m.failures) < 5 {
		m.failures = append(m.failures, fmt.Sprintf(format, args...))
	}
}

func (m *meter) queries() int {
	n := 0
	for _, v := range m.wallMs {
		n += len(v)
	}
	return n
}

// rowKey is a result row of up to three integer columns.
type rowKey [3]int64

// rowCheck compares received rows with a reference multiset. A row the
// reference lacks, or more copies than it holds, is a wrong answer;
// missing rows only lower recall.
type rowCheck struct {
	arity int
	want  map[rowKey]int
	got   map[rowKey]int
	total int
	// dist counts reference rows received; extra counts rows the
	// reference lacks, dup copies beyond the reference's count.
	dist, extra, dup int
}

func newRowCheck(arity int, ref []rowKey) *rowCheck {
	c := &rowCheck{arity: arity, want: make(map[rowKey]int, len(ref)), got: make(map[rowKey]int, len(ref))}
	for _, k := range ref {
		c.want[k]++
		c.total++
	}
	return c
}

// row checks one received tuple.
func (c *rowCheck) row(t *pier.Tuple) {
	var k rowKey
	if len(t.Vals) != c.arity {
		c.extra++
		return
	}
	for i, v := range t.Vals {
		x, ok := v.(int64)
		if !ok {
			c.extra++
			return
		}
		k[i] = x
	}
	c.got[k]++
	switch w := c.want[k]; {
	case w == 0:
		c.extra++
	case c.got[k] > w:
		c.dup++
	default:
		c.dist++
	}
}

func (c *rowCheck) complete() bool { return c.dist == c.total }

// run sets the workload up setupReps times, then drives the closed loop
// for d. A traced run builds once, profiles setup and the query phase,
// and reports per-layer metrics.
func run(w *spec, seed int64, d time.Duration, traced, small bool) (*result, error) {
	if traced {
		return runTraced(w, seed, d, small)
	}
	reps := w.setupReps
	if small {
		reps = 1
	}
	build := w.prepare(seed, small)
	var dep deployment
	var setups, heaps []float64
	for i := 0; i < reps; i++ {
		if dep != nil {
			dep.close()
			dep = nil
		}
		base := settledHeap()
		start := time.Now()
		var err error
		if dep, err = build(); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(start).Seconds())
		heaps = append(heaps, float64(int64(settledHeap())-int64(base))/float64(dep.nodes()))
	}
	defer dep.close()

	if err := warmUp(dep); err != nil {
		return nil, err
	}
	dur, steps := w.loop(d)
	m := newMeter()
	m.collect = true
	if _, err := drive(dep, m, dur, steps, false); err != nil {
		return nil, err
	}
	res := &result{Workload: w.name, Attempted: m.attempted, Failed: m.failed}
	res.Correct = m.correct(w.faulty)
	for _, f := range m.failures {
		fmt.Fprintf(os.Stderr, "%s: failed: %s\n", w.name, f)
	}
	res.add("setup_s", median(setups), "s")
	res.add("query_wall_ms.p50", m.perQuery(m.wallMs), "ms")
	res.add("rows_per_s", ratio(float64(m.rows), m.queryWall.Seconds()), "1/s")
	res.add("query_bytes", m.perQuery(m.qBytes), "B")
	res.add("query_msgs", m.perQuery(m.qMsgs), "count")
	res.add("recall", ratio(float64(m.gotRows), float64(m.refRows)), "ratio")
	res.add("heap_bytes_per_node", median(heaps), "B")

	for _, k := range m.kinds {
		ms := m.wallMs[k]
		res.extra("query_wall_ms.p50."+k, median(ms), "ms", fmt.Sprintf("n=%d", len(ms)))
		if p, v, beyond, ok := tail(ms); ok {
			res.extra("query_wall_ms.tail."+k, v, "ms", fmt.Sprintf("p%g, n=%d, %d beyond", p, len(ms), beyond))
		} else {
			res.extra("query_wall_ms.tail."+k, math.NaN(), "ms", fmt.Sprintf("not reported: n=%d < 40", len(ms)))
		}
	}
	if m.pubRows > 0 {
		res.extra("publish_rows_per_s", float64(m.pubRows)/m.pubWall.Seconds(), "1/s", "")
	}
	if w.simulated {
		res.extra("sim_time_to_kth_s", median(m.simKth), "s", "k=30, median over queries")
		res.extra("sim_time_to_last_s", median(m.simLast), "s", "median over queries")
	}
	if m.bgVirtual > 0 {
		res.extra("background_bytes_per_node_s", float64(m.bgBytes)/m.bgVirtual.Seconds()/float64(dep.nodes()), "B/s", "")
	}
	res.extra("error_rate", float64(m.failed)/float64(max(m.attempted, 1)), "ratio",
		fmt.Sprintf("%d of %d operations", m.failed, m.attempted))
	return res, nil
}

// drive runs the closed loop for at least steps steps and until d has
// elapsed, recording into m, and returns the layer counters' deltas
// over the loop.
func drive(dep deployment, m *meter, d time.Duration, steps int, traced bool) (loopStats, error) {
	var ms0, ms1 runtime.MemStats
	c0 := dep.counters()
	runtime.ReadMemStats(&ms0)
	start := time.Now()
	for i := 0; i < steps || time.Since(start) < d; i++ {
		if err := dep.step(m, traced); err != nil {
			return loopStats{}, err
		}
	}
	wall := time.Since(start)
	runtime.ReadMemStats(&ms1)
	c1 := dep.counters()
	return loopStats{
		wall:    wall,
		delta:   c1.minus(c0),
		mallocs: ms1.Mallocs - ms0.Mallocs,
		gcs:     ms1.NumGC - ms0.NumGC,
	}, nil
}

// loop returns drive's duration and step count for a run of length d.
func (w *spec) loop(d time.Duration) (time.Duration, int) {
	if w.stepRate > 0 {
		return 0, max(2, int(w.stepRate*d.Seconds()+0.5))
	}
	return d, 1
}

// warmUp runs one untimed step: the first query at each node pays
// one-off lazy set-up (per-node engine maps, histograms) that later
// queries do not.
func warmUp(dep deployment) error {
	_, err := drive(dep, newMeter(), 0, 1, false)
	return err
}

type loopStats struct {
	wall    time.Duration
	delta   counters
	mallocs uint64
	gcs     uint32
}

// perQuery is the median of a per-query sample. A workload that mixes
// query kinds reports the geometric mean of the per-kind medians, so
// the figure neither flips between the kinds' modes nor lets one kind
// hide a change in the other.
func (m *meter) perQuery(byKind map[string][]float64) float64 {
	switch len(m.kinds) {
	case 0:
		return 0
	case 1:
		return median(byKind[m.kinds[0]])
	}
	logSum := 0.0
	for _, k := range m.kinds {
		logSum += math.Log(median(byKind[k]))
	}
	return math.Exp(logSum / float64(len(m.kinds)))
}

// collect runs a full collection on every CPU. It is only called
// outside timed windows, so the one-P setting of the simulated
// workloads need not slow it down.
func collect() {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(runtime.NumCPU()))
	runtime.GC()
}

// settledHeap collects until the live heap stops shrinking. Closed
// sockets are freed only after their finalizers ran, so each round
// gives the finalizer goroutine a moment before the next collection.
func settledHeap() uint64 {
	var ms runtime.MemStats
	least := uint64(math.MaxUint64)
	for i := 0; i < 10; i++ {
		collect()
		time.Sleep(5 * time.Millisecond)
		runtime.ReadMemStats(&ms)
		if ms.HeapAlloc >= least {
			break
		}
		least = ms.HeapAlloc
	}
	return least
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// tail returns the highest of a fixed ladder of percentiles that has
// at least ten samples beyond it.
func tail(v []float64) (p, value float64, beyond int, ok bool) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	for _, p := range []float64{99.9, 99, 95, 90, 75} {
		idx := int(math.Ceil(p/100*float64(len(s)))) - 1
		if idx < 0 {
			continue
		}
		if b := len(s) - 1 - idx; b >= 10 {
			return p, s[idx], b, true
		}
	}
	return 0, 0, 0, false
}
