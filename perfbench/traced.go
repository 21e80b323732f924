package main

import (
	"bytes"
	"fmt"
	"os"
	"runtime/pprof"
	"time"

	"pier/internal/core"
	"pier/internal/trace"
)

// runTraced is the per-layer run. It builds the deployment once under
// a CPU profile (for the overlay-build attribution), drives the loop
// untraced for half the time, then traced for the other half: a CPU
// profile, and Plan.Trace on simulated queries. The difference in
// query_wall_ms.p50 between the halves is the tracing overhead.
// Neither half collects between queries, so the profile shows the
// collector's natural share.
func runTraced(w *spec, seed int64, d time.Duration, small bool) (*result, error) {
	build := w.prepare(seed, small)
	var setupProf, loopProf bytes.Buffer
	if err := pprof.StartCPUProfile(&setupProf); err != nil {
		return nil, err
	}
	dep, err := build()
	pprof.StopCPUProfile()
	if err != nil {
		return nil, err
	}
	defer dep.close()

	if err := warmUp(dep); err != nil {
		return nil, err
	}
	dur, steps := w.loop(d / 2)
	plain, traced := newMeter(), newMeter()
	if _, err := drive(dep, plain, dur, steps, false); err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(&loopProf); err != nil {
		return nil, err
	}
	ls, err := drive(dep, traced, dur, steps, true)
	pprof.StopCPUProfile()
	if err != nil {
		return nil, err
	}

	res := &result{Workload: w.name, Attempted: plain.attempted + traced.attempted,
		Failed: plain.failed + traced.failed}
	res.Correct = plain.correct(w.faulty) && traced.correct(w.faulty)
	for _, f := range append(plain.failures, traced.failures...) {
		fmt.Fprintf(os.Stderr, "%s: failed: %s\n", w.name, f)
	}

	sp, err := parseCPUProfile(setupProf.Bytes())
	if err != nil {
		return nil, err
	}
	lp, err := parseCPUProfile(loopProf.Bytes())
	if err != nil {
		return nil, err
	}
	cpu := lp.byLayer()
	total := 0.0
	for _, s := range cpu {
		total += s
	}
	for _, l := range layers {
		share := 0.0
		if total > 0 {
			share = cpu[l] / total
		}
		res.add(l+".cpu_share", share, "ratio")
		res.add(l+".cpu_s", cpu[l], "s")
	}
	res.add("can.bootstrap_cpu_s", sp.within("pier/internal/dht/can.Bootstrap"), "s")

	q := float64(traced.queries())
	c := ls.delta
	res.add("simnet.events_per_query", ratio(float64(c.events), q), "count")
	res.add("simnet.events_per_s", float64(c.events)/ls.wall.Seconds(), "1/s")
	res.add("can.lookups", ratio(float64(c.lookups), q), "count")
	res.add("can.hops_per_lookup", ratio(float64(c.hops), float64(c.lookups)), "count")
	windowMsgs := 0.0
	for _, k := range traced.kinds {
		for _, v := range traced.qMsgs[k] {
			windowMsgs += v
		}
	}
	res.add("multicast.msgs_per_node", ratio(windowMsgs-float64(c.resultFrames), q*float64(dep.nodes())), "count")
	items, loadWall := dep.loadStats()
	res.add("storage.load_us_per_item", ratio(float64(loadWall)/1e3, float64(items)), "us")
	res.add("storage.items", float64(c.items), "count")
	res.add("storage.evicted", float64(c.evicted), "count")
	res.add("provider.puts_throttled", float64(c.throttled), "count")
	res.add("core.result_frames", ratio(float64(c.resultFrames), q), "count")
	res.add("core.tuples_per_frame", ratio(float64(c.resultTuples), float64(c.resultFrames)), "count")
	res.add("core.credit_stalls", ratio(float64(c.creditStalls), q), "count")
	res.add("core.query_start_us", median(traced.queryStartUs), "us")
	res.add("sql.parse_us", median(traced.parseUs), "us")
	res.add("index.contacts", median(traced.indexContacts), "count")

	var tp core.TuplePathCost
	if w == tcp2 {
		// The codec in isolation, on the result frames the engine ships
		// (32 tuples each), with the pooled encode and interned decode.
		if tp, err = core.MeasureTuplePath(32, 4000, true); err != nil {
			return nil, err
		}
	}
	res.add("wire.encode_ns_per_tuple", ratio(1e9, tp.EncodeTuplesPerSec), "ns")
	res.add("wire.decode_ns_per_tuple", ratio(1e9, tp.DecodeTuplesPerSec), "ns")
	res.add("wire.allocs_per_frame", tp.EncodeAllocs+tp.DecodeAllocs, "count")
	res.add("realnet.frames_per_batch", ratio(float64(c.linkFrames), float64(c.linkBatches)), "count")
	res.add("realnet.drops", float64(c.drops), "count")
	res.add("runtime.allocs_per_query", ratio(float64(ls.mallocs), q), "count")
	res.add("gc.cycles_per_query", ratio(float64(int(ls.gcs)-traced.forcedGCs), q), "count")
	res.add("trace.overhead_ms", traced.perQuery(traced.wallMs)-plain.perQuery(plain.wallMs), "ms")
	for _, st := range trace.StageNames() {
		res.add("trace."+st+"_ms", ratio(traced.stageMs[st], float64(traced.traces)), "ms")
	}
	return res, nil
}

// ratio is a/b, or 0 when b is 0 (a layer the workload does not run).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
