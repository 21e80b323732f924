package main

import (
	"fmt"
	"math/rand"
	"time"

	"pier"
	"pier/internal/core"
	"pier/internal/env"
	"pier/internal/topology"
	"pier/internal/workload"
)

// kth is the paper's "time to the 30th result tuple" (§5.3).
const kth = 30

// simDep is the state every simulated workload shares: the network,
// the load accounting, and the event count the loop has processed.
type simDep struct {
	sn        *pier.SimNetwork
	events    int64
	loadItems int
	loadWall  time.Duration
	// rng picks initiators and predicate constants; seeded from the
	// workload seed so a run's query sequence is reproducible.
	rng *rand.Rand
	q   int
	// faulty deployments lose rows on purpose, so a read cannot know
	// when its answer is complete: it waits out its whole window.
	faulty bool
	// settle lets a cancelled query's traffic finish. Maintenance-off
	// workloads drain the event queue; churn2k runs a fixed window,
	// since its periodic timers never let the queue empty.
	settle func()
}

func (d *simDep) nodes() int                      { return len(d.sn.Nodes) }
func (d *simDep) loadStats() (int, time.Duration) { return d.loadItems, d.loadWall }
func (d *simDep) close()                          { d.sn = nil }
func (d *simDep) drain()                          { d.events += int64(d.sn.Net.Drain()) }
func (d *simDep) runFor(t time.Duration)          { d.events += int64(d.sn.Net.RunFor(t)) }
func (d *simDep) load(table, rid string, iid int64, t *pier.Tuple, life time.Duration) {
	start := time.Now()
	d.sn.Load(table, rid, iid, t, life)
	d.loadWall += time.Since(start)
	d.loadItems++
}

// until is the stop condition of a read: its answer is complete, or,
// on a faulty deployment, never (the window runs out).
func (d *simDep) until(chk *rowCheck) func() bool {
	if d.faulty {
		return func() bool { return false }
	}
	return chk.complete
}

func (d *simDep) counters() counters {
	c := counters{events: d.events}
	tot := d.sn.Net.Totals()
	c.msgs, c.bytes = tot.Messages, tot.Bytes
	for i, n := range d.sn.Nodes {
		c.addNode(n, d.sn.Alive(i))
	}
	return c
}

// query runs one plan from node `from` as a closed-loop operation: it
// issues the plan, advances the simulation until the read may stop (see
// until) or limit of virtual time passes, cancels, and lets the cancel
// traffic settle. The wall time covers all of it; the traffic window
// too.
//
// before, when set, runs just before the cancel, while the query is
// still open at the initiator.
func (d *simDep) query(m *meter, kind string, from int, plan *pier.Plan, chk *rowCheck,
	limit time.Duration, traced bool, before func(id uint64)) {
	sn := d.sn
	node := sn.Nodes[from]
	plan.Trace = traced
	// An end-to-end run starts every query from a collected heap.
	// Otherwise whether a collection of the whole deployment (400 MB at
	// n=100k) lands inside a query depends on what the previous queries
	// left, and the median flips between queries with and without one.
	// Collections the query's own allocations trigger are still timed.
	if m.collect {
		collect()
		m.forcedGCs++
	}
	tot0 := sn.Net.Totals()
	t0 := sn.Net.Now()
	var arrivals []time.Duration
	start := time.Now()
	id, err := node.Query(plan, func(t *core.Tuple, _ int) {
		arrivals = append(arrivals, sn.Net.Now().Sub(t0))
		chk.row(t)
	})
	m.queryStartUs = append(m.queryStartUs, float64(time.Since(start))/1e3)
	if err != nil {
		m.queryError(kind, err)
		return
	}
	done := d.until(chk)
	deadline := t0.Add(limit)
	d.events += int64(sn.Net.RunWhile(deadline, func() bool { return !done() }))
	if before != nil {
		before(id)
	}
	node.Cancel(id)
	d.settle()
	wall := time.Since(start)
	tot1 := sn.Net.Totals()
	m.query(kind, wall, tot1.Bytes-tot0.Bytes, tot1.Messages-tot0.Messages, chk, d.faulty)
	if n := len(arrivals); n > 0 {
		m.simKth = append(m.simKth, arrivals[min(kth, n)-1].Seconds())
		m.simLast = append(m.simLast, arrivals[n-1].Seconds())
	}
	if traced {
		if tr, ok := node.Trace(id); ok {
			m.traces++
			for _, s := range tr.Spans {
				m.stageMs[s.Stage.String()] += float64(s.Dur) / 1e6
			}
		}
	}
}

// joinTables generates the §5.1 R and S tables and the reference join
// for the paper's 50%-selective constants.
func joinTables(sTuples int, pad int, seed int64) (*workload.Tables, []rowKey, [3]int64) {
	tables := workload.Generate(workload.Config{STuples: sTuples, Seed: seed, PadBytes: pad})
	c1, c2, c3 := workload.Constants(0.5, 0.5, 0.5)
	var ref []rowKey
	for _, p := range tables.ReferenceJoin(c1, c2, c3) {
		ref = append(ref, rowKey{p[0], p[1]})
	}
	return tables, ref, [3]int64{c1, c2, c3}
}

// joinQuery runs the §5.1 join with the given strategy and checks it
// against the reference.
func (d *simDep) joinQuery(m *meter, from int, ref []rowKey, c [3]int64, s pier.Strategy, limit time.Duration, traced bool) {
	plan := workload.JoinPlan(s, c[0], c[1], c[2])
	plan.TTL = limit
	chk := newRowCheck(2, ref)
	kind := map[pier.Strategy]string{pier.SymmetricHash: "symmetric_hash", pier.FetchMatches: "fetch_matches"}[s]
	d.query(m, kind, from, plan, chk, limit, traced, nil)
}

// join4k is the paper's headline query (§5.1, Figures 3-4): the R⋈S
// join over a stabilized 4096-node CAN with |S| = 2n, alternating the
// symmetric-hash and fetch-matches strategies.
var join4k = &spec{
	name:      "join4k",
	setupReps: 3,
	simulated: true,
	prepare: func(seed int64, small bool) func() (deployment, error) {
		n := 4096
		if small {
			n = 64
		}
		tables, ref, c := joinTables(2*n, 0, seed)
		return func() (deployment, error) {
			d := &simDep{sn: pier.NewSimNetwork(n, topology.NewFullMesh(), seed, pier.DefaultOptions()),
				rng: rand.New(rand.NewSource(seed))}
			d.settle = d.drain
			for i, r := range tables.R {
				d.load("R", core.ValueString(r.Vals[workload.RPkey]), int64(i), r, 0)
			}
			for i, s := range tables.S {
				d.load("S", core.ValueString(s.Vals[workload.SPkey]), int64(i), s, 0)
			}
			return &join4kDep{simDep: d, ref: ref, c: c}, nil
		}
	},
}

type join4kDep struct {
	*simDep
	ref []rowKey
	c   [3]int64
}

func (d *join4kDep) step(m *meter, traced bool) error {
	s := pier.SymmetricHash
	if d.q%2 == 1 {
		s = pier.FetchMatches
	}
	d.q++
	d.joinQuery(m, d.rng.Intn(d.nodes()), d.ref, d.c, s, 30*time.Minute, traced)
	return nil
}

// scan100k is multicast fan-out at scale: a 100,000-node overlay and a
// 200-row table, each query a network-wide scan from a new initiator.
var scan100k = &spec{
	name:      "scan100k",
	setupReps: 2,
	simulated: true,
	prepare: func(seed int64, small bool) func() (deployment, error) {
		n := 100_000
		if small {
			n = 256
		}
		const rows = 200
		rng := rand.New(rand.NewSource(seed))
		ref := make([]rowKey, rows)
		for i := range ref {
			ref[i] = rowKey{int64(i), rng.Int63n(1_000_000)}
		}
		return func() (deployment, error) {
			d := &simDep{sn: pier.NewSimNetwork(n, topology.NewFullMesh(), seed, pier.DefaultOptions()),
				rng: rand.New(rand.NewSource(seed))}
			d.settle = d.drain
			for _, r := range ref {
				d.load("u", fmt.Sprint(r[0]), r[0], &pier.Tuple{Rel: "u", Vals: []pier.Value{r[0], r[1]}}, 0)
			}
			return &scanDep{simDep: d, ref: ref}, nil
		}
	},
}

var scanCatalog = pier.Catalog{"u": {Name: "u", Cols: []string{"pkey", "v"}, Key: "pkey"}}

type scanDep struct {
	*simDep
	ref []rowKey
}

func (d *scanDep) step(m *meter, traced bool) error {
	start := time.Now()
	plan, err := pier.ParseSQL("SELECT pkey, v FROM u", scanCatalog)
	m.parseUs = append(m.parseUs, float64(time.Since(start))/1e3)
	if err != nil {
		return fmt.Errorf("parse scan: %w", err)
	}
	const limit = 2 * time.Minute
	plan.TTL = limit
	chk := newRowCheck(2, d.ref)
	d.query(m, "scan", d.rng.Intn(d.nodes()), plan, chk, limit, traced, nil)
	return nil
}

// churn2k is the only workload with background work: CAN maintenance,
// soft-state renewal and expiry, PHT maintenance, and nodes crashing
// and rejoining while joins and indexed range selections run.
var churn2k = &spec{
	name:      "churn2k",
	setupReps: 3,
	simulated: true,
	faulty:    true,
	stepRate:  1,
	prepare:   prepareChurn,
}

const (
	churnRefresh    = 60 * time.Second // publisher renewal period
	churnCrashesMin = 32               // crash/rejoin rate per virtual minute
	churnWarmup     = 60 * time.Second // overlay and index settle before the reads
	churnWindow     = 30 * time.Second // a read's deadline
	churnSettle     = 3 * time.Second  // cancel traffic after a read
	churnGap        = 5 * time.Second  // background-only time between reads
	rangeDomain     = 1_000_000
	// churnNetSeed fixes the overlay and the crash schedule: they are
	// the workload's definition, while --seed varies the tables and the
	// range constants. Overlays that degrade differently under churn
	// would otherwise spread the figures by more than any bound.
	churnNetSeed = 1
)

type churnDep struct {
	*simDep
	ref     []rowKey
	c       [3]int64
	tvals   []int64
	pub     int
	crashes int
}

func prepareChurn(seed int64, small bool) func() (deployment, error) {
	n, sTuples, tRows := 2048, 1000, 1000
	if small {
		n, sTuples, tRows = 64, 40, 100
	}
	tables, ref, c := joinTables(sTuples, 64, seed)
	rng := rand.New(rand.NewSource(seed))
	tvals := make([]int64, tRows)
	for i := range tvals {
		tvals[i] = rng.Int63n(rangeDomain)
	}
	return func() (deployment, error) {
		opts := pier.DefaultOptions()
		opts.CANConfig.Maintenance = true
		opts.ProviderConfig.ActiveExpiry = true
		// Under churn, dissemination must survive not-yet-detected
		// failures (the settings of the Figure 6 harness).
		opts.ProviderConfig.RobustMulticast = true
		opts.ProviderConfig.PutRetries = 3
		opts.ProviderConfig.PutRetryDelay = 3 * time.Second
		opts.CANConfig.LookupTimeout = 8 * time.Second
		opts.Index.Interval = 10 * time.Second
		sn := pier.NewSimNetwork(n, topology.NewFullMesh(), churnNetSeed, opts)
		d := &churnDep{simDep: &simDep{sn: sn, rng: rand.New(rand.NewSource(seed)), faulty: true}, ref: ref, c: c, tvals: tvals}
		d.settle = func() { d.runFor(churnSettle) }

		// The publisher (node 0) stands in for the data wrappers: it is
		// never crashed, and renews every tuple each refresh period with
		// a per-tuple phase (§3.2.3).
		type item struct {
			ns, rid string
			iid     int64
			t       *pier.Tuple
		}
		var items []item
		for i, r := range tables.R {
			items = append(items, item{"R", core.ValueString(r.Vals[workload.RPkey]), int64(i), r})
		}
		for i, s := range tables.S {
			items = append(items, item{"S", core.ValueString(s.Vals[workload.SPkey]), int64(i), s})
		}
		for i, v := range tvals {
			items = append(items, item{"T", fmt.Sprint(i), int64(i), &pier.Tuple{Rel: "T", Vals: []pier.Value{int64(i), v}}})
		}
		lifetime := 2 * churnRefresh
		for _, it := range items {
			d.load(it.ns, it.rid, it.iid, it.t, lifetime)
		}
		pnode := sn.Nodes[d.pub]
		if err := pnode.Exec("CREATE INDEX t_num ON T (num)", churnIndexed); err != nil {
			return nil, fmt.Errorf("create index: %w", err)
		}
		penv := sn.Net.Node(d.pub)
		for i, it := range items {
			it := it
			phase := time.Duration(float64(churnRefresh) * float64(i) / float64(len(items)))
			penv.After(phase, func() {
				pnode.Renew(it.ns, it.rid, it.iid, it.t, lifetime)
				env.Every(penv, churnRefresh, func() { pnode.Renew(it.ns, it.rid, it.iid, it.t, lifetime) })
			})
		}
		// Crash a random live non-publisher at a fixed rate; a fresh
		// node joins through the publisher so the population holds.
		interval := time.Minute / churnCrashesMin
		crng := penv.Rand()
		var crash func()
		crash = func() {
			for tries := 0; tries < 32; tries++ {
				if v := 1 + crng.Intn(sn.Net.Len()-1); sn.Alive(v) {
					sn.Crash(v)
					d.crashes++
					break
				}
			}
			sn.AddNode(d.pub)
			penv.After(interval, crash)
		}
		penv.After(interval, crash)
		d.runFor(churnWarmup)
		return d, nil
	}
}

// nodes counts live nodes: each crashed node is replaced by a new one.
func (d *churnDep) nodes() int { return len(d.sn.Nodes) - d.crashes }

func (d *churnDep) step(m *meter, traced bool) error {
	if d.q%2 == 0 {
		// Reads start at the publisher, which never crashes: a crashed
		// initiator would lose the whole answer, not a share of it.
		d.joinQuery(m, d.pub, d.ref, d.c, pier.SymmetricHash, churnWindow, traced)
	} else if err := d.rangeQuery(m, traced); err != nil {
		return err
	}
	d.q++
	// Background only: renewals, maintenance, churn; no query runs.
	b0 := d.sn.Net.Totals().Bytes
	d.runFor(churnGap)
	m.bgBytes += d.sn.Net.Totals().Bytes - b0
	m.bgVirtual += churnGap
	return nil
}

// rangeQuery runs an indexed range selection num < cut with a cut
// drawn for 5-15% selectivity, checked against the generated table.
func (d *churnDep) rangeQuery(m *meter, traced bool) error {
	cut := rangeDomain/20 + d.rng.Int63n(rangeDomain/10)
	var ref []rowKey
	for i, v := range d.tvals {
		if v < cut {
			ref = append(ref, rowKey{int64(i), v})
		}
	}
	start := time.Now()
	plan, err := pier.ParseSQL(fmt.Sprintf("SELECT pkey, num FROM T WHERE num < %d", cut), churnIndexed)
	m.parseUs = append(m.parseUs, float64(time.Since(start))/1e3)
	if err != nil {
		return fmt.Errorf("parse range selection: %w", err)
	}
	if plan.Tables[0].IndexScan == nil {
		return fmt.Errorf("range selection planned without the index")
	}
	plan.AutoAccess = false // the index path, not the catalog's choice
	plan.TTL = churnWindow
	chk := newRowCheck(2, ref)
	d.query(m, "range", d.pub, plan, chk, churnWindow, traced, func(id uint64) {
		if n, ok := d.sn.Nodes[d.pub].Engine().IndexContacts(id); ok {
			m.indexContacts = append(m.indexContacts, float64(n))
		}
	})
	return nil
}

var churnIndexed = pier.Catalog{"T": {Name: "T", Cols: []string{"pkey", "num"}, Key: "pkey",
	Indexes: []pier.SQLIndex{{Name: "t_num", Col: "num"}}}}
