package main

import (
	"fmt"
	"sync"
	"time"

	"pier"
	"pier/internal/core"
	"pier/internal/env"
	"pier/internal/workload"
)

// tcp2 is the only workload on the real transport: two nodes on
// loopback TCP in this process, so the codec and realnet run. One
// client goroutine publishes a chunk and waits until the owners hold
// it, then runs a filtered scan and a grouped aggregate.
var tcp2 = &spec{
	name:      "tcp2",
	setupReps: 3,
	prepare:   prepareTCP,
}

const (
	tcpRows     = 4000 // |S|, loaded at setup
	tcpChunk    = 256  // rows per publish, within the per-peer outbox
	tcpAggWait  = 50 * time.Millisecond
	tcpDeadline = 10 * time.Second
)

var tcpCatalog = pier.Catalog{"S": {Name: "S", Cols: []string{"pkey", "num2", "num3"}, Key: "pkey"}}

type tcpDep struct {
	peers []*pier.RealNode
	load  time.Duration
	items int
	// scanRef and aggRef are the reference answers; pubSeq numbers the
	// rows the loop publishes.
	scanRef, aggRef []rowKey
	cut             int64
	pubSeq          int
	q               int
}

func prepareTCP(seed int64, small bool) func() (deployment, error) {
	rows := tcpRows
	if small {
		rows = 400
	}
	tables := workload.Generate(workload.Config{STuples: rows, Seed: seed})
	_, c2, _ := workload.Constants(0.5, 0.5, 0.5)
	var scanRef []rowKey
	groups := map[int64]*rowKey{}
	for _, s := range tables.S {
		pkey, n2, n3 := s.Vals[workload.SPkey].(int64), s.Vals[workload.SNum2].(int64), s.Vals[workload.SNum3].(int64)
		if n2 > c2 {
			scanRef = append(scanRef, rowKey{pkey, n2})
		}
		g := groups[n2]
		if g == nil {
			g = &rowKey{n2}
			groups[n2] = g
		}
		g[1]++
		g[2] += n3
	}
	var aggRef []rowKey
	for _, g := range groups {
		aggRef = append(aggRef, *g)
	}
	return func() (deployment, error) {
		d := &tcpDep{scanRef: scanRef, aggRef: aggRef, cut: c2}
		opts := pier.DefaultOptions()
		first, err := pier.StartNode("127.0.0.1:0", env.NilAddr, seed, opts)
		if err != nil {
			return nil, err
		}
		d.peers = append(d.peers, first)
		second, err := pier.StartNode("127.0.0.1:0", first.Addr(), seed+1, opts)
		if err != nil {
			d.close()
			return nil, err
		}
		d.peers = append(d.peers, second)
		if err := second.WaitJoin(tcpDeadline); err != nil {
			d.close()
			return nil, err
		}
		start := time.Now()
		for off := 0; off < len(tables.S); off += tcpChunk {
			chunk := tables.S[off:min(off+tcpChunk, len(tables.S))]
			if !d.publish("S", off, chunk) {
				d.close()
				return nil, fmt.Errorf("load: rows %d.. never stored", off)
			}
		}
		d.load, d.items = time.Since(start), len(tables.S)
		return d, nil
	}
}

func (d *tcpDep) nodes() int                      { return len(d.peers) }
func (d *tcpDep) loadStats() (int, time.Duration) { return d.items, d.load }

func (d *tcpDep) close() {
	for _, n := range d.peers {
		n.Close()
	}
	d.peers = nil
}

// stored counts the soft-state items both nodes hold.
func (d *tcpDep) stored() int {
	total := 0
	for _, n := range d.peers {
		n.Do(func() { total += n.Provider().Store().TotalLen() })
	}
	return total
}

// publish puts rows from alternating nodes and waits until the owners
// hold all of them. Puts are fire-and-forget and the transport drops
// frames beyond a peer's outbox, so a chunk is confirmed before the
// next is sent.
func (d *tcpDep) publish(table string, base int, rows []*pier.Tuple) bool {
	want := d.stored() + len(rows)
	for i, t := range rows {
		d.peers[(base+i)%2].Publish(table, fmt.Sprint(base+i), int64(base+i), t, time.Hour)
	}
	for deadline := time.Now().Add(tcpDeadline); time.Now().Before(deadline); time.Sleep(200 * time.Microsecond) {
		if d.stored() >= want {
			return true
		}
	}
	return false
}

func (d *tcpDep) counters() counters {
	c := counters{}
	for _, n := range d.peers {
		n.Do(func() { c.addNode(n.Node, true) })
	}
	ls := d.link()
	c.msgs, c.bytes = int64(ls.FramesSent), int64(ls.BytesSent)
	c.linkFrames, c.linkBatches, c.drops = ls.FramesSent, ls.BatchesSent, ls.Drops
	return c
}

// link sums both nodes' transport counters.
func (d *tcpDep) link() env.LinkStats {
	var s env.LinkStats
	for _, n := range d.peers {
		ls, _ := n.TransportStats() // always present on real nodes
		s.FramesSent += ls.FramesSent
		s.BatchesSent += ls.BatchesSent
		s.BytesSent += ls.BytesSent
		s.FramesRecv += ls.FramesRecv
		s.Drops += ls.Drops
	}
	return s
}

// quiet waits until every frame sent has been received: the query's
// cancel traffic has drained.
func (d *tcpDep) quiet() {
	for deadline := time.Now().Add(time.Second); time.Now().Before(deadline); time.Sleep(50 * time.Microsecond) {
		if ls := d.link(); ls.FramesSent == ls.FramesRecv {
			return
		}
	}
}

func (d *tcpDep) step(m *meter, _ bool) error {
	// The write: a fresh chunk of rows into a table the reads do not
	// scan, so the read answers stay fixed while the store grows.
	rows := make([]*pier.Tuple, tcpChunk)
	for i := range rows {
		rows[i] = &pier.Tuple{Rel: "P", Vals: []pier.Value{int64(d.pubSeq + i), int64(i)}}
	}
	start := time.Now()
	ok := d.publish("P", d.pubSeq, rows)
	m.pubWall += time.Since(start)
	m.attempted++
	if ok {
		m.pubRows += len(rows)
	} else {
		m.errorf("publish: rows %d.. never stored", d.pubSeq)
	}
	d.pubSeq += len(rows)

	if err := d.read(m, "scan", fmt.Sprintf("SELECT pkey, num2 FROM S WHERE num2 > %d", d.cut), 2, d.scanRef); err != nil {
		return err
	}
	return d.read(m, "aggregate", "SELECT num2, COUNT(*), SUM(num3) FROM S GROUP BY num2", 3, d.aggRef)
}

// read plans src, runs it from alternating initiators until the
// reference answer is complete or the deadline passes, cancels, and
// waits for the cancel traffic to drain.
func (d *tcpDep) read(m *meter, kind, src string, arity int, ref []rowKey) error {
	start := time.Now()
	plan, err := pier.ParseSQL(src, tcpCatalog)
	m.parseUs = append(m.parseUs, float64(time.Since(start))/1e3)
	if err != nil {
		return fmt.Errorf("parse %s: %w", kind, err)
	}
	plan.TTL = time.Minute
	plan.AggWait = tcpAggWait
	node := d.peers[d.q%2]
	d.q++

	var mu sync.Mutex
	chk := newRowCheck(arity, ref)
	complete := make(chan struct{})
	l0 := d.link()
	start = time.Now()
	id, err := node.Query(plan, func(t *core.Tuple, _ int) {
		mu.Lock()
		defer mu.Unlock()
		done := chk.complete()
		chk.row(t)
		if !done && chk.complete() {
			close(complete)
		}
	})
	m.queryStartUs = append(m.queryStartUs, float64(time.Since(start))/1e3)
	if err != nil {
		m.queryError(kind, err)
		return nil
	}
	select {
	case <-complete:
	case <-time.After(tcpDeadline):
	}
	node.Cancel(id)
	d.quiet()
	wall := time.Since(start)
	l1 := d.link()
	mu.Lock()
	defer mu.Unlock()
	m.query(kind, wall, int64(l1.BytesSent-l0.BytesSent), int64(l1.FramesSent-l0.FramesSent), chk, false)
	return nil
}
