package main

import (
	"pier"
)

// counters is a snapshot of a deployment's cumulative layer counters,
// read through the nodes' public stats surfaces.
type counters struct {
	events                         int64 // simulator events processed
	msgs, bytes                    int64 // network messages and bytes sent
	lookups, hops                  int64 // CAN lookups and their hops
	resultFrames, resultTuples     uint64
	creditStalls                   uint64
	evicted, throttled             int64
	linkFrames, linkBatches, drops uint64
	// items is a gauge: soft-state items held by live nodes.
	items int
}

func (c counters) minus(o counters) counters {
	return counters{
		events:       c.events - o.events,
		msgs:         c.msgs - o.msgs,
		bytes:        c.bytes - o.bytes,
		lookups:      c.lookups - o.lookups,
		hops:         c.hops - o.hops,
		resultFrames: c.resultFrames - o.resultFrames,
		resultTuples: c.resultTuples - o.resultTuples,
		creditStalls: c.creditStalls - o.creditStalls,
		evicted:      c.evicted - o.evicted,
		throttled:    c.throttled - o.throttled,
		linkFrames:   c.linkFrames - o.linkFrames,
		linkBatches:  c.linkBatches - o.linkBatches,
		drops:        c.drops - o.drops,
		items:        c.items,
	}
}

// addNode folds one node's engine, storage and routing counters into c.
// Link counters are added by the caller: only real nodes have them.
func (c *counters) addNode(n *pier.Node, alive bool) {
	qs := n.QueryStats()
	c.resultFrames += qs.ResultBatches
	c.resultTuples += qs.ResultTuples
	c.creditStalls += qs.CreditStalls
	ss := n.StorageStats()
	c.evicted += ss.ItemsEvicted
	c.throttled += ss.PutsThrottled
	if r, ok := n.Router().(interface{ LookupStats() (count, hops int64) }); ok {
		lc, lh := r.LookupStats()
		c.lookups += lc
		c.hops += lh
	}
	if alive {
		c.items += n.Provider().Store().TotalLen()
	}
}
