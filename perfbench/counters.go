package main

import (
	"fireflyrpc/internal/cluster"
	"fireflyrpc/internal/transport"
)

// counters is a snapshot of the program's own counters across a world;
// per-layer metrics are deltas of two snapshots around a measured window.
type counters struct {
	callsSent   int64 // proto: calls originated, all nodes
	retransmits int64
	staleDrops  int64
	served      []int64 // proto CallsServed, per serving node
	tr          transport.Stats
	cl          cluster.Stats
	applies     int64 // kvstore: writes that advanced a key, all replicas
	kv          kvCounts
}

func (w *world) snapshot() counters {
	var c counters
	for _, n := range w.nodes {
		s := n.Conn().Stats()
		c.callsSent += s.CallsSent
		c.retransmits += s.Retransmits
		c.staleDrops += s.StaleDrops
		if ts, ok := n.Conn().TransportStats(); ok {
			c.tr.SendFrames += ts.SendFrames
			c.tr.SendBatches += ts.SendBatches
			c.tr.RecvFrames += ts.RecvFrames
			c.tr.RecvBatches += ts.RecvBatches
		}
	}
	for _, n := range w.servers {
		c.served = append(c.served, n.Conn().Stats().CallsServed)
	}
	if w.cluster != nil {
		c.cl = w.cluster.Stats()
	}
	for _, s := range w.stores {
		c.applies += s.Stats().Applies
	}
	if w.kv != nil {
		c.kv = w.kv.counts()
	}
	return c
}

// layerCounters adds the counter-derived per-layer metrics for the window
// between snapshots a and b. A ratio whose base did not move reads 0.
func layerCounters(m map[string]metric, a, b counters, w *world) {
	kcalls := float64(b.callsSent-a.callsSent) / 1e3
	per := func(n int64, base float64) float64 {
		if base == 0 {
			return 0
		}
		return float64(n) / base
	}
	m["transport.frames_per_send_syscall"] = metric{ratio(b.tr.SendFrames-a.tr.SendFrames, b.tr.SendBatches-a.tr.SendBatches), "count"}
	m["transport.frames_per_recv_syscall"] = metric{ratio(b.tr.RecvFrames-a.tr.RecvFrames, b.tr.RecvBatches-a.tr.RecvBatches), "count"}
	m["proto.retransmits_per_kcall"] = metric{per(b.retransmits-a.retransmits, kcalls), "count"}
	m["proto.stale_drops_per_kcall"] = metric{per(b.staleDrops-a.staleDrops, kcalls), "count"}

	calls := b.cl.Calls - a.cl.Calls
	fired := b.cl.HedgesFired - a.cl.HedgesFired
	m["cluster.issued_per_call"] = metric{ratio(b.cl.Issued-a.cl.Issued, calls), "ratio"}
	m["cluster.hedges_per_kcall"] = metric{per(fired, float64(calls)/1e3), "count"}
	m["cluster.hedge_win_ratio"] = metric{ratio(b.cl.HedgesWon-a.cl.HedgesWon, fired), "ratio"}
	var total, top int64
	for i := range b.served {
		d := b.served[i] - a.served[i]
		total += d
		if d > top {
			top = d
		}
	}
	m["cluster.max_replica_share"] = metric{ratio(top, total), "ratio"}

	kv := b.kv.sub(a.kv)
	m["kvstore.applies_per_put"] = metric{ratio(b.applies-a.applies, kv.puts), "ratio"}
	m["kvstore.stale_reads_per_kread"] = metric{per(kv.stale, float64(kv.anyReads)/1e3), "count"}
	m["kvstore.version_ties_per_kput"] = metric{per(kv.ties, float64(kv.puts)/1e3), "count"}
}
