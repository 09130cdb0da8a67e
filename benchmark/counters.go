package main

import (
	"doceph/internal/cluster"
	"doceph/internal/doca"
)

// counterID indexes one summed Stats() counter.
type counterID int

const (
	cEvents counterID = iota
	cClientOps
	cMsgrSent
	cMsgrBytes
	cRedeliveries
	cStreamChunks
	cClientWrites
	cClientReads
	cRepOps
	cRepRetries
	cBalancedReads
	cStreamWrites
	cProxyTxns
	cFallbackTxns
	cBatchedTxns
	cBatchFlushes
	cBatchFlushIdle
	cHostSegments
	cHostFrames // batch frames: the batched path's DMA completions
	cHostPolls
	cTransfers
	cTransferBytes
	cTransferErrors
	cEngineBusyNs
	cEngineWaitNs
	cNegotiations
	cStoreTxns
	cDirectWrites
	cDeferredWrites
	cKVSyncs
	cStoreBytes
	nCounters
)

// counters holds every layer's Stats() counters summed over the nodes of
// one or more clusters at one instant. Two snapshots subtract into the
// delta over a window. Being an array it compares with ==, which is how
// repetitions are checked to have simulated the same thing.
type counters [nCounters]int64

func (c counters) sub(o counters) counters {
	for i := range c {
		c[i] -= o[i]
	}
	return c
}

// add folds cl's current counters into c.
func (c *counters) add(cl *cluster.Cluster) {
	c[cEvents] += int64(cl.Env.Events())
	c[cClientOps] += cl.Client.Stats().Ops
	for _, m := range cl.Registry.All() {
		st := m.Stats()
		c[cMsgrSent] += st.Sent
		c[cMsgrBytes] += st.BytesSent
		c[cRedeliveries] += st.Redeliveries
		c[cStreamChunks] += st.StreamChunksSent
	}
	for _, n := range cl.Nodes {
		os := n.OSD.Stats()
		c[cClientWrites] += os.ClientWrites
		c[cClientReads] += os.ClientReads
		c[cRepOps] += os.RepOpsServed
		c[cRepRetries] += os.RepRetries
		c[cBalancedReads] += os.BalancedReads
		c[cStreamWrites] += os.StreamWrites
		bs := n.Store.Stats()
		c[cStoreTxns] += bs.Transactions
		c[cDirectWrites] += bs.DirectWrites
		c[cDeferredWrites] += bs.DeferredWrites
		c[cKVSyncs] += bs.KVSyncCycles
		c[cStoreBytes] += bs.BytesWritten
		if n.Bridge == nil {
			continue
		}
		ps := n.Bridge.Proxy.Stats()
		c[cProxyTxns] += ps.DataPlaneTxns
		c[cFallbackTxns] += ps.FallbackTxns
		c[cBatchedTxns] += ps.BatchedTxns
		c[cBatchFlushes] += ps.BatchFlushes
		c[cBatchFlushIdle] += ps.BatchFlushIdle
		hs := n.Bridge.Host.Stats()
		c[cHostSegments] += hs.SegmentsViaDMA
		c[cHostFrames] += hs.BatchFrames
		c[cHostPolls] += hs.PollIterations
		for _, e := range []*doca.Engine{n.Bridge.EngUp, n.Bridge.EngDown} {
			es := e.Stats()
			c[cTransfers] += es.Transfers
			c[cTransferBytes] += es.Bytes
			c[cTransferErrors] += es.Errors
			c[cEngineBusyNs] += int64(es.Busy)
			c[cEngineWaitNs] += int64(es.TotalWait)
		}
		c[cNegotiations] += n.Bridge.CC.Negotiations()
	}
}

// snapshot sums the counters of every cluster given.
func snapshot(cls ...*cluster.Cluster) counters {
	var c counters
	for _, cl := range cls {
		c.add(cl)
	}
	return c
}
