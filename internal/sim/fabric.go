package sim

import "fmt"

// Fabric models an Ethernet switch fabric connecting named nodes. Each node
// owns one full-duplex NIC (independent tx and rx directions). A transfer
// occupies the sender's tx path and the receiver's rx path simultaneously
// (cut-through), serialized at the slower of the two NICs, then experiences
// the fabric's propagation latency. Contention therefore appears both when
// one node fans out to many peers (tx-bound) and when many peers converge on
// one node (rx-bound), which is what shapes the paper's incast-style
// replication traffic.
//
// The fabric also carries the network half of the fault-injection surface
// (package faultinject): per-node drop probability, added latency, bandwidth
// degradation and partition groups, all evaluated deterministically against
// the environment's seeded random stream.
type Fabric struct {
	env     *Env
	name    string
	Latency Duration
	nodes   map[string]*nic

	dropped int64
}

type nic struct {
	bytesPerSec float64
	txFree      Time
	rxFree      Time
	txBytes     int64
	rxBytes     int64

	// Fault state (zero values = healthy).
	dropProb     float64
	extraLatency Duration
	bwFactor     float64 // 0 means 1.0 (no degradation)
	partition    int     // nonzero groups only reach their own group
}

// NewFabric returns an empty fabric with the given propagation latency.
func NewFabric(env *Env, name string, latency Duration) *Fabric {
	return &Fabric{env: env, name: name, Latency: latency, nodes: make(map[string]*nic)}
}

// AddNode attaches a node with a NIC of the given line rate (bytes/second).
// A node is attached once: adding it again panics, since every Link resolved
// to its NIC would go on booking the one no longer attached.
func (f *Fabric) AddNode(node string, bytesPerSec float64) {
	if f.HasNode(node) {
		panic(fmt.Sprintf("sim: fabric %q: node %q attached twice", f.name, node))
	}
	f.nodes[node] = &nic{bytesPerSec: bytesPerSec}
}

// HasNode reports whether node is attached.
func (f *Fabric) HasNode(node string) bool { _, ok := f.nodes[node]; return ok }

// Nodes returns the number of attached nodes.
func (f *Fabric) Nodes() int { return len(f.nodes) }

func (f *Fabric) mustNode(role, node string) *nic {
	n, ok := f.nodes[node]
	if !ok {
		panic(fmt.Sprintf("sim: fabric %q: unknown %s node %q", f.name, role, node))
	}
	return n
}

// SetDropProb sets the probability that a frame touching node (as sender or
// receiver) is lost in flight. 0 restores lossless delivery.
func (f *Fabric) SetDropProb(node string, p float64) {
	f.mustNode("fault", node).dropProb = p
}

// SetExtraLatency adds d of propagation latency to every frame touching
// node (a latency spike). 0 restores the base latency.
func (f *Fabric) SetExtraLatency(node string, d Duration) {
	f.mustNode("fault", node).extraLatency = d
}

// SetBandwidthFactor scales node's NIC line rate by factor (0 < factor <= 1
// degrades; 0 restores full rate).
func (f *Fabric) SetBandwidthFactor(node string, factor float64) {
	f.mustNode("fault", node).bwFactor = factor
}

// SetPartitionGroup assigns node to a partition group. Frames between nodes
// in different groups are dropped; group 0 (the default) communicates with
// everyone, modelling a partial partition that isolates a set of nodes.
func (f *Fabric) SetPartitionGroup(node string, group int) {
	f.mustNode("fault", node).partition = group
}

// ClearFaults restores every node to the healthy state.
func (f *Fabric) ClearFaults() {
	for _, n := range f.nodes {
		n.dropProb = 0
		n.extraLatency = 0
		n.bwFactor = 0
		n.partition = 0
	}
}

// DroppedFrames returns how many transfers the fault layer has discarded.
func (f *Fabric) DroppedFrames() int64 { return f.dropped }

func partitioned(s, d *nic) bool {
	return s.partition != 0 && d.partition != 0 && s.partition != d.partition
}

func (n *nic) effectiveRate() float64 {
	if n.bwFactor > 0 && n.bwFactor < 1 {
		return n.bytesPerSec * n.bwFactor
	}
	return n.bytesPerSec
}

// Link is the path from one node to another with both NICs resolved, so a
// transfer looks no name up; holders keep it by value. The fault state lives
// on the NICs, so a fault set after the Link was made applies to it.
type Link struct {
	f        *Fabric
	src, dst *nic
}

// Link resolves the path from src to dst; it panics if either endpoint is
// unknown (wiring bug).
func (f *Fabric) Link(src, dst string) Link {
	return Link{f: f, src: f.mustNode("src", src), dst: f.mustNode("dst", dst)}
}

// TransferFrameThen moves a frame of bytes over the link under the fault
// model. The frame occupies the NICs even when lost (a lost frame burns wire
// time before the loss is detected); delivered reports whether it actually
// arrived. Drops come from the per-node drop probability (evaluated on the
// env's seeded random stream) and from partition groups, so runs are
// reproducible. The frame books the NICs and its loss is drawn now, and t runs
// at the arrival instant, reached as WaitUntil reaches it (Env.WaitThen). It
// returns the arrival, whether the frame was delivered and whether t was
// registered; if not — the arrival is not after now, so nothing is scheduled,
// or it fired in place — the caller goes on at once.
func (l Link) TransferFrameThen(bytes int64, t Task) (arrive Time, delivered, queued bool) {
	f := l.f
	arrive, delivered = l.book(bytes, true)
	if arrive <= f.env.now {
		return arrive, delivered, false
	}
	return arrive, delivered, f.env.WaitThen(arrive.Sub(f.env.now), t)
}

// book occupies the link's two NICs for a transfer of bytes and returns its
// arrival instant; under the fault model (faulty) it also draws whether the
// frame is lost.
func (l Link) book(bytes int64, faulty bool) (Time, bool) {
	f, s, d := l.f, l.src, l.dst
	bw := s.effectiveRate()
	if r := d.effectiveRate(); r < bw {
		bw = r
	}
	ser := Duration(float64(bytes) / bw * float64(Second))
	start := maxTime(f.env.now, maxTime(s.txFree, d.rxFree))
	end := start.Add(ser)
	s.txFree, d.rxFree = end, end
	s.txBytes += bytes
	d.rxBytes += bytes
	arrive := end.Add(f.Latency + s.extraLatency + d.extraLatency)
	if faulty {
		drop := partitioned(s, d)
		if !drop {
			if pr := s.dropProb + d.dropProb; pr > 0 && f.env.rng.Float64() < pr {
				drop = true
			}
		}
		if drop {
			f.dropped++
			return arrive, false
		}
	}
	return arrive, true
}

// TxBytes returns total bytes node has transmitted.
func (f *Fabric) TxBytes(node string) int64 {
	if n := f.nodes[node]; n != nil {
		return n.txBytes
	}
	return 0
}

// RxBytes returns total bytes node has received.
func (f *Fabric) RxBytes(node string) int64 {
	if n := f.nodes[node]; n != nil {
		return n.rxBytes
	}
	return 0
}
