package core

import (
	"errors"
	"fmt"

	"doceph/internal/bluestore"
	"doceph/internal/doca"
	"doceph/internal/dpu"
	"doceph/internal/objstore"
	"doceph/internal/rpcchan"
	"doceph/internal/sim"
)

// Bridge bundles the complete DPU <-> host complex of one DoCeph node: the
// control-plane RPC channel, the two DMA engines with their staging
// regions, the DPU-side Proxy and the host-side server. It is the unit the
// cluster assembler instantiates per storage node.
type Bridge struct {
	Proxy   *Proxy
	Host    *HostServer
	EngUp   *doca.Engine
	EngDown *doca.Engine
	CC      *doca.CommChannel
	RPCDPU  *rpcchan.Endpoint
	RPCHost *rpcchan.Endpoint
}

// BridgeConfig aggregates the per-layer configurations (zero values take
// each layer's defaults).
type BridgeConfig struct {
	Proxy ProxyConfig
	Host  HostConfig
	RPC   rpcchan.Config
	// Engine configures both DMA directions.
	Engine doca.EngineConfig
	Comm   doca.CommChannelConfig
	// Batch enables adaptive small-op batching on both sides of the bridge
	// (proxy coalescing + host notify coalescing). Off by default.
	Batch BatchConfig
	// Breaker enables the per-bridge DPU health circuit breaker with
	// host-path failover. Off by default. It replaces the proxy's
	// single-failure cooldown gate: isolated DMA errors below the threshold
	// keep the data plane on, a failure burst opens the breaker and fails
	// the session over to the host RPC path, and probe successes re-enroll
	// it.
	Breaker dpu.BreakerConfig
	// ReadCache enables the DPU-side object read cache on the proxy. Off
	// by default. Hot full-object reads are answered from DPU DDR with DPU
	// CPU only; every mutation the proxy ships invalidates its object's
	// entry first, so cached content never goes stale.
	ReadCache dpu.ReadCacheConfig
}

// NewBridge wires a DPU to a host CPU + local BlueStore and returns the
// assembled complex. The Proxy implements objstore.Store and is what the
// DPU-resident OSD should be given as its backend.
func NewBridge(env *sim.Env, dev *dpu.DPU, hostCPU *sim.CPU,
	store *bluestore.Store, cfg BridgeConfig) *Bridge {
	thRPCHost := sim.NewThread("host-rpc@"+dev.Name, RPCServerThreadCat)
	thRPCDPU := sim.NewThread("proxy-rpc@"+dev.Name, ProxyThreadCat)
	rpcDPU, rpcHost := rpcchan.New(env,
		"dpu:"+dev.Name, dev.CPU, thRPCDPU,
		"host:"+dev.Name, hostCPU, thRPCHost, cfg.RPC)
	engUp := doca.NewEngine(env, dev.Name+"-up", cfg.Engine)
	engDown := doca.NewEngine(env, dev.Name+"-down", cfg.Engine)
	cc := doca.NewCommChannel(env, dev.CPU, hostCPU, thRPCHost, cfg.Comm)
	dpuMR := doca.NewMemRegion(dev.Name+"-staging-mr", dev.Buffers.BufferBytes()*int64(dev.Buffers.Capacity()))
	hostMR := doca.NewMemRegion(dev.Name+"-host-mr", 1<<30)

	host := NewHostServer(env, hostCPU, store, rpcHost, engUp, engDown, dpuMR, hostMR, cfg)
	proxy := NewProxy(env, dev, rpcDPU, cc, engUp, engDown, dpuMR, hostMR, cfg)
	return &Bridge{
		Proxy: proxy, Host: host,
		EngUp: engUp, EngDown: engDown, CC: cc,
		RPCDPU: rpcDPU, RPCHost: rpcHost,
	}
}

// Quiescent reports, joined, every way the bridge is not at rest: a staging
// buffer or byte still held on either side, or a transaction or read still
// filed on the proxy or in assembly on the host. Its records are the Env's
// to check (sim.Env.RecordsOut).
func (b *Bridge) Quiescent() error {
	px, hs := b.Proxy, b.Host
	var errs []error
	check := func(ok bool, format string, args ...any) {
		if !ok {
			errs = append(errs, fmt.Errorf("%s: "+format, append([]any{px.dev.Name}, args...)...))
		}
	}
	check(px.dev.Buffers.Available() == px.dev.Buffers.Capacity(), "%d of %d DPU staging buffers free",
		px.dev.Buffers.Available(), px.dev.Buffers.Capacity())
	check(hs.readBuf.Available() == hs.readBuf.Capacity(), "%d of %d host read buffers free",
		hs.readBuf.Available(), hs.readBuf.Capacity())
	check(px.stagingBytes == 0, "%d staging bytes held", px.stagingBytes)
	check(len(px.pendingTxns)+len(px.pendingReads) == 0, "%d transactions and %d reads pending",
		len(px.pendingTxns), len(px.pendingReads))
	check(len(hs.asm)+len(hs.readyTxns) == 0, "%d transactions assembling and %d waiting to commit on the host",
		len(hs.asm), len(hs.readyTxns))
	return errors.Join(errs...)
}

// compile-time check: the proxy is a drop-in ObjectStore backend.
var _ objstore.Store = (*Proxy)(nil)
