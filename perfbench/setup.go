package main

import (
	"errors"
	"fmt"
	"time"

	aligraph "repro"
	"repro/internal/cluster"
	"repro/internal/dataset"
	"repro/internal/graph"
	"repro/internal/partition"
	"repro/internal/storage"
)

// graphScale sizes Taobao-small-sim so the vertex count (22,000) is several
// times every client cache's default capacity (4,096 entries or 0.2 x V):
// at scale 1 the attribute and embedding caches hold almost the whole graph
// and no eviction policy could show an effect.
const graphScale = 5

// shards is the number of loopback graph servers of the cluster workloads.
const shards = 2

// neighborCacheFrac sizes the client neighbor LRU as aligraph-train does.
const neighborCacheFrac = 0.2

// phases times the steps of one set-up.
type phases struct {
	graph, partition, shards, connect, warmup time.Duration
}

func (p phases) total() time.Duration {
	return p.graph + p.partition + p.shards + p.connect + p.warmup
}

// timed runs f and adds its wall time to *d.
func timed(d *time.Duration, f func() error) error {
	t0 := time.Now()
	err := f()
	*d += time.Since(t0)
	return err
}

// buildGraph generates the dataset every workload runs on. It is the same
// graph for every workload seed: the seed drives the requests, the model
// initialisation and the draws, so runs with different seeds differ in
// what is asked of the system, not in the data it holds.
func buildGraph() *graph.Graph {
	return dataset.Taobao(dataset.TaobaoSmallConfig(graphScale))
}

// loopback is a live deployment: shard servers served over net/rpc
// and one client stack dialed to them through the same RetryTransport +
// DefaultCallPolicy layers the CLIs use. With tracing, a byte-counting relay
// sits in front of every shard and a timing decorator sits between the
// client and the retry layer.
type loopback struct {
	g       *graph.Graph
	servers []*cluster.Server
	rpcs    []*cluster.RPCServer
	relays  []*relay
	retry   *cluster.RetryTransport
	tt      *tracedTransport // nil when untraced
	lru     *storage.LRUNeighborCache
	cp      *aligraph.ClusterPlatform
}

// newLoopback builds the graph, partitions it, builds the shards, serves
// them over loopback and connects one client, timing each step into ph.
func newLoopback(seed int64, tr *tracer, ph *phases) (*loopback, error) {
	lb := &loopback{}
	_ = timed(&ph.graph, func() error { lb.g = buildGraph(); return nil })
	var assign *partition.Assignment
	if err := timed(&ph.partition, func() error {
		pt, err := partition.ByName("hash")
		if err != nil {
			return err
		}
		assign, err = pt.Partition(lb.g, shards)
		return err
	}); err != nil {
		return nil, fmt.Errorf("partition: %w", err)
	}
	_ = timed(&ph.shards, func() error { lb.servers = cluster.FromGraph(lb.g, assign); return nil })
	if err := timed(&ph.connect, func() error { return lb.connect(seed, tr) }); err != nil {
		lb.Close()
		return nil, fmt.Errorf("connect: %w", err)
	}
	return lb, nil
}

func (lb *loopback) connect(seed int64, tr *tracer) error {
	addrs := make([]string, len(lb.servers))
	for i, s := range lb.servers {
		rs, err := cluster.ServeRPC(s, "127.0.0.1:0")
		if err != nil {
			return err
		}
		lb.rpcs = append(lb.rpcs, rs)
		addrs[i] = rs.Addr()
		if tr != nil {
			rl, err := newRelay(rs.Addr())
			if err != nil {
				return err
			}
			lb.relays = append(lb.relays, rl)
			addrs[i] = rl.Addr()
		}
	}
	rpcTr, err := cluster.DialRPC(addrs)
	if err != nil {
		return err
	}
	lb.retry = cluster.NewRetryTransport(rpcTr, len(addrs), cluster.DefaultCallPolicy(), 1)
	assign, _, err := cluster.Bootstrap(lb.retry, 0)
	if err != nil {
		return err
	}
	if assign.P != len(addrs) {
		return fmt.Errorf("cluster reports %d partitions, dialed %d", assign.P, len(addrs))
	}
	var t cluster.Transport = lb.retry
	if tr != nil {
		lb.tt = newTracedTransport(lb.retry, tr)
		t = lb.tt
	}
	lb.lru = storage.NewLRUNeighborCache(int(neighborCacheFrac * float64(len(assign.Of))))
	lb.cp = aligraph.NewClusterPlatform(assign, t, lb.lru, seed)
	return nil
}

// wireBytes sums the relays' byte counters (zero when untraced).
func (lb *loopback) wireBytes() (tx, rx int64) {
	for _, r := range lb.relays {
		tx += r.tx.Load()
		rx += r.rx.Load()
	}
	return tx, rx
}

// epochs sums the shards' head update epochs.
func (lb *loopback) epochs() uint64 {
	var e uint64
	for _, s := range lb.servers {
		e += s.UpdateEpoch()
	}
	return e
}

// Close tears the deployment down: client transport, relays, RPC servers,
// then the shard servers. Safe on a partially built deployment.
func (lb *loopback) Close() error {
	var errs []error
	if lb.retry != nil {
		errs = append(errs, lb.retry.Close())
	}
	for _, r := range lb.relays {
		r.Close()
	}
	for _, rs := range lb.rpcs {
		errs = append(errs, rs.Close())
	}
	for _, s := range lb.servers {
		s.Close()
	}
	return errors.Join(errs...)
}
