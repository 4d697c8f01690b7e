// Package cluster provides the simulated cluster substrate of Hyperion-Go:
// a set of nodes joined by a netsim interconnect, plus the PM2-style RPC
// communication subsystem of the paper's Table 1 ("the interface is based
// upon message handlers being asynchronously invoked on the receiving
// end").
//
// Handlers execute with their own virtual clock, seated at the message's
// delivery time on the receiving node; they may advance it (service cost),
// perform nested RPCs, and return a reply that travels back over the
// network. All data movement is real (byte slices are copied end to end),
// so the upper layers' correctness does not depend on the timing model.
package cluster

import (
	"fmt"
	"sync"

	"repro/internal/model"
	"repro/internal/netsim"
	"repro/internal/stats"
	"repro/internal/vtime"
)

// ServiceID identifies a registered RPC service, like a PM2 service
// function index.
type ServiceID uint8

// MsgHeaderBytes is the framing overhead added to every RPC payload:
// service id, source node, and length, as a fixed-size header.
const MsgHeaderBytes = 16

// Call carries the context of one handler invocation. It is valid, its
// Clock included, only until the handler returns.
type Call struct {
	// Node is the node the handler runs on.
	Node *Node
	// Clock is the handler's virtual clock, seated at delivery time.
	// Handlers advance it to charge service costs.
	Clock *vtime.Clock
	// From is the invoking node's id.
	From int
	// Arg is the request payload, lent to the handler for the duration
	// of the call: the caller may reuse the buffer once the call returns,
	// so a handler that keeps any of it must copy.
	Arg []byte
}

// HandlerFunc services one RPC invocation and returns the reply payload
// (nil for an empty reply). Ownership of the reply passes to the invoker:
// the handler must neither keep a reference to it nor alias it to state
// it goes on using.
type HandlerFunc func(*Call) []byte

// Node is one machine of the simulated cluster.
type Node struct {
	id int
	cl *Cluster
}

// ID reports the node's index in the cluster.
func (n *Node) ID() int { return n.id }

// Cluster returns the cluster the node belongs to.
func (n *Node) Cluster() *Cluster { return n.cl }

// Cluster is a fixed set of nodes with a shared interconnect and a common
// RPC service table (SPMD: every node runs the same runtime image).
type Cluster struct {
	cfg   model.Cluster
	net   *netsim.Network
	nodes []*Node

	mu       sync.RWMutex
	services map[ServiceID]service

	counters *stats.Counters
}

type service struct {
	name    string
	handler HandlerFunc
}

// New builds a cluster of n nodes using the platform configuration cfg.
// n may be smaller than cfg.MaxNodes (the figures sweep node counts) but
// not larger.
func New(cfg model.Cluster, n int, counters *stats.Counters) (*Cluster, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if n <= 0 || n > cfg.MaxNodes {
		return nil, fmt.Errorf("cluster: %d nodes outside 1..%d of %s", n, cfg.MaxNodes, cfg.Name)
	}
	if counters == nil {
		counters = &stats.Counters{}
	}
	if err := counters.SetNodes(n); err != nil {
		return nil, err
	}
	c := &Cluster{
		cfg:      cfg,
		net:      netsim.NewNetwork(n, cfg.Net),
		nodes:    make([]*Node, n),
		services: make(map[ServiceID]service),
		counters: counters,
	}
	for i := range c.nodes {
		c.nodes[i] = &Node{id: i, cl: c}
	}
	return c, nil
}

// Config returns the platform configuration.
func (c *Cluster) Config() model.Cluster { return c.cfg }

// Network exposes the interconnect, mainly for statistics.
func (c *Cluster) Network() *netsim.Network { return c.net }

// Counters returns the run's counter store: per-node event counters,
// sized by New, plus the cluster-level RPC and spawn counts.
func (c *Cluster) Counters() *stats.Counters { return c.counters }

// Size reports the number of nodes.
func (c *Cluster) Size() int { return len(c.nodes) }

// Node returns node i.
func (c *Cluster) Node(i int) *Node {
	if i < 0 || i >= len(c.nodes) {
		panic(fmt.Sprintf("cluster: node %d of %d", i, len(c.nodes)))
	}
	return c.nodes[i]
}

// Register installs a handler for a service id on all nodes. Registering
// the same id twice panics: service tables are wired once at startup.
func (c *Cluster) Register(id ServiceID, name string, h HandlerFunc) {
	if h == nil {
		panic("cluster: nil handler")
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if prev, ok := c.services[id]; ok {
		panic(fmt.Sprintf("cluster: service %d already registered as %q", id, prev.name))
	}
	c.services[id] = service{name: name, handler: h}
}

// ServiceName reports the registered name of a service id, for
// diagnostics.
func (c *Cluster) ServiceName(id ServiceID) string {
	c.mu.RLock()
	defer c.mu.RUnlock()
	if s, ok := c.services[id]; ok {
		return s.name
	}
	return fmt.Sprintf("service#%d", id)
}

func (c *Cluster) lookup(id ServiceID) HandlerFunc {
	c.mu.RLock()
	s, ok := c.services[id]
	c.mu.RUnlock()
	if !ok {
		panic(fmt.Sprintf("cluster: no handler for service %d", id))
	}
	return s.handler
}

// Invoke performs a synchronous RPC from node `from` (whose thread owns
// clock) to service svc on node `to`, and returns the reply payload. The
// caller's clock is advanced across the full round trip: request
// transmission, remote handling, and reply delivery.
func (c *Cluster) Invoke(clock *vtime.Clock, from, to int, svc ServiceID, arg []byte) []byte {
	reply, handled := c.deliver(clock, from, to, svc, arg)
	_, replyDelivered := c.net.Send(to, from, len(reply)+MsgHeaderBytes, handled)
	clock.AdvanceTo(replyDelivered)
	return reply
}

// Notify performs a one-way RPC: the handler runs at delivery time on the
// receiving node, but the caller continues as soon as its NIC has accepted
// the message. The handler's completion time is returned for callers that
// later need to synchronize with the effect (e.g. a flush followed by a
// lock release).
func (c *Cluster) Notify(clock *vtime.Clock, from, to int, svc ServiceID, arg []byte) vtime.Time {
	_, handled := c.deliver(clock, from, to, svc, arg)
	return handled
}

// deliver sends the request, advances the caller's clock until its NIC is
// free, and runs the handler with a clock seated at the delivery time. It
// returns the reply and the handler's completion time. The Call and its
// clock are one allocation that lives for the handler's invocation only.
func (c *Cluster) deliver(clock *vtime.Clock, from, to int, svc ServiceID, arg []byte) ([]byte, vtime.Time) {
	h := c.lookup(svc)
	senderFree, delivered := c.net.Send(from, to, len(arg)+MsgHeaderBytes, clock.Now())
	clock.AdvanceTo(senderFree)

	in := &struct {
		Call
		clock vtime.Clock
	}{}
	in.clock.AdvanceTo(delivered)
	in.Call = Call{Node: c.Node(to), Clock: &in.clock, From: from, Arg: arg}
	reply := h(&in.Call)
	c.counters.AddRPCs(1)
	return reply, in.clock.Now()
}
