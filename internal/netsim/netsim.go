// Package netsim models the cluster interconnects used in the paper's
// evaluation: BIP over Myrinet and SISCI over SCI (plus a commodity TCP
// model for contrast). The model is LogGP-flavored: a message costs the
// sender a host overhead plus a per-byte gap, crosses the wire with a
// fixed latency, and costs the receiver a receive overhead. The model is
// additive: a message's timing depends only on its size and send time,
// never on other traffic — nothing queues at a NIC (see Network) — so
// communication costs grow with cluster size for irregular applications
// such as Barnes-Hut through message counts alone. Code that reorders
// work between messages relies on this: the same messages sent at the
// same virtual times cost the same, whatever the host order.
package netsim

import (
	"fmt"
	"sync/atomic"

	"repro/internal/vtime"
)

// Model holds the timing parameters of an interconnect.
type Model struct {
	Name string

	// Latency is the one-way wire/switch latency.
	Latency vtime.Duration
	// PerByte is the transmission time of one payload byte (the inverse
	// of bandwidth).
	PerByte vtime.Duration
	// SendOverhead is the host-side cost to initiate a send.
	SendOverhead vtime.Duration
	// RecvOverhead is the host-side cost to receive and dispatch a
	// message to its handler.
	RecvOverhead vtime.Duration
}

// Bandwidth reports the model's asymptotic bandwidth in MB/s.
func (m Model) Bandwidth() float64 {
	if m.PerByte <= 0 {
		return 0
	}
	// PerByte picoseconds/byte -> bytes/second = 1e12/PerByte; MB/s = /1e6.
	return 1e12 / float64(m.PerByte) / 1e6
}

func (m Model) String() string {
	return fmt.Sprintf("%s(lat=%v, %.0fMB/s)", m.Name, m.Latency, m.Bandwidth())
}

// BIPMyrinet returns the BIP/Myrinet model used by the paper's 12-node
// 200 MHz Pentium Pro cluster. BIP achieves a few microseconds of latency
// and on the order of 125 MB/s on Myrinet (Prylli & Tourancheau, 1998).
func BIPMyrinet() Model {
	return Model{
		Name:         "BIP/Myrinet",
		Latency:      vtime.Micro(8),
		PerByte:      vtime.Nano(8), // ~125 MB/s
		SendOverhead: vtime.Micro(2),
		RecvOverhead: vtime.Micro(3),
	}
}

// SISCISCI returns the SISCI/SCI model used by the paper's 6-node 450 MHz
// Pentium II cluster. SCI remote memory access gives very low latency with
// somewhat lower sustained bandwidth than Myrinet in this generation.
func SISCISCI() Model {
	return Model{
		Name:         "SISCI/SCI",
		Latency:      vtime.Micro(4),
		PerByte:      vtime.Nano(12), // ~83 MB/s
		SendOverhead: vtime.Micro(1.5),
		RecvOverhead: vtime.Micro(2),
	}
}

// TCPFastEthernet returns a commodity 100 Mb/s TCP model. The paper's PM2
// substrate also ran over TCP; the model is provided for ablation
// experiments that show how protocol tradeoffs shift on slow networks.
func TCPFastEthernet() Model {
	return Model{
		Name:         "TCP/FastEthernet",
		Latency:      vtime.Micro(70),
		PerByte:      vtime.Nano(80), // ~12.5 MB/s
		SendOverhead: vtime.Micro(25),
		RecvOverhead: vtime.Micro(30),
	}
}

// Network is a set of nodes joined by a Model. It tracks per-node NIC
// occupancy and global traffic statistics.
//
// Transmission timing is purely functional: a message's cost depends only
// on its size and the model, never on other in-flight traffic. The
// simulator's threads run as real goroutines whose real-time execution
// order is unrelated to their virtual times, so any stateful queueing at
// the NIC would let a thread that races ahead in real time block a
// virtually-earlier message — a causality violation. The additive model
// keeps every run deterministic; aggregate congestion effects the paper
// discusses (communication costs growing with the cluster size for
// Barnes) emerge from message counts rather than queueing delay.
type Network struct {
	model Model
	nodes int

	messages atomic.Int64
	bytes    atomic.Int64
	// txBusy accumulates per-node transmit occupancy for utilization
	// diagnostics.
	txBusy []atomic.Int64
}

// NewNetwork builds a network of n nodes with the given model.
func NewNetwork(n int, model Model) *Network {
	if n <= 0 {
		panic(fmt.Sprintf("netsim: %d nodes", n))
	}
	return &Network{model: model, nodes: n, txBusy: make([]atomic.Int64, n)}
}

// Size reports the number of nodes.
func (n *Network) Size() int { return n.nodes }

// Model reports the network's timing model.
func (n *Network) Model() Model { return n.model }

// Send models the transmission of size payload bytes from node `from` to
// node `to`, initiated at virtual time `at`. It returns the time at which
// the sender's CPU is free to continue (send overhead paid, transmission
// handed to the NIC) and the time at which the message is available to a
// handler on the receiving node.
//
// A self-send (from == to) models a local loopback dispatch: no wire, no
// NIC occupancy, just the dispatch overheads.
func (n *Network) Send(from, to int, size int, at vtime.Time) (senderFree, delivered vtime.Time) {
	if from < 0 || from >= n.nodes || to < 0 || to >= n.nodes {
		panic(fmt.Sprintf("netsim: send %d->%d outside 0..%d", from, to, n.nodes-1))
	}
	if size < 0 {
		panic("netsim: negative message size")
	}
	n.messages.Add(1)
	n.bytes.Add(int64(size))

	if from == to {
		free := at.Add(n.model.SendOverhead)
		return free, free.Add(n.model.RecvOverhead)
	}

	occupancy := n.model.SendOverhead + vtime.Duration(size)*n.model.PerByte
	n.txBusy[from].Add(int64(occupancy))
	senderFree = at.Add(occupancy)
	delivered = senderFree.Add(n.model.Latency + n.model.RecvOverhead)
	return senderFree, delivered
}

// Stats reports cumulative message and byte counts.
func (n *Network) Stats() (messages, bytes int64) {
	return n.messages.Load(), n.bytes.Load()
}

// NICUtilization reports the cumulative transmit occupancy of a node, for
// diagnostics.
func (n *Network) NICUtilization(node int) vtime.Duration {
	return vtime.Duration(n.txBusy[node].Load())
}

// Reset clears all statistics so the topology can be reused for another
// simulated run.
func (n *Network) Reset() {
	for i := range n.txBusy {
		n.txBusy[i].Store(0)
	}
	n.messages.Store(0)
	n.bytes.Store(0)
}
