// Package infra models the NFV infrastructure (NFVI): a cluster of
// homogeneous compute nodes onto which VNF instances are placed. When the
// instances packed on a node demand more cycles than it has, every
// instance on that node is slowed proportionally — the noisy-neighbor
// contention that makes co-located VNF performance coupled.
package infra

import (
	"errors"
	"fmt"

	"nfvxai/internal/nfv/traffic"
	"nfvxai/internal/nfv/vnf"
)

// Node is one compute host.
type Node struct {
	ID    int
	Cores int
	// Hz is the per-core clock (default 2.4 GHz).
	Hz float64

	placed []*vnf.Instance
}

func (n *Node) hz() float64 {
	if n.Hz <= 0 {
		return 2.4e9
	}
	return n.Hz
}

// CapacityCycles returns the node's usable cycles/sec.
func (n *Node) CapacityCycles() float64 { return float64(n.Cores) * n.hz() }

// Cluster is a set of nodes with instance placement.
type Cluster struct {
	Nodes []*Node

	next int // round-robin cursor
}

// NewCluster builds n homogeneous nodes of the given core count.
func NewCluster(n, coresPerNode int) *Cluster {
	c := &Cluster{}
	for i := 0; i < n; i++ {
		c.Nodes = append(c.Nodes, &Node{ID: i, Cores: coresPerNode})
	}
	return c
}

// Place assigns an instance to the least-loaded node (by placed cores),
// falling back to round-robin among ties. It returns the node or an error
// if no node can fit the instance's cores.
func (c *Cluster) Place(in *vnf.Instance) (*Node, error) {
	if len(c.Nodes) == 0 {
		return nil, errors.New("infra: empty cluster")
	}
	var best *Node
	bestFree := -1 << 30
	for i := range c.Nodes {
		n := c.Nodes[(c.next+i)%len(c.Nodes)]
		free := n.Cores - placedCores(n)
		if free >= in.Cores && free > bestFree {
			best = n
			bestFree = free
		}
	}
	if best == nil {
		return nil, fmt.Errorf("infra: no node fits %d cores", in.Cores)
	}
	c.next = (best.ID + 1) % len(c.Nodes)
	best.placed = append(best.placed, in)
	return best, nil
}

// Unplace removes an instance from whichever node holds it.
func (c *Cluster) Unplace(in *vnf.Instance) {
	for _, n := range c.Nodes {
		for i, p := range n.placed {
			if p == in {
				n.placed = append(n.placed[:i], n.placed[i+1:]...)
				return
			}
		}
	}
}

func placedCores(n *Node) int {
	total := 0
	for _, in := range n.placed {
		total += in.Cores
	}
	return total
}

// PlacedCores returns the cores currently committed on the node.
func (n *Node) PlacedCores() int { return placedCores(n) }

// ApplyContention inspects each node's aggregate demand for the epoch and
// sets every placed instance's CapScale: 1.0 when the node keeps up,
// capacity/demand when oversubscribed. demandOf must return the cycles/sec
// the instance would consume unthrottled.
func (c *Cluster) ApplyContention(demandOf func(*vnf.Instance) float64) {
	for _, n := range c.Nodes {
		var total float64
		for _, in := range n.placed {
			in.CapScale = 1
			total += demandOf(in)
		}
		capacity := n.CapacityCycles()
		if total > capacity && total > 0 {
			scale := capacity / total
			for _, in := range n.placed {
				in.CapScale = scale
			}
		}
	}
}

// DemandFn builds a demandOf callback for ApplyContention given the
// per-instance demand share for this epoch.
func DemandFn(share traffic.Demand, activeFlowsPerInstance float64) func(*vnf.Instance) float64 {
	return func(in *vnf.Instance) float64 {
		return in.DemandCycles(share, activeFlowsPerInstance)
	}
}

// Utilization returns the cluster-wide placed-core fraction.
func (c *Cluster) Utilization() float64 {
	var used, total int
	for _, n := range c.Nodes {
		used += placedCores(n)
		total += n.Cores
	}
	if total == 0 {
		return 0
	}
	return float64(used) / float64(total)
}
