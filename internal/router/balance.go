package router

import (
	"hash/fnv"
	"sort"
	"strconv"
)

// Balancer picks a replica for a routing key from the currently
// available candidates. Implementations must be safe for concurrent use;
// candidates is never empty.
type Balancer interface {
	Pick(key string, candidates []*Replica) *Replica
}

// LeastLoaded picks the candidate with the fewest in-flight proxied
// requests, breaking ties by candidate order. It maximises utilisation
// but gives up cache locality: the same model lands on whichever replica
// happens to be idlest.
type LeastLoaded struct{}

// Pick implements Balancer.
func (LeastLoaded) Pick(_ string, candidates []*Replica) *Replica {
	best := candidates[0]
	bestLoad := best.inflight.Load()
	for _, r := range candidates[1:] {
		if l := r.inflight.Load(); l < bestLoad {
			best, bestLoad = r, l
		}
	}
	return best
}

// ringNode is one virtual node on the consistent-hash ring.
type ringNode struct {
	hash    uint64
	replica *Replica
}

// ConsistentHash routes each model key to a stable replica via a hash
// ring of virtual nodes, so a model's compiled kernel, its scratch pool
// and (eventually) any per-model caches stay warm on one backend, and
// adding or removing a replica only remaps that replica's share of keys.
//
// It is consistent hashing *with bounded loads*: when the ring-preferred
// replica already carries more than LoadFactor× the mean in-flight load
// of the candidates, the walk continues to the next distinct replica on
// the ring — cache locality until a hot key would overload its home,
// then least-loaded-style spill.
type ConsistentHash struct {
	// LoadFactor is the spill threshold as a multiple of the mean
	// in-flight load (default 2.0; values ≤ 1 disable the bound and give
	// pure consistent hashing).
	LoadFactor float64

	ring []ringNode
}

// defaultVNodes gives each replica enough ring presence that key shares
// stay within a few percent of uniform.
const defaultVNodes = 128

// NewConsistentHash builds a ring over the replicas with vnodes virtual
// nodes each (≤ 0 selects the default).
func NewConsistentHash(replicas []*Replica, vnodes int) *ConsistentHash {
	if vnodes <= 0 {
		vnodes = defaultVNodes
	}
	ch := &ConsistentHash{LoadFactor: 2.0}
	for _, r := range replicas {
		for i := 0; i < vnodes; i++ {
			ch.ring = append(ch.ring, ringNode{hash: hashKey(r.URL + "#" + strconv.Itoa(i)), replica: r})
		}
	}
	sort.Slice(ch.ring, func(i, j int) bool { return ch.ring[i].hash < ch.ring[j].hash })
	return ch
}

// hashKey is 64-bit FNV-1a finished with a splitmix64-style mixer. Raw
// FNV over near-identical strings ("url#1", "url#2", ...) leaves the
// high bits — which decide ring order — strongly correlated, skewing
// vnode placement badly; the finalizer restores avalanche without any
// dependency.
func hashKey(s string) uint64 {
	h := fnv.New64a()
	_, _ = h.Write([]byte(s))
	z := h.Sum64()
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	z ^= z >> 31
	return z
}

// Pick implements Balancer: walk the ring clockwise from the key's hash,
// skipping replicas that are not candidates, and return the first
// candidate under the load bound. If every candidate is over the bound
// (or the bound is disabled), the ring-preferred candidate wins.
func (c *ConsistentHash) Pick(key string, candidates []*Replica) *Replica {
	if len(candidates) == 1 || len(c.ring) == 0 {
		return candidates[0]
	}
	isCandidate := make(map[*Replica]bool, len(candidates))
	var total int64
	for _, r := range candidates {
		isCandidate[r] = true
		total += r.inflight.Load()
	}
	var bound int64 = -1
	if c.LoadFactor > 1 {
		mean := float64(total+1) / float64(len(candidates))
		bound = int64(c.LoadFactor * mean)
		if bound < 1 {
			bound = 1
		}
	}

	start := sort.Search(len(c.ring), func(i int) bool { return c.ring[i].hash >= hashKey(key) })
	var preferred *Replica
	seen := make(map[*Replica]bool, len(candidates))
	for i := 0; i < len(c.ring) && len(seen) < len(candidates); i++ {
		r := c.ring[(start+i)%len(c.ring)].replica
		if !isCandidate[r] || seen[r] {
			continue
		}
		seen[r] = true
		if preferred == nil {
			preferred = r
		}
		if bound < 0 || r.inflight.Load() <= bound {
			return r
		}
	}
	if preferred == nil {
		// A candidate that never made it onto the ring (shouldn't happen
		// with a ring built over all replicas) still gets traffic.
		return candidates[0]
	}
	return preferred
}
