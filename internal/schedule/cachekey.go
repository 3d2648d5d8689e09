package schedule

// CacheKey methods implement internal/cache.Keyer (structurally) for the
// gate placers. Keys must cover everything that influences the produced
// circuit: LoadBalanced consults its latency model while scheduling, so its
// key embeds the model — without it, α-sweep cells would silently share
// circuits that should differ.

import "fmt"

// CacheKey implements cache.Keyer.
func (Random) CacheKey() string { return "random" }

// CacheKey implements cache.Keyer.
func (WeakAvoiding) CacheKey() string { return "weak-avoiding" }

// CacheKey implements cache.Keyer.
func (EdgeConstrained) CacheKey() string { return "edge-constrained" }

// CacheKey implements cache.Keyer.
func (pl LoadBalanced) CacheKey() string {
	return fmt.Sprintf("load-balanced/%s/k=%d", pl.Latencies.CacheKey(), lbCandidates)
}
