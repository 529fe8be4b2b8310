package shard

import "sync/atomic"

// Stats counts routing decisions across all connections of one sharded
// server. The counters are plain int64s accessed only through sync/atomic
// (the engine's Stats idiom, enforced by mtlint atomicstats): sessions
// route concurrently.
type Stats struct {
	RoutedSingle   int64 // statements sent to exactly one shard
	RoutedScatter  int64 // statements scattered to >1 shard
	RoutedFallback int64 // scatter statements repartitioned to the coordinator
	PartialsPushed int64 // scatter statements with partial aggregation pushed into shards
	// HoistedSubqueries counts closed scalar subqueries run as routed
	// statements of their own and bound into their outer statement (ADR-015);
	// each also counts, as the statement it is, in the route counters above.
	HoistedSubqueries int64
}

// StatsSnapshot is a point-in-time copy of the routing counters.
type StatsSnapshot struct {
	RoutedSingle      int64
	RoutedScatter     int64
	RoutedFallback    int64
	PartialsPushed    int64
	HoistedSubqueries int64
}

// Snapshot copies the counters.
func (s *Stats) Snapshot() StatsSnapshot {
	return StatsSnapshot{
		RoutedSingle:      atomic.LoadInt64(&s.RoutedSingle),
		RoutedScatter:     atomic.LoadInt64(&s.RoutedScatter),
		RoutedFallback:    atomic.LoadInt64(&s.RoutedFallback),
		PartialsPushed:    atomic.LoadInt64(&s.PartialsPushed),
		HoistedSubqueries: atomic.LoadInt64(&s.HoistedSubqueries),
	}
}
