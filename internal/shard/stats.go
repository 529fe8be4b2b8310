package shard

import "sync/atomic"

// Stats counts routing decisions across all connections of one sharded
// server. Sessions route concurrently, so the counters are atomic.Int64s (the
// engine's Stats idiom): read them through Snapshot.
type Stats struct {
	RoutedSingle   atomic.Int64 // statements sent to exactly one shard
	RoutedScatter  atomic.Int64 // statements scattered to >1 shard
	RoutedFallback atomic.Int64 // scatter statements repartitioned to the coordinator
	PartialsPushed atomic.Int64 // scatter statements with partial aggregation pushed into shards
	// HoistedSubqueries counts closed scalar subqueries run as routed
	// statements of their own and bound into their outer statement (ADR-015);
	// each also counts, as the statement it is, in the route counters above.
	HoistedSubqueries atomic.Int64
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
		RoutedSingle:      s.RoutedSingle.Load(),
		RoutedScatter:     s.RoutedScatter.Load(),
		RoutedFallback:    s.RoutedFallback.Load(),
		PartialsPushed:    s.PartialsPushed.Load(),
		HoistedSubqueries: s.HoistedSubqueries.Load(),
	}
}
