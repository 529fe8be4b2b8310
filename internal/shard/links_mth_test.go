package shard_test

import (
	"testing"

	"mtbase/internal/engine"
	"mtbase/internal/mth"
	"mtbase/internal/shard"
)

// TestClassifierLinksOnMTH runs the link check (links_test.go) over Q1–Q22
// and the routing extras on the MT-H schema.
func TestClassifierLinksOnMTH(t *testing.T) {
	inst, err := mth.BuildMT(mth.Config{SF: 0.001, Tenants: 2, Dist: mth.Uniform, Seed: 1, Mode: engine.ModePostgres})
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range append(mth.Queries(0.001), mth.StagedExtras()...) {
		shard.CheckLinks(t, q.SQL, inst.Srv.Schema())
	}
}
