package shard

// CheckLinks lets the external test (links_mth_test.go), which may import
// internal/mth, run the link check over the MT-H statements.
var CheckLinks = checkLinks
