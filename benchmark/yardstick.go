package main

// The yardstick: how fast this machine is right now.
//
// On the shared 2-core sandbox the effective speed of the machine drifts by
// ±15–25 % over minutes (co-tenants on the sibling hyperthreads and the
// memory system); ten runs of unchanged code spread by 13–28 %, and whole
// runs land in a slow patch, so no statistic inside one window averages it
// out. The benchmark therefore times a small fixed piece of its own code —
// nothing of the program under test — every 20 ms between statements, and
// scales the two timing metrics to a nominal machine: a run on a machine
// that is 20 % slow reports what the same run would have measured on the
// nominal one. Measured over three sets of ten runs (README.md), this
// brings the spread between runs from 6–23 % down to 2–6 %.
//
// Two kernels, because the workloads lean on different resources: alloc
// (small heap objects, pointer links, map inserts — what the engine's boxed
// values do) and alu (a byte-wise hash over a 64 KB buffer). A workload's
// machine speed is alloc^a · alu^(1−a) with a = the workload's allocShare.

import "time"

// Nominal burst times: this sandbox in a typical minute. They only fix the
// scale, so that normalised and raw values are of the same size here.
const (
	nominalAllocNS = 110000.0
	nominalAluNS   = 86000.0
	yardstickEvery = 20 * time.Millisecond
)

type yardNode struct {
	a, b int64
	s    string
	next *yardNode
}

type yardstick struct {
	buf            []byte
	allocNS, aluNS []float64
	sink           uint64
}

func newYardstick() *yardstick { return &yardstick{buf: make([]byte, 1<<16)} }

// burst runs both kernels once and records their times.
func (y *yardstick) burst() {
	t0 := time.Now()
	index := make(map[int64]*yardNode, 64)
	var head *yardNode
	for i := 0; i < 3000; i++ {
		head = &yardNode{a: int64(i), b: int64(i * 7), s: "x", next: head}
		if i%8 == 0 {
			index[int64(i)] = head
		}
	}
	t1 := time.Now()
	h := uint64(14695981039346656037)
	for _, b := range y.buf {
		h = (h ^ uint64(b)) * 1099511628211
	}
	t2 := time.Now()
	y.sink += h + uint64(len(index)) + uint64(head.a)
	y.allocNS = append(y.allocNS, float64(t1.Sub(t0).Nanoseconds()))
	y.aluNS = append(y.aluNS, float64(t2.Sub(t1).Nanoseconds()))
}

// machineReport is the yardstick's reading for one run.
type machineReport struct {
	Speed      float64 `json:"speed"` // > 1: faster than nominal
	AllocUS    float64 `json:"alloc_us"`
	AluUS      float64 `json:"alu_us"`
	AllocShare float64 `json:"alloc_share"`
	Samples    int     `json:"samples"`
}
