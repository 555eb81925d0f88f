package main

import (
	"fmt"
	"math"
)

// Seeds with pinned results: the default seed and one held out while the
// benchmark was written.
const (
	defaultSeed = 1
	heldOutSeed = 2
)

// pin is a job's virtual-time result: the elapsed virtual time (ps), the
// result in the workload's unit as IEEE-754 bits, and the digest of
// received payloads and per-step virtual times over all ranks.
type pin struct {
	Elapsed int64
	Value   uint64
	Digest  uint64
}

func (p pin) String() string {
	return fmt.Sprintf("elapsed=%dps value=%v (bits %#016x) digest=%#016x", p.Elapsed, math.Float64frombits(p.Value), p.Value, p.Digest)
}

type pinKey struct {
	workload string
	seed     int64 // 0 for workloads that draw nothing from the seed
	steps    int
}

// pins holds the full-size results. Unseeded workloads have one pin for
// every seed. The values are one-way latency 8.469 / 8.522 us, 2730.79
// MB/s, ring max elapsed 62994 / 61906 us and 5679.75 us per Alltoall.
var pins = map[pinKey]pin{
	{"pingpong-small", 1, 20000}: {Elapsed: 338770954216, Value: 0x4020f044a9ab9f25, Digest: 0x0427f33f97fda3e4},
	{"pingpong-small", 2, 20000}: {Elapsed: 340868761000, Value: 0x40210b1ec18c26ea, Digest: 0x02a823d14da9f478},
	{"window-bw-1m", 0, 50}:      {Elapsed: 1228744992800, Value: 0x40a55593ec0f1103, Digest: 0x3a87b7d599322105},
	{"ring-256", 1, 32}:          {Elapsed: 62993976661, Value: 0x40eec23f40ce91c9, Digest: 0x155b2e6766fd548a},
	{"ring-256", 2, 32}:          {Elapsed: 61905818678, Value: 0x40ee3a3a329c347f, Digest: 0xa04d5832ad4856c9},
	{"alltoall-fattree", 0, 12}:  {Elapsed: 68156958344, Value: 0x40b62fbf1c80b0dc, Digest: 0xf576ab1fee5682c5},
}

// oracle checks every job's virtual-time result against the pinned value
// for its workload, seed and size, or, where none is pinned, against the
// first passing job of the run.
type oracle struct {
	want   *pin
	source string
}

func newOracle(w *workload, seed int64, steps int, table map[pinKey]pin) *oracle {
	if !w.seeded {
		seed = 0
	}
	if p, ok := table[pinKey{w.name, seed, steps}]; ok {
		return &oracle{want: &p, source: "pinned value"}
	}
	return &oracle{source: "first job of the run"}
}

// check marks r failed when its result differs by one bit from the
// expected one.
func (o *oracle) check(r *jobResult) {
	if r.err != nil {
		return
	}
	got := pin{Elapsed: int64(r.elapsed), Value: math.Float64bits(r.value), Digest: r.digest}
	if o.want == nil {
		o.want = &got
		return
	}
	if got != *o.want {
		r.err = fmt.Errorf("virtual result %v differs from the %s %v", got, o.source, *o.want)
	}
}
