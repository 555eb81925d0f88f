package main

import (
	"encoding/json"
	"os"
	"strings"
	"testing"
)

// recorded loads the current rows of the checked-in BENCH_hotpath.json.
func recorded(t *testing.T) map[string]Result {
	t.Helper()
	buf, err := os.ReadFile("../../BENCH_hotpath.json")
	if err != nil {
		t.Fatal(err)
	}
	var rep Report
	if err := json.Unmarshal(buf, &rep); err != nil {
		t.Fatal(err)
	}
	return rep.Current
}

func TestCheckPassesRecordedRows(t *testing.T) {
	cur := recorded(t)
	if fails := check(cur); len(fails) != 0 {
		t.Fatalf("recorded rows fail the gate: %v", fails)
	}
	for _, r := range rows {
		if _, ok := cur[r.bench]; !ok {
			t.Errorf("row %s has no recorded result", r.bench)
		}
	}
}

// TestCheckFailures pushes one row at a time just past its budget (or
// drops it) and requires the gate to name the row and the reason.
func TestCheckFailures(t *testing.T) {
	const rdma, sendRecv = "BenchmarkSmallMsgLatencyRDMA", "BenchmarkSmallMsgLatency"
	cases := []struct {
		name string
		edit func(cur map[string]Result)
		want []string
	}{
		{"rdma over slack", func(cur map[string]Result) {
			r := cur[rdma]
			sr := cur[sendRecv].AllocsPerOp
			r.AllocsPerOp = sr + sr*10/100 + 256 + 1
			cur[rdma] = r
		}, []string{rdma + " allocs/op", "the ring fast path is allocating per message"}},
		{"fig04 over seed budget", func(cur map[string]Result) {
			r := cur["BenchmarkFig04LargeLatency"]
			r.AllocsPerOp = 119238*20/100 + 1 // seed - 80%, rounded up
			cur["BenchmarkFig04LargeLatency"] = r
		}, []string{"BenchmarkFig04LargeLatency allocs/op", "seed 119238 - 80%"}},
		{"missing row", func(cur map[string]Result) {
			delete(cur, "BenchmarkFig06ThreeTier")
		}, []string{"BenchmarkFig06ThreeTier missing"}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			cur := recorded(t)
			c.edit(cur)
			fails := check(cur)
			if len(fails) != 1 {
				t.Fatalf("fails = %q, want exactly one", fails)
			}
			for _, w := range c.want {
				if !strings.Contains(fails[0], w) {
					t.Errorf("fail %q does not say %q", fails[0], w)
				}
			}
		})
	}
	// At exactly the RDMA budget the gate still holds.
	cur := recorded(t)
	r := cur[rdma]
	sr := cur[sendRecv].AllocsPerOp
	r.AllocsPerOp = sr + sr*10/100 + 256
	cur[rdma] = r
	if fails := check(cur); len(fails) != 0 {
		t.Fatalf("RDMA row at its budget fails: %v", fails)
	}
}
