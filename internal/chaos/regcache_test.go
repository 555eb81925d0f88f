package chaos

import (
	"testing"

	"ib12x/internal/core"
	"ib12x/internal/harness"
	"ib12x/internal/regcache"
)

// regCacheConfig sizes the cache small enough that the oracle workload's
// rendezvous and one-sided phases churn it: a 256 KB / 8-entry budget forces
// real evictions under the seeded buffer mix, so the matrix exercises miss,
// hit, coalesce and evict paths rather than an always-warm cache.
func regCacheConfig() *regcache.Config {
	return &regcache.Config{CapacityBytes: 256 << 10, CapacityEntries: 8}
}

// TestDifferentialOracleRegCache runs the policy x fault-plan matrix with the
// pin-down registration cache armed. The cache charges virtual time only, so
// the user-visible payload digest must stay identical across every cell AND
// equal to the cache-off baseline; the invariant set (no leaks, no deadlock,
// payload intact) must stay clean while the cache is actually working.
func TestDifferentialOracleRegCache(t *testing.T) {
	plans := faultPlans()
	// Every plan, every policy: the full matrix, with the cache-off baseline
	// digest computed once per plan from the first policy.
	for _, plan := range plans {
		plan := plan
		t.Run(plan.Name, func(t *testing.T) {
			baseline, err := RunConformance(OracleConfig{
				Seed: oracleSeed, Policy: allPolicies[0], Plan: plan,
			})
			if err != nil {
				t.Fatalf("baseline under %s: %v", plan.Name, err)
			}
			results, err := harness.MapAll(allPolicies, func(kind core.Kind) (*RunResult, error) {
				return RunConformance(OracleConfig{
					Seed: oracleSeed, Policy: kind, Plan: plan, RegCache: regCacheConfig(),
				})
			})
			if err != nil {
				t.Fatalf("under %s: %v", plan.Name, err)
			}
			for i, res := range results {
				for _, v := range res.Violations {
					t.Errorf("%v under %s: %s", allPolicies[i], plan.Name, v)
				}
				if res.Digest != baseline.Digest {
					t.Errorf("regcache changed payload digest under %s/%s: %#x vs baseline %#x",
						plan.Name, res.Policy, res.Digest, baseline.Digest)
				}
				if res.RegMisses == 0 || res.RegHits == 0 {
					t.Errorf("%s/%s: cache not exercised (hits=%d misses=%d)",
						plan.Name, res.Policy, res.RegHits, res.RegMisses)
				}
			}
		})
	}
}

// TestRegCacheOracleEvicts pins that the chosen capacity really forces
// evictions (otherwise the matrix above only tests the warm path) and that
// the registration charge moves the virtual clock.
func TestRegCacheOracleEvicts(t *testing.T) {
	base, err := RunConformance(OracleConfig{Seed: oracleSeed, Policy: core.EvenStriping, Plan: NoFaults()})
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunConformance(OracleConfig{
		Seed: oracleSeed, Policy: core.EvenStriping, Plan: NoFaults(), RegCache: regCacheConfig(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.RegEvictions == 0 {
		t.Errorf("no evictions under the 256KB/8-entry budget (misses=%d): matrix is warm-only", res.RegMisses)
	}
	if res.RegPinnedPeak <= 0 || res.RegPinnedPeak > 256<<10 {
		t.Errorf("pinned high-water %d outside (0, 256KB]", res.RegPinnedPeak)
	}
	if res.Elapsed <= base.Elapsed {
		t.Errorf("registration charges did not slow the run: %v (cached) vs %v (free)", res.Elapsed, base.Elapsed)
	}
	if res.RegCacheStats == nil {
		t.Fatal("RegCacheStats not populated")
	}
}

// TestRegCacheConformanceSerialParallelIdentical extends the harness
// determinism contract to the cache-armed matrix: one worker and many
// workers must agree on digest, trace digest, elapsed time, and the cache
// tallies themselves, cell by cell. Same-seed reruns are covered too, since
// the serial pass IS a rerun of the parallel pass's cells.
func TestRegCacheConformanceSerialParallelIdentical(t *testing.T) {
	plan := faultPlans()[5] // kitchen sink: the most event-heavy plan
	serial, parallel := serialParallel(t, "regcache", func(kind core.Kind) OracleConfig {
		return OracleConfig{Seed: oracleSeed, Policy: kind, Plan: plan, RegCache: regCacheConfig()}
	})
	for i := range serial {
		s, p := serial[i], parallel[i]
		if s.RegHits != p.RegHits || s.RegMisses != p.RegMisses ||
			s.RegEvictions != p.RegEvictions || s.RegPinnedPeak != p.RegPinnedPeak {
			t.Errorf("%s: cache tallies diverge: %d/%d hits %d/%d misses %d/%d evictions %d/%d peak",
				s.Policy, s.RegHits, p.RegHits, s.RegMisses, p.RegMisses,
				s.RegEvictions, p.RegEvictions, s.RegPinnedPeak, p.RegPinnedPeak)
		}
	}
}
