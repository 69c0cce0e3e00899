package core_test

import (
	"sort"
	"testing"

	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/exp"
	"repro/internal/poset"
)

// TestKernelMatchesScalarLargeN runs the dominance kernel against the
// scalar reference on paper-shaped N=5K datasets. The byte-driven fuzz
// harness stays under a few dozen points, so it can never reach the
// kernel's large-window machinery — multi-block zone maps and, above
// all, window compaction (which needs ≥ 512 members with half evicted);
// this test covers exactly that regime. It caught a compaction aliasing
// bug that silently dropped the oldest window members.
func TestKernelMatchesScalarLargeN(t *testing.T) {
	for _, dist := range []data.Distribution{data.Independent, data.AntiCorrelated} {
		cfg := exp.StaticDefaults(0.005) // N = 5K
		cfg.Dist = dist
		ds := exp.BuildDataset(cfg)
		want := sortedCopy(core.BNLScalar(ds).SkylineIDs)
		for _, v := range []struct {
			name string
			opt  core.Options
		}{
			{"kernel", core.Options{}},
			{"kernel-noclosure", core.Options{ClosureBudget: -1}},
		} {
			got := sortedCopy(core.BNL(ds, v.opt).SkylineIDs)
			if !equalIDs(got, want) {
				t.Errorf("%s/%s: BNL kernel %d ids, scalar reference %d ids",
					dist, v.name, len(got), len(want))
			}
		}
		sfsK := sortedCopy(core.SFS(ds, core.Options{}).SkylineIDs)
		sfsS := sortedCopy(core.SFSScalar(ds).SkylineIDs)
		if !equalIDs(sfsK, want) || !equalIDs(sfsS, want) {
			t.Errorf("%s: SFS kernel %d / scalar %d ids, want %d",
				dist, len(sfsK), len(sfsS), len(want))
		}
	}
}

func sortedCopy(ids []int32) []int32 {
	out := append([]int32(nil), ids...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func equalIDs(a, b []int32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// kernelMergeFixture splits a dataset round-robin into shard-local
// skylines — the exact candidate shape the cluster coordinator's merge
// pass receives.
func kernelMergeFixture(ds *core.Dataset, shards int) ([]core.Point, []int) {
	var pts []core.Point
	var tags []int
	for s := 0; s < shards; s++ {
		sub := &core.Dataset{Domains: ds.Domains}
		for i := s; i < len(ds.Pts); i += shards {
			sub.Pts = append(sub.Pts, ds.Pts[i])
		}
		member := map[int32]bool{}
		for _, id := range core.BNL(sub, core.Options{}).SkylineIDs {
			member[id] = true
		}
		for _, p := range sub.Pts {
			if member[p.ID] {
				pts = append(pts, p)
				tags = append(tags, s)
			}
		}
	}
	return pts, tags
}

// BenchmarkKernel measures the dominance kernel (bitset closure +
// columnar loops + block zone maps) against the scalar reference on the
// paper-shaped N=50K cells: the BNL window scan end to end and the
// cross-shard merge elimination pass. Both variants of each pair
// compute identical results (enforced by FuzzSkylineAgreement and
// TestMergeSurvivorsKernelMatchesRef); BENCH_kernel.json records a run.
func BenchmarkKernel(b *testing.B) {
	for _, dist := range []data.Distribution{data.Independent, data.AntiCorrelated} {
		cfg := exp.StaticDefaults(0.05) // N = 50K
		cfg.Dist = dist
		ds := exp.BuildDataset(cfg)
		for _, v := range []struct {
			name string
			run  func(*core.Dataset) *core.Result
		}{
			{"bnl/kernel", func(ds *core.Dataset) *core.Result { return core.BNL(ds, core.Options{}) }},
			{"bnl/scalar", core.BNLScalar},
		} {
			b.Run(dist.String()+"/"+v.name, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					res := v.run(ds)
					b.ReportMetric(float64(len(res.SkylineIDs)), "skyline")
				}
			})
		}
		pts, tags := kernelMergeFixture(ds, 4)
		for _, v := range []struct {
			name  string
			merge func(doms []*poset.Domain, pts []core.Point, shard []int, workers int) []int
		}{
			{"merge/kernel", core.MergeSurvivors},
			{"merge/scalar", core.MergeSurvivorsScalar},
		} {
			b.Run(dist.String()+"/"+v.name, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					out := v.merge(ds.Domains, pts, tags, 1)
					b.ReportMetric(float64(len(out)), "survivors")
				}
			})
		}
	}
}
