package core

import (
	"runtime"
	"sync"

	"repro/internal/poset"
	"repro/internal/rtree"
)

// The scalar *Point/interval elimination loops the dominance kernel
// replaced. They answer exactly what the kernel forms of BNL, SFS,
// SaLSa, LESS, the cross-shard merge and the layer peel answer, one
// DominatesUnder/toDominates test at a time, and serve as the oracles
// the kernel is checked against (FuzzSkylineAgreement,
// TestMergeSurvivorsKernelMatchesRef, TestLayersUnderMatchesScalar,
// TestKernelMatchesScalarLargeN) and as the before side of
// BenchmarkKernel.

// bnlScalar is the scalar *Point/interval BNL the kernel path is
// validated against.
func bnlScalar(ds *Dataset) *Result {
	res := &Result{}
	clock := newEmitClock(&rtree.IOCounter{})
	var cands []*Point
	var checks int64
	for i := range ds.Pts {
		p := &ds.Pts[i]
		dominated := false
		keep := cands[:0]
		for _, c := range cands {
			if dominated {
				keep = append(keep, c)
				continue
			}
			checks++
			if DominatesUnder(ds.Domains, c, p) {
				dominated = true
				keep = append(keep, c)
				continue
			}
			checks++
			if !DominatesUnder(ds.Domains, p, c) {
				keep = append(keep, c)
			}
		}
		cands = keep
		if !dominated {
			cands = append(cands, p)
		}
	}
	for _, c := range cands {
		res.SkylineIDs = append(res.SkylineIDs, c.ID)
		res.Metrics.Emissions = append(res.Metrics.Emissions, clock.emission(c.ID))
	}
	res.Metrics.DomChecks = checks
	res.Metrics.CPU = clock.elapsed()
	return res
}

// sfsScalar is SFS with a scalar grow-only window.
func sfsScalar(ds *Dataset) *Result {
	res := &Result{}
	clock := newEmitClock(&rtree.IOCounter{})
	var checks int64
	var sky []*Point
	for _, idx := range sfsOrder(ds) {
		p := &ds.Pts[idx]
		dominated := false
		for _, s := range sky {
			checks++
			if DominatesUnder(ds.Domains, s, p) {
				dominated = true
				break
			}
		}
		if dominated {
			continue
		}
		sky = append(sky, p)
		res.SkylineIDs = append(res.SkylineIDs, p.ID)
		res.Metrics.Emissions = append(res.Metrics.Emissions, clock.emission(p.ID))
	}
	res.Metrics.DomChecks = checks
	res.Metrics.CPU = clock.elapsed()
	return res
}

// salsaScalar is SaLSa with a scalar window; the stop point and scan
// order are SaLSa's own.
func salsaScalar(ds *Dataset) (*Result, error) {
	if err := requireTO(ds, "SaLSa"); err != nil {
		return nil, err
	}
	res := &Result{}
	clock := newEmitClock(&rtree.IOCounter{})
	order := salsaOrder(ds)
	var sky []*Point
	var checks int64
	stopMax := int64(-1)
	examined := 0
	for _, idx := range order {
		p := &ds.Pts[idx]
		if stopMax >= 0 && minCoord(p.TO) > stopMax {
			break
		}
		examined++
		dominated := false
		for _, s := range sky {
			checks++
			if toDominates(s.TO, p.TO) {
				dominated = true
				break
			}
		}
		if dominated {
			continue
		}
		sky = append(sky, p)
		res.SkylineIDs = append(res.SkylineIDs, p.ID)
		res.Metrics.Emissions = append(res.Metrics.Emissions, clock.emission(p.ID))
		if mx := maxCoord(p.TO); stopMax < 0 || mx < stopMax {
			stopMax = mx
		}
	}
	res.Metrics.PointsPruned = int64(len(order) - examined)
	res.Metrics.DomChecks = checks
	res.Metrics.CPU = clock.elapsed()
	return res, nil
}

// lessScalar is LESS with a scalar pass-two window; pass one (the
// elimination filter) is LESS's own, which is scalar anyway.
func lessScalar(ds *Dataset, opt Options) (*Result, error) {
	if err := requireTO(ds, "LESS"); err != nil {
		return nil, err
	}
	res := &Result{}
	clock := newEmitClock(&rtree.IOCounter{})
	survivors, checks, pruned := lessFilter(ds, opt)
	res.Metrics.PointsPruned = pruned
	var sky []*Point
	for _, idx := range survivors {
		p := &ds.Pts[idx]
		dominated := false
		for _, s := range sky {
			checks++
			if toDominates(s.TO, p.TO) {
				dominated = true
				break
			}
		}
		if dominated {
			continue
		}
		sky = append(sky, p)
		res.SkylineIDs = append(res.SkylineIDs, p.ID)
		res.Metrics.Emissions = append(res.Metrics.Emissions, clock.emission(p.ID))
	}
	res.Metrics.DomChecks = checks
	res.Metrics.CPU = clock.elapsed()
	return res, nil
}

// mergeSurvivorsScalar is MergeSurvivors on the all-pairs scalar pass:
// every candidate is tested against every candidate of another shard,
// workers owning strided candidate sets.
func mergeSurvivorsScalar(domains []*poset.Domain, pts []Point, shard []int, workers int) []int {
	n := len(pts)
	if workers < 1 {
		workers = 1
	}
	if workers > n {
		workers = n
	}
	dominated := make([]bool, n)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < n; i += workers {
				for j := 0; j < n; j++ {
					if shard[j] == shard[i] {
						continue
					}
					if DominatesUnder(domains, &pts[j], &pts[i]) {
						dominated[i] = true
						break
					}
				}
			}
		}(w)
	}
	wg.Wait()
	out := make([]int, 0, n)
	for i := range pts {
		if !dominated[i] {
			out = append(out, i)
		}
	}
	return out
}

// layersUnderScalar is LayersUnder peeling each layer with the
// all-pairs scalar merge instead of STSS.
func layersUnderScalar(domains []*poset.Domain, pts []Point, maxLayer int) []int32 {
	layers := make([]int32, len(pts))
	alive := make([]int, len(pts))
	for i := range alive {
		alive[i] = i
	}
	workers := runtime.GOMAXPROCS(0)
	for layer := int32(1); len(alive) > 0; layer++ {
		if maxLayer > 0 && int(layer) > maxLayer {
			break
		}
		sub := make([]Point, len(alive))
		for k, i := range alive {
			sub[k] = pts[i]
			sub[k].ID = int32(k)
		}
		// Distinct tags per candidate so the merge pass skips no pair:
		// with every "shard" unique the elimination is a plain skyline.
		tags := make([]int, len(sub))
		for k := range tags {
			tags[k] = k
		}
		keep := mergeSurvivorsScalar(domains, sub, tags, workers)
		inLayer := make([]bool, len(alive))
		for _, k := range keep {
			layers[alive[k]] = layer
			inLayer[k] = true
		}
		next := alive[:0]
		for k, i := range alive {
			if !inLayer[k] {
				next = append(next, i)
			}
		}
		alive = next
	}
	return layers
}

// scalarRun is the kernel-off form of the named registered algorithm:
// the scalar reference for the four kernel algorithms, the algorithm
// itself for the rest (sTSS, BBS+, SDC, SDC+ never used the kernel).
func scalarRun(a Algorithm) func(*Dataset, Options) (*Result, error) {
	switch a.Name() {
	case "bnl":
		return func(ds *Dataset, _ Options) (*Result, error) { return bnlScalar(ds), nil }
	case "sfs":
		return func(ds *Dataset, _ Options) (*Result, error) { return sfsScalar(ds), nil }
	case "salsa":
		return func(ds *Dataset, _ Options) (*Result, error) { return salsaScalar(ds) }
	case "less":
		return lessScalar
	}
	return a.Run
}

// parallelScalar is the partition-and-merge executor on the scalar
// references: the same contiguous shards Parallel cuts, each shard's
// local skyline from run(shard, opt), merged by mergeSurvivorsScalar.
func parallelScalar(ds *Dataset, run func(*Dataset, Options) (*Result, error), opt Options, shards int) ([]int32, error) {
	if shards > len(ds.Pts) {
		shards = len(ds.Pts)
	}
	if shards <= 1 {
		res, err := run(ds, opt)
		if err != nil {
			return nil, err
		}
		return res.SkylineIDs, nil
	}
	byID := make(map[int32]Point, len(ds.Pts))
	for _, p := range ds.Pts {
		byID[p.ID] = p
	}
	var pts []Point
	var tags []int
	for s := 0; s < shards; s++ {
		lo := s * len(ds.Pts) / shards
		hi := (s + 1) * len(ds.Pts) / shards
		res, err := run(&Dataset{Pts: ds.Pts[lo:hi], Domains: ds.Domains}, opt)
		if err != nil {
			return nil, err
		}
		for _, id := range res.SkylineIDs {
			pts = append(pts, byID[id])
			tags = append(tags, s)
		}
	}
	var ids []int32
	for _, i := range mergeSurvivorsScalar(ds.Domains, pts, tags, 1) {
		ids = append(ids, pts[i].ID)
	}
	return ids, nil
}
