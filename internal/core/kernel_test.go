package core

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// TestColSetCompactInterleaved: compaction must preserve exactly the
// live members, in insertion order, when survivors and corpses
// interleave within alive words. This is the regression test for a
// compaction bug where the rebuilt alive mask reused the old mask's
// backing array and clobbered liveness bits ahead of the read cursor,
// silently dropping the oldest survivors.
func TestColSetCompactInterleaved(t *testing.T) {
	k := newColSet(nil, 2, 0, 0, false)
	n := 1024
	for i := 0; i < n; i++ {
		k.append([]int32{int32(i), int32(n - i)}, nil, int32(i), -1)
	}
	// Kill two of every three members (strictly more than half, so
	// maybeCompact actually compacts), leaving survivors interleaved.
	var want []int32
	for i := 0; i < n; i++ {
		if i%3 != 0 {
			k.alive[i>>6] &^= 1 << (uint(i) & 63)
			k.nAlive--
		} else {
			want = append(want, int32(i))
		}
	}
	k.maybeCompact()
	if k.cols.Len() != len(want) {
		t.Fatalf("compacted to %d members, want %d", k.cols.Len(), len(want))
	}
	got := k.aliveIDs(nil)
	if len(got) != len(want) {
		t.Fatalf("%d alive ids after compaction, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("alive[%d] = %d, want %d", i, got[i], want[i])
		}
	}
}

// TestMergeSurvivorsKernelMatchesRef: the kernel merge pass and the
// all-pairs scalar reference merge answer identically — same survivor indexes, and the
// survivor set is exactly the global skyline — for random shardings
// where each shard contributes its own local skyline (the precondition
// cluster shard responses satisfy by construction).
func TestMergeSurvivorsKernelMatchesRef(t *testing.T) {
	prop := func(seed int64, nRaw uint16, shRaw, wRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(nRaw%80) + 1
		nShards := int(shRaw%4) + 1
		workers := int(wRaw%4) + 1
		ds := randomDataset(rng, n, 2, 2)

		var pts []Point
		var shard []int
		for s := 0; s < nShards; s++ {
			var local []Point
			for i := s; i < n; i += nShards {
				local = append(local, ds.Pts[i])
			}
			if len(local) == 0 {
				continue
			}
			keep := map[int32]bool{}
			for _, id := range NaiveSkylineUnder(ds.Domains, local) {
				keep[id] = true
			}
			for _, p := range local {
				if keep[p.ID] {
					pts = append(pts, p)
					shard = append(shard, s)
				}
			}
		}

		got := MergeSurvivors(ds.Domains, pts, shard, workers)
		ref := mergeSurvivorsScalar(ds.Domains, pts, shard, workers)
		if len(got) != len(ref) {
			t.Logf("seed=%d: kernel kept %d, reference kept %d", seed, len(got), len(ref))
			return false
		}
		for i := range got {
			if got[i] != ref[i] {
				t.Logf("seed=%d: survivor %d: kernel idx %d, reference idx %d", seed, i, got[i], ref[i])
				return false
			}
		}

		var ids []int32
		for _, i := range got {
			ids = append(ids, pts[i].ID)
		}
		if !sameIDSet(ids, ds.NaiveSkyline()) {
			t.Logf("seed=%d: merge survivors %v, global skyline %v", seed, ids, ds.NaiveSkyline())
			return false
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}
