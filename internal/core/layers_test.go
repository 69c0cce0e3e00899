package core

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// TestLayersUnderMatchesScalar: the STSS layer peel assigns every point
// the same depth as the all-pairs scalar peel, for every maxLayer bound
// (0 = all layers), on mixed TO/PO data with exact duplicates — copies
// of a point share its layer — and layer 1 is exactly the skyline.
func TestLayersUnderMatchesScalar(t *testing.T) {
	prop := func(seed int64, nRaw uint16, poRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(nRaw%60) + 1
		ds := randomDataset(rng, n, 2, 1+int(poRaw%2))
		for i := 0; i < n/4+1; i++ {
			dup := ds.Pts[rng.Intn(n)]
			dup.ID = int32(len(ds.Pts))
			ds.Pts = append(ds.Pts, dup)
		}
		sky := map[int32]bool{}
		for _, id := range ds.NaiveSkyline() {
			sky[id] = true
		}
		for maxLayer := 0; maxLayer <= 3; maxLayer++ {
			got := LayersUnder(ds.Domains, ds.Pts, maxLayer)
			want := layersUnderScalar(ds.Domains, ds.Pts, maxLayer)
			for i := range ds.Pts {
				if got[i] != want[i] {
					t.Logf("seed=%d maxLayer=%d: point %d in layer %d, scalar peel says %d",
						seed, maxLayer, i, got[i], want[i])
					return false
				}
				if (got[i] == 1) != sky[ds.Pts[i].ID] {
					t.Logf("seed=%d maxLayer=%d: point %d layer %d disagrees with the naive skyline",
						seed, maxLayer, i, got[i])
					return false
				}
				if maxLayer > 0 && int(got[i]) > maxLayer {
					t.Logf("seed=%d maxLayer=%d: point %d reported at depth %d", seed, maxLayer, i, got[i])
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}
