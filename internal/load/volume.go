package load

import (
	"math/rand"

	"mqsched/internal/vol"
)

// VolumeAnalysts emulates analysts of the 3-D volume app rendering
// maximum-intensity projections of slabs of two volumes, vol1 and vol2, each
// of size dims. Client c works on volume c mod 2 around one focus jittered
// from the volume's centre, at mixed zooms {2,4,8} with 512-pixel outputs,
// and alternates between the full stack and a focused half-slab.
// Generation is deterministic in seed.
func VolumeAnalysts(dims vol.Dims, seed int64, clients, perClient int) [][]vol.Meta {
	names := []string{"vol1", "vol2"}
	out := make([][]vol.Meta, clients)
	for c := 0; c < clients; c++ {
		rng := rand.New(rand.NewSource(seed + int64(c)*131 + 17))
		ds := names[c%len(names)]
		fx := dims.Width/2 + int64(rng.NormFloat64()*600)
		fy := dims.Height/2 + int64(rng.NormFloat64()*600)
		for q := 0; q < perClient; q++ {
			zoom := []int64{2, 4, 8}[rng.Intn(3)]
			w := squareAt(fx, fy, 512*zoom, zoom, dims.Width, dims.Height)
			z0, z1 := 0, dims.Depth
			if q%2 == 1 {
				z0, z1 = dims.Depth/4, 3*dims.Depth/4
			}
			out[c] = append(out[c], vol.NewMeta(ds, dims, w, z0, z1, zoom, vol.MIP))
		}
	}
	return out
}
