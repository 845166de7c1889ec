package ecmp

import (
	"testing"

	"vigil/internal/stats"
	"vigil/internal/topology"
)

// BenchmarkPathInto resolves routes on the reference datacenter fabric
// (DatacenterSimConfig, 142,848 directed links) into one reused PathBuf, as
// a flow-plane worker does. One op is one path. The flows are a fixed set
// of uniformly drawn host pairs, so nearly every route crosses the spine and
// consecutive routes share no cache lines, as in a full epoch. The file uses
// only PathInto's API, so it also runs against a commit with another walk.
func BenchmarkPathInto(b *testing.B) {
	topo, err := topology.New(topology.DatacenterSimConfig.Flatten())
	if err != nil {
		b.Fatal(err)
	}
	r := NewRouter(topo, NewSeeds(topo, stats.NewRNG(1)))
	rng := stats.NewRNG(2)
	type flow struct {
		src, dst topology.HostID
		tuple    FiveTuple
	}
	flows := make([]flow, 1<<16)
	for i := range flows {
		src := topology.HostID(rng.Intn(len(topo.Hosts)))
		dst := topology.HostID(rng.Intn(len(topo.Hosts) - 1))
		if dst >= src {
			dst++
		}
		flows[i] = flow{src, dst, randomTuple(rng, topo, src, dst)}
	}
	var buf PathBuf
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f := &flows[i&(len(flows)-1)]
		if err := r.PathInto(f.src, f.dst, f.tuple, &buf); err != nil {
			b.Fatal(err)
		}
	}
}
