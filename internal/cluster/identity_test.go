package cluster

import (
	"testing"

	"vigil/internal/des"
	"vigil/internal/stats"
	"vigil/internal/topology"
	"vigil/internal/traffic"
	"vigil/internal/vote"
)

// The packet plane stamps every report at the cl.report choke point with
// the (agent, epoch, seq) identity ingest's gap detection relies on:
// per-(agent, epoch) sequences dense 0..k-1 in emission order, epoch equal
// to the running epoch's index.
func TestPacketPlaneReportSequencesDense(t *testing.T) {
	topo, err := topology.New(topology.TestClusterConfig)
	if err != nil {
		t.Fatal(err)
	}
	cl, err := New(Config{Topo: topo, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	var got []vote.Report
	emit := func(r vote.Report) { got = append(got, r) }
	// A rate high enough that every epoch reliably drops registered data
	// on the failed link: marginal epochs (few forward flows hashed onto
	// it) must still produce reports, or the density assertions below
	// would silently check nothing.
	bad := topo.LinksOfClass(topology.L1Down)[3]
	cl.InjectFailure(bad, 0.10)

	rng := stats.NewRNG(9)
	w := traffic.Workload{
		Pattern:        traffic.Uniform{},
		ConnsPerHost:   traffic.IntRange{Lo: 6, Hi: 6},
		PacketsPerFlow: traffic.IntRange{Lo: 60, Hi: 60},
	}
	for e := 0; e < 3; e++ {
		got = got[:0]
		for _, f := range w.GenerateInto(nil, rng.Split(), topo) {
			cl.StartFlow(f, cl.Sched.Now()+des.Time(rng.Intn(int(10*des.Second))))
		}
		stepChecked(t, cl, emit)
		if len(got) == 0 {
			t.Fatalf("epoch %d: no reports — the fixture is not exercising anything", e)
		}
		next := make([]int32, len(topo.Hosts))
		for i, r := range got {
			if r.Epoch != int32(e) {
				t.Fatalf("epoch %d report %d (agent %d): epoch stamp %d", e, i, r.Src, r.Epoch)
			}
			if r.Seq != next[r.Src] {
				t.Fatalf("epoch %d report %d: agent %d sequence gap: got %d, want %d",
					e, i, r.Src, r.Seq, next[r.Src])
			}
			next[r.Src]++
		}
	}
}
