package netem

import (
	"fmt"
	"testing"

	"vigil/internal/topology"
	"vigil/internal/traffic"
	"vigil/internal/vote"
)

// checkDenseSeqs asserts the invariant ingest's gap detection is built on:
// within one epoch, each agent's reports carry sequences 0..k-1 in emission
// order, and every report is stamped with the epoch it was emitted in.
func checkDenseSeqs(t *testing.T, reports []vote.Report, epoch int32, nhosts int) {
	t.Helper()
	next := make([]int32, nhosts)
	for i, r := range reports {
		if r.Epoch != epoch {
			t.Fatalf("report %d (agent %d): epoch stamp %d, want %d", i, r.Src, r.Epoch, epoch)
		}
		if r.Seq != next[r.Src] {
			t.Fatalf("report %d: agent %d sequence gap: got seq %d, want %d", i, r.Src, r.Seq, next[r.Src])
		}
		next[r.Src]++
	}
}

// checkBudget asserts the Ct budget rule on one epoch: each host's reports
// are exactly its first min(tcap, failed) failed flows in flow order (all of
// them when tcap is 0), Traced is set on those flows and on no other, and
// TotalDrops sums every failed flow's drops.
func checkBudget(t *testing.T, ep *Epoch, tcap int) {
	t.Helper()
	traced := map[topology.HostID]int{}
	var want []*FlowOutcome
	drops := 0
	for i := range ep.Failed {
		f := &ep.Failed[i]
		drops += f.Drops
		in := tcap == 0 || traced[f.Src] < tcap
		if f.Traced != in {
			t.Fatalf("flow %d of host %d: Traced %v, want %v (%d of its failed flows before it traced, cap %d)",
				f.FlowID, f.Src, f.Traced, in, traced[f.Src], tcap)
		}
		if in {
			traced[f.Src]++
			want = append(want, f)
		}
	}
	if ep.TotalDrops != drops {
		t.Fatalf("TotalDrops %d, failed flows sum to %d", ep.TotalDrops, drops)
	}
	if len(ep.Reports) != len(want) {
		t.Fatalf("%d reports, want %d", len(ep.Reports), len(want))
	}
	for i, r := range ep.Reports {
		f := want[i]
		if r.FlowID != f.FlowID || r.Src != f.Src || r.Dst != f.Dst || r.Retx != f.Drops || &r.Path[0] != &f.Path[0] {
			t.Fatalf("report %d is flow %d (host %d), want the traced flow %d (host %d)", i, r.FlowID, r.Src, f.FlowID, f.Src)
		}
	}
}

// The batch flow plane applies the traceroute budget and assigns dense,
// gap-free per-(agent, epoch) sequences the same way on full and delta
// epochs, with every source host listed once or some listed twice (a
// host's flows then span two source slots), capped or not.
func TestFlowPlaneReportSequencesDense(t *testing.T) {
	topo, err := topology.New(topology.Config{Pods: 2, ToRsPerPod: 6, T1PerPod: 4, T2: 4, HostsPerToR: 8})
	if err != nil {
		t.Fatal(err)
	}
	mk := func(tcap int, incremental bool, hosts []topology.HostID) *Sim {
		s, err := New(Config{
			Topo:    topo,
			NoiseLo: 0, NoiseHi: 1e-5,
			Workload: traffic.Workload{
				Pattern:        traffic.Uniform{},
				ConnsPerHost:   traffic.IntRange{Lo: 40, Hi: 40},
				PacketsPerFlow: traffic.IntRange{Lo: 100, Hi: 100},
				Hosts:          hosts,
			},
			TracerouteCap: tcap,
			Seed:          23,
			Parallelism:   4,
			Incremental:   incremental,
		})
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	nhosts := len(topo.Hosts)
	bad := topo.LinksOfClass(topology.L1Up)[1]
	flap := topo.LinksOfClass(topology.L2Down)[3]

	// Duplicate-host workloads scatter one agent's flows over several source
	// slots: adjacent ones, and the same twelve hosts again further on.
	dup := make([]topology.HostID, 0, 36)
	for i := 0; i < 12; i++ {
		dup = append(dup, topology.HostID(i), topology.HostID(i))
	}
	for i := 0; i < 12; i++ {
		dup = append(dup, topology.HostID(i))
	}

	for _, tcap := range []int{0, 2, 5} {
		for _, hosts := range []struct {
			name string
			list []topology.HostID
		}{{"unique", nil}, {"dup-hosts", dup}} {
			for _, incremental := range []bool{false, true} {
				name := fmt.Sprintf("cap=%d/%s/incremental=%v", tcap, hosts.name, incremental)
				s := mk(tcap, incremental, hosts.list)
				s.InjectFailure(bad, 0.03)
				// Epoch 0 is a full epoch (it builds the cache when
				// incremental); 1 and 2 re-score flap's flows on the delta path.
				for e := 0; e < 3; e++ {
					switch e {
					case 1:
						s.InjectFailure(flap, 0.05)
					case 2:
						s.ClearFailure(flap)
					}
					ep := s.RunEpoch()
					if len(ep.Reports) == 0 {
						t.Fatalf("%s epoch %d: no reports — the fixture is not exercising anything", name, e)
					}
					if tcap > 0 && len(ep.Reports) == len(ep.Failed) {
						t.Fatalf("%s epoch %d: the cap suppressed no report", name, e)
					}
					checkDenseSeqs(t, ep.Reports, int32(e), nhosts)
					checkBudget(t, ep, tcap)
				}
			}
		}
	}
}
