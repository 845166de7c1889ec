package ecmp

import (
	"fmt"
	"slices"
	"testing"

	"vigil/internal/stats"
	"vigil/internal/topology"
)

// hopWalk is PathInto's reference: NextHopLink at every switch, following
// each chosen link's far end in topo.Links until the walk reaches a host.
func hopWalk(r *Router, src, dst topology.HostID, t FiveTuple) ([]topology.LinkID, error) {
	topo := r.Topo
	links := []topology.LinkID{topo.Hosts[src].Uplink}
	for cur := topo.Hosts[src].ToR; len(links) <= MaxPathLinks; {
		l, err := r.NextHopLink(cur, t, dst)
		if err != nil {
			return nil, err
		}
		links = append(links, l)
		to := topo.Links[l].To
		if to.Kind == topology.NodeHost {
			if topology.HostID(to.ID) != dst {
				return nil, fmt.Errorf("delivered to host %d, want %d", to.ID, dst)
			}
			return links, nil
		}
		cur = topology.SwitchID(to.ID)
	}
	return nil, fmt.Errorf("no host within %d switches", MaxPathLinks)
}

// PathInto walks the Clos by tier and never reads topo.Links, so it must
// resolve exactly the route the hop-by-hop walk does, on every shape the
// planes run: same ToR, same pod and cross pod, with one PathBuf reused
// across flows as each simulator worker reuses one. A same-host request
// must fail and leave the buffer empty, even after a resolved path.
func TestPathIntoMatchesHopWalk(t *testing.T) {
	for _, cfg := range []topology.Config{
		topology.DefaultSimConfig,
		topology.DatacenterSimConfig.Flatten(),
		topology.DatacenterPacketConfig.Flatten(),
		{Pods: 3, ToRsPerPod: 4, T1PerPod: 3, T2: 4, HostsPerToR: 4},
		topology.TestClusterConfig, // one pod, no tier 2
	} {
		r := buildRouter(t, cfg, 7)
		topo := r.Topo
		rng := stats.NewRNG(11)
		perToR := cfg.HostsPerToR
		perPod := cfg.ToRsPerPod * perToR
		var buf PathBuf
		for i := 0; i < 50_000; i++ {
			src := rng.Intn(len(topo.Hosts))
			dst := rng.Intn(len(topo.Hosts)) // cross pod, mostly
			switch i % 3 {
			case 0: // under src's ToR
				dst = src - src%perToR + rng.Intn(perToR)
			case 1: // in src's pod
				dst = src - src%perPod + rng.Intn(perPod)
			}
			tuple := randomTuple(rng, topo, topology.HostID(src), topology.HostID(dst))
			err := r.PathInto(topology.HostID(src), topology.HostID(dst), tuple, &buf)
			if src == dst {
				if err == nil || len(buf.Links()) != 0 {
					t.Fatalf("%+v: PathInto(%d, %d) = %v with %d links left, want an error and an empty buffer",
						cfg, src, dst, err, len(buf.Links()))
				}
				continue
			}
			if err != nil {
				t.Fatalf("%+v: PathInto(%d, %d): %v", cfg, src, dst, err)
			}
			links, err := hopWalk(r, topology.HostID(src), topology.HostID(dst), tuple)
			if err != nil {
				t.Fatalf("%+v: hop walk %d→%d: %v", cfg, src, dst, err)
			}
			if !slices.Equal(buf.Links(), links) {
				t.Fatalf("%+v: %d→%d %v: PathInto links %v, hop walk %v",
					cfg, src, dst, tuple, buf.Links(), links)
			}
		}
		if err := r.PathInto(0, 0, FiveTuple{}, &buf); err == nil || len(buf.Links()) != 0 {
			t.Fatalf("%+v: PathInto(0, 0) = %v with %d links left, want an error and an empty buffer", cfg, err, len(buf.Links()))
		}
	}
}

// PathInto on one PathBuf reused across flows, as each simulator worker
// reuses one, must give the route a fresh PathBuf gets: no stale link
// survives a reuse.
func TestPathIntoMatchesPath(t *testing.T) {
	r := buildRouter(t, topology.Config{Pods: 3, ToRsPerPod: 4, T1PerPod: 3, T2: 4, HostsPerToR: 4}, 7)
	topo := r.Topo
	rng := stats.NewRNG(11)
	var buf PathBuf
	for i := 0; i < 2000; i++ {
		src := topology.HostID(rng.Intn(len(topo.Hosts)))
		dst := topology.HostID(rng.Intn(len(topo.Hosts)))
		if src == dst {
			continue
		}
		tuple := FiveTuple{
			SrcIP: topo.Hosts[src].IP, DstIP: topo.Hosts[dst].IP,
			SrcPort: uint16(rng.IntRange(1024, 65535)), DstPort: 443,
			Proto: ProtoTCP,
		}
		want, err := route(r, src, dst, tuple)
		if err != nil {
			t.Fatal(err)
		}
		if err := r.PathInto(src, dst, tuple, &buf); err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(buf.Links(), want) {
			t.Fatalf("flow %d: reused buffer %v, fresh one %v", i, buf.Links(), want)
		}
	}
}

func TestPathIntoErrors(t *testing.T) {
	r := buildRouter(t, topology.TestClusterConfig, 3)
	var buf PathBuf
	if err := r.PathInto(1, 1, FiveTuple{}, &buf); err == nil {
		t.Fatal("same-host path did not error")
	}
	if len(buf.Links()) != 0 {
		t.Fatal("failed resolution left stale contents in the buffer")
	}
}

// The hot path budget: resolving into a PathBuf must not allocate.
func TestPathIntoDoesNotAllocate(t *testing.T) {
	r := buildRouter(t, topology.DefaultSimConfig, 5)
	topo := r.Topo
	tuple := FiveTuple{
		SrcIP: topo.Hosts[0].IP, DstIP: topo.Hosts[len(topo.Hosts)-1].IP,
		SrcPort: 40000, DstPort: 443, Proto: ProtoTCP,
	}
	dst := topology.HostID(len(topo.Hosts) - 1)
	var buf PathBuf
	avg := testing.AllocsPerRun(100, func() {
		if err := r.PathInto(0, dst, tuple, &buf); err != nil {
			t.Fatal(err)
		}
	})
	if avg != 0 {
		t.Fatalf("PathInto allocates %.1f times per call, want 0", avg)
	}
}
