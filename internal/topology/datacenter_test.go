package topology_test

import (
	"testing"

	"vigil/internal/ecmp"
	"vigil/internal/stats"
	"vigil/internal/topology"
)

// The reference datacenter fabric must actually be datacenter-scale: past
// the 100k directed-link mark the scaling work targets, by the closed forms
// of its flattened view.
func TestDatacenterSimConfigScale(t *testing.T) {
	c := topology.DatacenterSimConfig.Flatten()
	if got := c.DirectedLinks(); got != 142848 {
		t.Fatalf("DatacenterSimConfig.DirectedLinks() = %d, want 142848", got)
	}
	if c.DirectedLinks() < 100_000 {
		t.Fatalf("reference datacenter below the 100k-link mark: %d", c.DirectedLinks())
	}
	if got, want := c.Hosts(), 34560; got != want {
		t.Fatalf("Hosts() = %d, want %d", got, want)
	}
	if got, want := c.Pods, 24; got != want {
		t.Fatalf("Pods = %d, want %d", got, want)
	}
}

// The packet plane's datacenter target keeps the multi-cluster shape but
// trades radix for pod count: 32 pods, while 256 hosts keeps a full
// packet-granularity epoch tractable in CI.
func TestDatacenterPacketConfigScale(t *testing.T) {
	c := topology.DatacenterPacketConfig
	if err := c.Validate(); err != nil {
		t.Fatalf("packet config rejected: %v", err)
	}
	flat := c.Flatten()
	if got := flat.Pods; got < 32 {
		t.Fatalf("Pods = %d, want >= 32 (the packet plane's scale target)", got)
	}
	if got, want := flat.Hosts(), 256; got != want {
		t.Fatalf("Hosts() = %d, want %d", got, want)
	}
	if got, want := flat.DirectedLinks(), 3584; got != want {
		t.Fatalf("DirectedLinks() = %d, want %d", got, want)
	}
	topo, err := topology.NewDatacenter(c)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := topo.Cfg.Pods, flat.Pods; got != want {
		t.Fatalf("flattened pods = %d, want %d", got, want)
	}
}

func TestDatacenterValidate(t *testing.T) {
	bad := []topology.DatacenterConfig{
		{Clusters: 0, PodsPerCluster: 1, ToRsPerPod: 2, T1PerPod: 2, T2: 2, HostsPerToR: 2},
		{Clusters: 1, PodsPerCluster: 0, ToRsPerPod: 2, T1PerPod: 2, T2: 2, HostsPerToR: 2},
		// Flattened pod count over the address plan's 199-pod limit.
		{Clusters: 100, PodsPerCluster: 2, ToRsPerPod: 2, T1PerPod: 2, T2: 2, HostsPerToR: 2},
		// Invalid inner fabric.
		{Clusters: 2, PodsPerCluster: 2, ToRsPerPod: 0, T1PerPod: 2, T2: 2, HostsPerToR: 2},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("case %d: invalid datacenter config accepted: %+v", i, c)
		}
		if _, err := topology.NewDatacenter(c); err == nil {
			t.Errorf("case %d: NewDatacenter accepted %+v", i, c)
		}
	}
	if err := topology.DatacenterSimConfig.Validate(); err != nil {
		t.Fatalf("reference config rejected: %v", err)
	}
}

// Build the full reference datacenter once and check the structural
// invariants at scale: link count, per-tier radix, and the arithmetic
// LookupIP inverse round-tripping every node's address.
func TestDatacenterBuildInvariants(t *testing.T) {
	topo, err := topology.NewDatacenter(topology.DatacenterSimConfig)
	if err != nil {
		t.Fatal(err)
	}
	c := topology.DatacenterSimConfig.Flatten()
	if got := len(topo.Links); got != c.DirectedLinks() {
		t.Fatalf("built %d directed links, want closed-form %d", got, c.DirectedLinks())
	}
	if got := len(topo.Hosts); got != c.Hosts() {
		t.Fatalf("built %d hosts, want %d", got, c.Hosts())
	}
	// Radix: every ToR uplinks to each of its pod's T1s and downlinks to
	// its hosts; every T1 uplinks to the whole shared spine; every T2
	// downlinks to every pod's T1s — the property that makes the cluster
	// fabrics one datacenter rather than disjoint islands.
	for _, sw := range topo.Switches {
		var wantUp, wantDown int
		switch sw.Tier {
		case topology.TierToR:
			wantUp, wantDown = c.T1PerPod, c.HostsPerToR
		case topology.TierT1:
			wantUp, wantDown = c.T2, c.ToRsPerPod
		case topology.TierT2:
			wantUp, wantDown = 0, c.Pods*c.T1PerPod
		}
		if len(sw.Uplinks) != wantUp || len(sw.Downlinks) != wantDown {
			t.Fatalf("%s radix %d up / %d down, want %d/%d",
				sw.Name, len(sw.Uplinks), len(sw.Downlinks), wantUp, wantDown)
		}
	}
	// LookupIP round-trip over every node at datacenter scale.
	for i := range topo.Hosts {
		h := topology.HostID(i)
		n, ok := topo.LookupIP(topo.Hosts[h].IP)
		if !ok || n != topology.HostNode(h) {
			t.Fatalf("host %d failed the LookupIP round-trip", h)
		}
	}
	for _, sw := range topo.Switches {
		n, ok := topo.LookupIP(sw.IP)
		if !ok || n != topology.SwitchNode(sw.ID) {
			t.Fatalf("%s failed the LookupIP round-trip", sw.Name)
		}
	}
}

// Cross-cluster routing sanity: an ECMP path between hosts in different
// clusters traverses the shared spine (host→ToR→T1→T2→T1→ToR→host), and
// every hop is a real consecutive link.
func TestDatacenterCrossClusterRouting(t *testing.T) {
	c := topology.DatacenterConfig{Clusters: 3, PodsPerCluster: 2, ToRsPerPod: 4, T1PerPod: 3, T2: 4, HostsPerToR: 3}
	topo, err := topology.NewDatacenter(c)
	if err != nil {
		t.Fatal(err)
	}
	rng := stats.NewRNG(1)
	router := ecmp.NewRouter(topo, ecmp.NewSeeds(topo, rng.Split()))
	src := topo.HostAt(0, 0, 0)                  // cluster 0
	dst := topo.HostAt(2*c.PodsPerCluster, 1, 2) // cluster 2
	tuple := ecmp.FiveTuple{SrcIP: topo.Hosts[src].IP, DstIP: topo.Hosts[dst].IP, SrcPort: 40000, DstPort: 443, Proto: ecmp.ProtoTCP}
	var buf ecmp.PathBuf
	if err := router.PathInto(src, dst, tuple, &buf); err != nil {
		t.Fatal(err)
	}
	links := buf.Links()
	if len(links) != 6 {
		t.Fatalf("cross-cluster path has %d links, want 6 (up through the spine and down)", len(links))
	}
	for i := 1; i < len(links); i++ {
		if topo.Links[links[i]].From != topo.Links[links[i-1]].To {
			t.Fatalf("path hop %d does not continue from hop %d", i, i-1)
		}
	}
	spine := topo.Links[links[2]].To
	if spine.Kind != topology.NodeSwitch || topo.Switches[spine.ID].Tier != topology.TierT2 {
		t.Fatalf("cross-cluster path does not peak at the shared T2 spine (peak %v)", spine)
	}
}
