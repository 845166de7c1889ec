package topology

import (
	"testing"
	"testing/quick"
)

func TestDefaultSimConfigLinkCount(t *testing.T) {
	// The paper's §6 simulator: "4160 links, 2 pods, and 20 ToRs per pod".
	if got := DefaultSimConfig.DirectedLinks(); got != 4160 {
		t.Fatalf("DefaultSimConfig.DirectedLinks() = %d, want 4160", got)
	}
}

func TestTestClusterConfigLinkCount(t *testing.T) {
	// §7 test cluster: 80 physical links = 160 directed.
	if got := TestClusterConfig.DirectedLinks(); got != 160 {
		t.Fatalf("TestClusterConfig.DirectedLinks() = %d, want 160", got)
	}
}

func TestBuildMatchesClosedForms(t *testing.T) {
	cfgs := []Config{
		DefaultSimConfig,
		TestClusterConfig,
		{Pods: 1, ToRsPerPod: 2, T1PerPod: 2, T2: 2, HostsPerToR: 2},
		{Pods: 4, ToRsPerPod: 8, T1PerPod: 4, T2: 8, HostsPerToR: 8},
	}
	for _, cfg := range cfgs {
		topo, err := New(cfg)
		if err != nil {
			t.Fatalf("New(%+v): %v", cfg, err)
		}
		if got, want := len(topo.Links), cfg.DirectedLinks(); got != want {
			t.Errorf("%+v: %d links, want %d", cfg, got, want)
		}
		if got, want := len(topo.Hosts), cfg.Hosts(); got != want {
			t.Errorf("%+v: %d hosts, want %d", cfg, got, want)
		}
		wantSw := cfg.Pods*(cfg.ToRsPerPod+cfg.T1PerPod) + cfg.T2
		if got := len(topo.Switches); got != wantSw {
			t.Errorf("%+v: %d switches, want %d", cfg, got, wantSw)
		}
	}
}

func TestValidate(t *testing.T) {
	bad := []Config{
		{},
		{Pods: 0, ToRsPerPod: 1, T1PerPod: 1, T2: 1, HostsPerToR: 1},
		{Pods: 2, ToRsPerPod: 1, T1PerPod: 1, T2: 0, HostsPerToR: 1}, // multi-pod needs T2
		{Pods: 1, ToRsPerPod: 0, T1PerPod: 1, T2: 1, HostsPerToR: 1},
		{Pods: 1, ToRsPerPod: 1, T1PerPod: 0, T2: 1, HostsPerToR: 1},
		{Pods: 1, ToRsPerPod: 1, T1PerPod: 1, T2: 1, HostsPerToR: 0},
		{Pods: 300, ToRsPerPod: 1, T1PerPod: 1, T2: 1, HostsPerToR: 1},
	}
	for _, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Errorf("Validate(%+v) = nil, want error", cfg)
		}
		if _, err := New(cfg); err == nil {
			t.Errorf("New(%+v) succeeded, want error", cfg)
		}
	}
	if err := (Config{Pods: 1, ToRsPerPod: 4, T1PerPod: 2, T2: 0, HostsPerToR: 2}).Validate(); err != nil {
		t.Errorf("single-pod config without T2 should validate: %v", err)
	}
}

func TestReverseLinks(t *testing.T) {
	topo, err := New(DefaultSimConfig)
	if err != nil {
		t.Fatal(err)
	}
	for _, l := range topo.Links {
		r := topo.Links[l.Reverse]
		if r.Reverse != l.ID {
			t.Fatalf("link %d: reverse of reverse is %d", l.ID, r.Reverse)
		}
		if r.From != l.To || r.To != l.From {
			t.Fatalf("link %d: reverse endpoints mismatch", l.ID)
		}
	}
}

func TestLinkClassCounts(t *testing.T) {
	cfg := DefaultSimConfig
	topo, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := map[LinkClass]int{
		HostUp:   cfg.Pods * cfg.ToRsPerPod * cfg.HostsPerToR,
		HostDown: cfg.Pods * cfg.ToRsPerPod * cfg.HostsPerToR,
		L1Up:     cfg.Pods * cfg.ToRsPerPod * cfg.T1PerPod,
		L1Down:   cfg.Pods * cfg.ToRsPerPod * cfg.T1PerPod,
		L2Up:     cfg.Pods * cfg.T1PerPod * cfg.T2,
		L2Down:   cfg.Pods * cfg.T1PerPod * cfg.T2,
	}
	for class, n := range want {
		if got := len(topo.LinksOfClass(class)); got != n {
			t.Errorf("class %v: %d links, want %d", class, got, n)
		}
	}
}

// LinkBetween is arithmetic on the port order: over every ordered node
// pair of a three-tier and a T2-free fabric it agrees with adjacency read
// from Links, and a pair that is not adjacent — including ids outside the
// topology, a ToR and a T1 of different pods, and a host and a ToR other
// than its own — is (NoLink, false), never a panic.
func TestLinkBetweenMatchesLinks(t *testing.T) {
	for _, cfg := range []Config{
		{Pods: 3, ToRsPerPod: 3, T1PerPod: 2, T2: 3, HostsPerToR: 2},
		{Pods: 1, ToRsPerPod: 3, T1PerPod: 2, T2: 0, HostsPerToR: 2},
	} {
		topo, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		adj := make(map[[2]Node]LinkID, len(topo.Links))
		for _, l := range topo.Links {
			adj[[2]Node{l.From, l.To}] = l.ID
		}
		nodes := []Node{
			HostNode(-1), HostNode(HostID(len(topo.Hosts))),
			SwitchNode(-1), SwitchNode(SwitchID(len(topo.Switches))),
		}
		for h := range topo.Hosts {
			nodes = append(nodes, HostNode(HostID(h)))
		}
		for s := range topo.Switches {
			nodes = append(nodes, SwitchNode(SwitchID(s)))
		}
		for _, from := range nodes {
			for _, to := range nodes {
				want, wantOK := adj[[2]Node{from, to}]
				if !wantOK {
					want = NoLink
				}
				if got, ok := topo.LinkBetween(from, to); got != want || ok != wantOK {
					t.Fatalf("%+v: LinkBetween(%v, %v) = (%d, %v), want (%d, %v)",
						cfg, from, to, got, ok, want, wantOK)
				}
			}
		}
		tor := SwitchNode(topo.ToR(0, 0))
		for _, pair := range [][2]Node{
			{HostNode(-1), tor},
			{tor, HostNode(HostID(len(topo.Hosts)))},
			{SwitchNode(SwitchID(len(topo.Switches))), SwitchNode(t1Of(topo, 0, 0))},
			{HostNode(topo.HostAt(0, 1, 0)), tor},
			{tor, HostNode(topo.HostAt(0, 1, 0))},
		} {
			if got, ok := topo.LinkBetween(pair[0], pair[1]); got != NoLink || ok {
				t.Fatalf("%+v: LinkBetween(%v, %v) = (%d, %v)", cfg, pair[0], pair[1], got, ok)
			}
		}
		if cfg.Pods > 1 {
			if got, ok := topo.LinkBetween(tor, SwitchNode(t1Of(topo, 1, 0))); got != NoLink || ok {
				t.Fatalf("%+v: ToR→T1 across pods = (%d, %v)", cfg, got, ok)
			}
		}
	}
}

// t1Of returns T1 j of pod p, which the pod's first ToR reaches by its
// uplink j.
func t1Of(topo *Topology, p, j int) SwitchID {
	return SwitchID(topo.Links[topo.Switches[topo.ToR(p, 0)].Uplinks[j]].To.ID)
}

// TestClosPortOrder makes the port order topology.Switch documents and the
// numbering New documents a checked contract: NextHopLink and LinkBetween
// name every next switch from the port order, and ecmp's PathInto lays a
// route out by the numbering without reading a table. Each switch and link
// must carry the ID its position gives, each port must leave its switch
// and reach the peer its index names, and each named switch must carry its
// own tier, pod and index.
func TestClosPortOrder(t *testing.T) {
	for _, cfg := range []Config{
		{Pods: 3, ToRsPerPod: 4, T1PerPod: 3, T2: 5, HostsPerToR: 2},
		DefaultSimConfig,
		DatacenterSimConfig.Flatten(),
	} {
		topo, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		named := func(id SwitchID, tier Tier, pod, index int) *Switch {
			sw := &topo.Switches[id]
			if sw.ID != id || sw.Tier != tier || sw.Pod != pod || sw.Index != index {
				t.Fatalf("%+v: %s is %v pod %d index %d, want %v pod %d index %d",
					cfg, sw.Name, sw.Tier, sw.Pod, sw.Index, tier, pod, index)
			}
			return sw
		}
		ports := func(sw *Switch, dir string, got []LinkID, want []Node) {
			if len(got) != len(want) {
				t.Fatalf("%+v: %s has %d %s, want %d", cfg, sw.Name, len(got), dir, len(want))
			}
			for k, id := range got {
				if l := topo.Links[id]; l.From != SwitchNode(sw.ID) || l.To != want[k] {
					t.Fatalf("%+v: %s %s[%d] is %s, want %s→%s", cfg, sw.Name, dir, k,
						topo.LinkName(id), sw.Name, topo.NodeName(want[k]))
				}
			}
		}
		pair := func(what string, up, down, want LinkID) {
			if up != want || down != want+1 {
				t.Fatalf("%+v: %s pair is links %d and %d, want %d and %d", cfg, what, up, down, want, want+1)
			}
		}
		n0, n1, n2 := cfg.ToRsPerPod, cfg.T1PerPod, cfg.T2
		nh := cfg.Hosts()
		l1 := func(p, i, j int) LinkID { return LinkID(2*nh + 2*((p*n0+i)*n1+j)) }
		l2 := func(p, j, l int) LinkID { return LinkID(2*nh + 2*cfg.Pods*n0*n1 + 2*((p*n1+j)*n2+l)) }
		t2s := make([]Node, n2)
		for l := range t2s {
			t2s[l] = SwitchNode(SwitchID(cfg.Pods*(n0+n1) + l))
		}
		t1s := make([]Node, cfg.Pods*n1) // t1s[s*n1+j] = T1(s, j)
		for p := 0; p < cfg.Pods; p++ {
			tors := make([]Node, n0)
			for i := range tors {
				tors[i] = SwitchNode(SwitchID(p*(n0+n1) + i))
			}
			for j := 0; j < n1; j++ {
				id := SwitchID(p*(n0+n1) + n0 + j)
				t1s[p*n1+j] = SwitchNode(id)
				sw := named(id, TierT1, p, j)
				ports(sw, "Uplinks", sw.Uplinks, t2s)
				ports(sw, "Downlinks", sw.Downlinks, tors)
				for l := range t2s {
					pair(sw.Name+"–T2", sw.Uplinks[l], topo.Switches[t2s[l].ID].Downlinks[p*n1+j], l2(p, j, l))
				}
			}
			for i := range tors {
				hosts := make([]Node, cfg.HostsPerToR)
				for h := range hosts {
					id := topo.HostAt(p, i, h)
					hosts[h] = HostNode(id)
					pair(topo.Hosts[id].Name, topo.Hosts[id].Uplink, topo.Hosts[id].Downlink, LinkID(2*id))
				}
				sw := named(topo.ToR(p, i), TierToR, p, i)
				if sw.ID != SwitchID(tors[i].ID) {
					t.Fatalf("%+v: %s is switch %d, want %d", cfg, sw.Name, sw.ID, tors[i].ID)
				}
				ports(sw, "Uplinks", sw.Uplinks, t1s[p*n1:(p+1)*n1])
				ports(sw, "Downlinks", sw.Downlinks, hosts)
				for j := 0; j < n1; j++ {
					pair(sw.Name+"–T1", sw.Uplinks[j], topo.Switches[t1s[p*n1+j].ID].Downlinks[i], l1(p, i, j))
				}
			}
		}
		for l := range t2s {
			sw := named(SwitchID(t2s[l].ID), TierT2, -1, l)
			ports(sw, "Uplinks", sw.Uplinks, nil)
			ports(sw, "Downlinks", sw.Downlinks, t1s)
		}
		if len(topo.Switches) != cfg.Pods*(n0+n1)+n2 || len(topo.Links) != cfg.DirectedLinks() {
			t.Fatalf("%+v: %d switches and %d links", cfg, len(topo.Switches), len(topo.Links))
		}
	}
}

func TestHostIndexing(t *testing.T) {
	cfg := Config{Pods: 2, ToRsPerPod: 3, T1PerPod: 2, T2: 2, HostsPerToR: 4}
	topo, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for p := 0; p < cfg.Pods; p++ {
		for i := 0; i < cfg.ToRsPerPod; i++ {
			for h := 0; h < cfg.HostsPerToR; h++ {
				id := topo.HostAt(p, i, h)
				host := topo.Hosts[id]
				if host.Pod != p || host.Index != h || host.ToR != topo.ToR(p, i) {
					t.Fatalf("HostAt(%d,%d,%d) = %+v", p, i, h, host)
				}
			}
		}
	}
}

func TestIPUniquenessAndLookup(t *testing.T) {
	topo, err := New(DefaultSimConfig)
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[uint32]string)
	check := func(ip uint32, name string, n Node) {
		if prev, dup := seen[ip]; dup {
			t.Fatalf("IP %s assigned to both %s and %s", FormatIP(ip), prev, name)
		}
		seen[ip] = name
		got, ok := topo.LookupIP(ip)
		if !ok || got != n {
			t.Fatalf("LookupIP(%s) = %+v, %v", FormatIP(ip), got, ok)
		}
	}
	for _, h := range topo.Hosts {
		check(h.IP, h.Name, HostNode(h.ID))
	}
	for _, s := range topo.Switches {
		check(s.IP, s.Name, SwitchNode(s.ID))
	}
	if _, ok := topo.LookupIP(0xC0A80101); ok {
		t.Fatal("LookupIP of a foreign address succeeded")
	}
}

// HostAt places hosts so that the pod and ToR relations hold: two hosts of
// one ToR share it and its pod, another ToR of the pod shares only the pod.
func TestSamePodSameToR(t *testing.T) {
	topo, err := New(Config{Pods: 2, ToRsPerPod: 2, T1PerPod: 2, T2: 2, HostsPerToR: 2})
	if err != nil {
		t.Fatal(err)
	}
	a := topo.Hosts[topo.HostAt(0, 0, 0)]
	b := topo.Hosts[topo.HostAt(0, 0, 1)]
	c := topo.Hosts[topo.HostAt(0, 1, 0)]
	d := topo.Hosts[topo.HostAt(1, 0, 0)]
	if a.ToR != b.ToR || a.Pod != c.Pod || a.ToR == c.ToR || a.Pod == d.Pod {
		t.Fatal("pod/ToR relations wrong")
	}
}

func TestNames(t *testing.T) {
	topo, err := New(TestClusterConfig)
	if err != nil {
		t.Fatal(err)
	}
	l := topo.Links[topo.Switches[topo.ToR(0, 3)].Uplinks[1]]
	if got := topo.LinkName(l.ID); got != "tor-p0-3→t1-p0-1" {
		t.Fatalf("LinkName = %q", got)
	}
	if TierToR.String() != "ToR" || TierT1.String() != "T1" || TierT2.String() != "T2" {
		t.Fatal("tier names wrong")
	}
	if L1Down.String() != "T1-ToR" || HostUp.String() != "host-ToR" {
		t.Fatal("link class names wrong")
	}
}

func TestFormatIP(t *testing.T) {
	if got := FormatIP(ipHost(1, 2, 3)); got != "10.1.2.4" {
		t.Fatalf("FormatIP = %q, want 10.1.2.4", got)
	}
}

// Property: every valid small config builds a topology whose per-node link
// lists reference links that exist and point back correctly.
func TestBuildPropertyQuick(t *testing.T) {
	f := func(p, n0, n1, n2, h uint8) bool {
		cfg := Config{
			Pods:        int(p%3) + 1,
			ToRsPerPod:  int(n0%4) + 1,
			T1PerPod:    int(n1%3) + 1,
			T2:          int(n2%3) + 1,
			HostsPerToR: int(h%3) + 1,
		}
		topo, err := New(cfg)
		if err != nil {
			return false
		}
		if len(topo.Links) != cfg.DirectedLinks() {
			return false
		}
		for _, l := range topo.Links {
			if topo.Links[l.Reverse].Reverse != l.ID {
				return false
			}
		}
		for _, host := range topo.Hosts {
			up := topo.Links[host.Uplink]
			if up.Class != HostUp || up.From != HostNode(host.ID) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// The arithmetic LookupIP inverse must agree with the address-plan map it
// replaced on the fabric's per-hop path: every assigned address resolves
// identically, and a sweep of unassigned neighbours rejects identically.
func TestLookupIPMatchesAddressPlan(t *testing.T) {
	for _, cfg := range []Config{
		TestClusterConfig,
		DefaultSimConfig,
		{Pods: 3, ToRsPerPod: 2, T1PerPod: 2, T2: 2, HostsPerToR: 3},
	} {
		topo, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		plan := map[uint32]Node{}
		for _, h := range topo.Hosts {
			plan[h.IP] = HostNode(h.ID)
		}
		for _, sw := range topo.Switches {
			plan[sw.IP] = SwitchNode(sw.ID)
		}
		check := func(ip uint32) {
			got, gok := topo.LookupIP(ip)
			want, wok := plan[ip]
			if gok != wok || got != want {
				t.Fatalf("cfg %+v ip %s: fast (%+v,%v) != map (%+v,%v)", cfg, FormatIP(ip), got, gok, want, wok)
			}
		}
		for _, h := range topo.Hosts {
			check(h.IP)
		}
		for _, sw := range topo.Switches {
			check(sw.IP)
		}
		// Probe the plan's edges and beyond: off-by-one neighbours of every
		// assigned block and foreign prefixes.
		for _, h := range topo.Hosts {
			check(h.IP + 1)
			check(h.IP - 1)
		}
		for _, probe := range []uint32{
			0, 1<<31 | 1, 11 << 24, 10<<24 | 199<<16, 10<<24 | 203<<16,
			10<<24 | 200<<16 | 255<<8 | 255, 10<<24 | 202<<16 | 0xffff,
		} {
			check(probe)
		}
	}
}
