// Package topology models the Clos datacenter topology of the 007 paper
// (Definition 1): npod pods, each with n0 top-of-rack (ToR) switches and n1
// tier-1 switches connected as a complete bipartite graph ("level 1" links),
// and n2 tier-2 switches connected to every tier-1 switch of every pod
// ("level 2" links). H hosts sit under each ToR.
//
// All links are directed: the paper's voting scheme, failure injection and
// evaluation (Figure 11) distinguish, e.g., a ToR→T1 link from its T1→ToR
// reverse. The paper's default simulator topology — 2 pods, 20 ToRs per pod,
// 10 T1s per pod, 20 T2s and 32 hosts per ToR — yields the 4160 directed
// links quoted in §6.
package topology

import (
	"fmt"
)

// Tier identifies a switch layer.
type Tier uint8

// Switch tiers, bottom-up.
const (
	TierToR Tier = iota
	TierT1
	TierT2
)

// String returns the conventional name for the tier.
func (t Tier) String() string {
	switch t {
	case TierToR:
		return "ToR"
	case TierT1:
		return "T1"
	case TierT2:
		return "T2"
	}
	return fmt.Sprintf("Tier(%d)", uint8(t))
}

// SwitchID indexes Topology.Switches.
type SwitchID int32

// HostID indexes Topology.Hosts.
type HostID int32

// LinkID indexes Topology.Links.
type LinkID int32

// NoLink marks an absent link.
const NoLink LinkID = -1

// NodeKind distinguishes link endpoints.
type NodeKind uint8

// Link endpoint kinds.
const (
	NodeHost NodeKind = iota
	NodeSwitch
)

// Node is a link endpoint: either a host or a switch.
type Node struct {
	Kind NodeKind
	ID   int32 // HostID or SwitchID, per Kind
}

// HostNode returns the Node for host h.
func HostNode(h HostID) Node { return Node{Kind: NodeHost, ID: int32(h)} }

// SwitchNode returns the Node for switch s.
func SwitchNode(s SwitchID) Node { return Node{Kind: NodeSwitch, ID: int32(s)} }

// LinkClass identifies a directed link's position in the Clos fabric.
type LinkClass uint8

// Directed link classes: "Up" points away from hosts, "Down" toward them.
const (
	HostUp   LinkClass = iota // host → ToR
	HostDown                  // ToR → host
	L1Up                      // ToR → T1 (the paper's "level 1", upward)
	L1Down                    // T1 → ToR
	L2Up                      // T1 → T2 (the paper's "level 2", upward)
	L2Down                    // T2 → T1
)

// String names the link class the way the paper's Figure 11 does.
func (c LinkClass) String() string {
	switch c {
	case HostUp:
		return "host-ToR"
	case HostDown:
		return "ToR-host"
	case L1Up:
		return "ToR-T1"
	case L1Down:
		return "T1-ToR"
	case L2Up:
		return "T1-T2"
	case L2Down:
		return "T2-T1"
	}
	return fmt.Sprintf("LinkClass(%d)", uint8(c))
}

// Switch is one network switch.
type Switch struct {
	ID    SwitchID
	Tier  Tier
	Pod   int // -1 for tier-2 switches, which belong to no pod
	Index int // index within the pod (ToR, T1) or globally (T2)
	Name  string
	IP    uint32 // loopback address; the source of ICMP TTL-exceeded replies

	// Uplinks lists links toward higher tiers, ordered by peer index:
	// ToR.Uplinks[j] reaches the pod's j-th T1; T1.Uplinks[l] reaches T2 l.
	// T2 switches have none.
	Uplinks []LinkID
	// Downlinks lists links toward lower tiers, ordered by peer index:
	// ToR.Downlinks[h] reaches host h under it; T1.Downlinks[i] reaches the
	// pod's i-th ToR; T2.Downlinks[s*T1PerPod+j] reaches T1 j of pod s.
	Downlinks []LinkID
}

// Host is one end host (a hypervisor in the paper's setting).
type Host struct {
	ID       HostID
	ToR      SwitchID
	Pod      int
	Index    int // index under the ToR
	Name     string
	IP       uint32
	Uplink   LinkID // host → ToR
	Downlink LinkID // ToR → host
}

// Link is one directed link.
type Link struct {
	ID       LinkID
	Class    LinkClass
	From, To Node
	Reverse  LinkID // the opposite direction of the same physical link
}

// Config sizes a Clos topology using the paper's notation.
type Config struct {
	Pods        int // npod
	ToRsPerPod  int // n0
	T1PerPod    int // n1
	T2          int // n2 (global)
	HostsPerToR int // H
}

// DefaultSimConfig is the topology of the paper's §6 simulations: "4160
// links, 2 pods, and 20 ToRs per pod". The paper does not spell out n1, n2
// and H; this decomposition reproduces the 4160 directed links while
// satisfying Theorem 3's structural conditions (n0 ≥ 2·n2,
// npod ≥ 1 + n0/n1) with the detectable-failure cap k < 15.6 covering the
// paper's 2-14 failure sweeps.
var DefaultSimConfig = Config{Pods: 2, ToRsPerPod: 20, T1PerPod: 20, T2: 8, HostsPerToR: 24}

// TestClusterConfig matches the §7 test cluster: one pod, 10 ToRs, 80
// physical links (here 160 directed), with 40 controllable hosts.
var TestClusterConfig = Config{Pods: 1, ToRsPerPod: 10, T1PerPod: 4, T2: 0, HostsPerToR: 4}

// Validate reports whether the configuration describes a buildable Clos.
func (c Config) Validate() error {
	switch {
	case c.Pods < 1:
		return fmt.Errorf("topology: need at least 1 pod, have %d", c.Pods)
	case c.Pods > 199:
		return fmt.Errorf("topology: at most 199 pods supported by the address plan, have %d", c.Pods)
	case c.ToRsPerPod < 1 || c.ToRsPerPod > 255:
		return fmt.Errorf("topology: ToRsPerPod %d out of range [1,255]", c.ToRsPerPod)
	case c.T1PerPod < 1 || c.T1PerPod > 255:
		return fmt.Errorf("topology: T1PerPod %d out of range [1,255]", c.T1PerPod)
	case c.T2 < 0 || c.T2 > 255:
		return fmt.Errorf("topology: T2 %d out of range [0,255]", c.T2)
	case c.Pods > 1 && c.T2 == 0:
		return fmt.Errorf("topology: %d pods need tier-2 switches", c.Pods)
	case c.HostsPerToR < 1 || c.HostsPerToR > 254:
		return fmt.Errorf("topology: HostsPerToR %d out of range [1,254]", c.HostsPerToR)
	}
	return nil
}

// DirectedLinks returns the closed-form number of directed links.
func (c Config) DirectedLinks() int {
	hosts := c.Pods * c.ToRsPerPod * c.HostsPerToR
	level1 := c.Pods * c.ToRsPerPod * c.T1PerPod
	level2 := c.Pods * c.T1PerPod * c.T2
	return 2 * (hosts + level1 + level2)
}

// Hosts returns the total host count.
func (c Config) Hosts() int { return c.Pods * c.ToRsPerPod * c.HostsPerToR }

// Topology is an immutable, fully built Clos network.
type Topology struct {
	Cfg      Config
	Switches []Switch
	Hosts    []Host
	Links    []Link

	tors [][]SwitchID // [pod][i]
	t1s  [][]SwitchID // [pod][j]
	t2s  []SwitchID   // [l]

	byClass [6][]LinkID
}

// New builds the topology for cfg. Its numbering is a contract, which
// ecmp.Router lays routes out by: switches are numbered pod by pod, each
// pod's ToRs then its T1s, and the T2s last; links come in pairs, the
// uplink then its reverse, with host h's pair at 2h, then each ToR's pairs
// with its pod's T1s (pod, ToR, T1 order), then each T1's pairs with the
// T2s (pod, T1, T2 order).
func New(cfg Config) (*Topology, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	t := &Topology{
		Cfg:      cfg,
		Switches: make([]Switch, 0, cfg.Pods*(cfg.ToRsPerPod+cfg.T1PerPod)+cfg.T2),
		Hosts:    make([]Host, 0, cfg.Hosts()),
		Links:    make([]Link, 0, cfg.DirectedLinks()),
		tors:     make([][]SwitchID, cfg.Pods),
		t1s:      make([][]SwitchID, cfg.Pods),
	}

	addSwitch := func(tier Tier, pod, index int, name string, ip uint32) SwitchID {
		id := SwitchID(len(t.Switches))
		t.Switches = append(t.Switches, Switch{
			ID: id, Tier: tier, Pod: pod, Index: index, Name: name, IP: ip,
		})
		return id
	}
	for p := 0; p < cfg.Pods; p++ {
		t.tors[p] = make([]SwitchID, cfg.ToRsPerPod)
		for i := 0; i < cfg.ToRsPerPod; i++ {
			t.tors[p][i] = addSwitch(TierToR, p, i,
				fmt.Sprintf("tor-p%d-%d", p, i), ipToR(p, i))
		}
		t.t1s[p] = make([]SwitchID, cfg.T1PerPod)
		for j := 0; j < cfg.T1PerPod; j++ {
			t.t1s[p][j] = addSwitch(TierT1, p, j,
				fmt.Sprintf("t1-p%d-%d", p, j), ipT1(p, j))
		}
	}
	t.t2s = make([]SwitchID, cfg.T2)
	for l := 0; l < cfg.T2; l++ {
		t.t2s[l] = addSwitch(TierT2, -1, l, fmt.Sprintf("t2-%d", l), ipT2(l))
	}

	addPair := func(up, down LinkClass, lo, hi Node) (LinkID, LinkID) {
		u := LinkID(len(t.Links))
		d := u + 1
		t.Links = append(t.Links,
			Link{ID: u, Class: up, From: lo, To: hi, Reverse: d},
			Link{ID: d, Class: down, From: hi, To: lo, Reverse: u},
		)
		t.byClass[up] = append(t.byClass[up], u)
		t.byClass[down] = append(t.byClass[down], d)
		return u, d
	}

	// Hosts and host links.
	for p := 0; p < cfg.Pods; p++ {
		for i := 0; i < cfg.ToRsPerPod; i++ {
			tor := t.tors[p][i]
			t.Switches[tor].Downlinks = make([]LinkID, cfg.HostsPerToR)
			for h := 0; h < cfg.HostsPerToR; h++ {
				id := HostID(len(t.Hosts))
				ip := ipHost(p, i, h)
				up, down := addPair(HostUp, HostDown, HostNode(id), SwitchNode(tor))
				t.Hosts = append(t.Hosts, Host{
					ID: id, ToR: tor, Pod: p, Index: h,
					Name: fmt.Sprintf("host-p%d-t%d-%d", p, i, h),
					IP:   ip, Uplink: up, Downlink: down,
				})
				t.Switches[tor].Downlinks[h] = down
			}
		}
	}
	// Level 1: complete bipartite ToR×T1 within each pod.
	for p := 0; p < cfg.Pods; p++ {
		for i := 0; i < cfg.ToRsPerPod; i++ {
			t.Switches[t.tors[p][i]].Uplinks = make([]LinkID, cfg.T1PerPod)
		}
		for j := 0; j < cfg.T1PerPod; j++ {
			t.Switches[t.t1s[p][j]].Downlinks = make([]LinkID, cfg.ToRsPerPod)
		}
		for i := 0; i < cfg.ToRsPerPod; i++ {
			for j := 0; j < cfg.T1PerPod; j++ {
				up, down := addPair(L1Up, L1Down,
					SwitchNode(t.tors[p][i]), SwitchNode(t.t1s[p][j]))
				t.Switches[t.tors[p][i]].Uplinks[j] = up
				t.Switches[t.t1s[p][j]].Downlinks[i] = down
			}
		}
	}
	// Level 2: every T1 of every pod connects to every T2.
	if cfg.T2 > 0 {
		for l := 0; l < cfg.T2; l++ {
			t.Switches[t.t2s[l]].Downlinks = make([]LinkID, cfg.Pods*cfg.T1PerPod)
		}
		for p := 0; p < cfg.Pods; p++ {
			for j := 0; j < cfg.T1PerPod; j++ {
				t.Switches[t.t1s[p][j]].Uplinks = make([]LinkID, cfg.T2)
				for l := 0; l < cfg.T2; l++ {
					up, down := addPair(L2Up, L2Down,
						SwitchNode(t.t1s[p][j]), SwitchNode(t.t2s[l]))
					t.Switches[t.t1s[p][j]].Uplinks[l] = up
					t.Switches[t.t2s[l]].Downlinks[p*cfg.T1PerPod+j] = down
				}
			}
		}
	}
	return t, nil
}

// Address plan: hosts at 10.pod.tor.(h+1); ToRs at 10.200+pod/? — switch
// loopbacks live in 10.200-10.202 to stay clear of host space (pods < 200).
func ipHost(pod, tor, h int) uint32 {
	return 10<<24 | uint32(pod)<<16 | uint32(tor)<<8 | uint32(h+1)
}
func ipToR(pod, i int) uint32 { return 10<<24 | 200<<16 | uint32(pod)<<8 | uint32(i) }
func ipT1(pod, j int) uint32  { return 10<<24 | 201<<16 | uint32(pod)<<8 | uint32(j) }
func ipT2(l int) uint32       { return 10<<24 | 202<<16 | uint32(l) }

// FormatIP renders a uint32 IPv4 address in dotted-quad form.
func FormatIP(ip uint32) string {
	return fmt.Sprintf("%d.%d.%d.%d", byte(ip>>24), byte(ip>>16), byte(ip>>8), byte(ip))
}

// ToR returns the i-th ToR switch of pod p.
func (t *Topology) ToR(p, i int) SwitchID { return t.tors[p][i] }

// HostAt returns the h-th host under the i-th ToR of pod p.
func (t *Topology) HostAt(p, i, h int) HostID {
	return HostID((p*t.Cfg.ToRsPerPod+i)*t.Cfg.HostsPerToR + h)
}

// LinksOfClass returns all links of the given class, in construction order.
func (t *Topology) LinksOfClass(c LinkClass) []LinkID { return t.byClass[c] }

// LookupIP resolves an address from the topology's address plan. The plan
// is arithmetic (hosts at 10.pod.tor.(h+1), switch loopbacks in
// 10.200-10.202), so the inverse is computed directly — this sits on the
// packet fabric's per-hop path, where a map lookup per forwarded packet
// is measurable.
func (t *Topology) LookupIP(ip uint32) (Node, bool) {
	if ip>>24 != 10 {
		return Node{}, false
	}
	b2 := int(ip>>16) & 0xff
	b1 := int(ip>>8) & 0xff
	b0 := int(ip) & 0xff
	switch {
	case b2 < t.Cfg.Pods:
		// Host 10.pod.tor.(h+1).
		if b1 >= t.Cfg.ToRsPerPod || b0 < 1 || b0 > t.Cfg.HostsPerToR {
			return Node{}, false
		}
		return HostNode(HostID((b2*t.Cfg.ToRsPerPod+b1)*t.Cfg.HostsPerToR + b0 - 1)), true
	case b2 == 200:
		if b1 >= t.Cfg.Pods || b0 >= t.Cfg.ToRsPerPod {
			return Node{}, false
		}
		return SwitchNode(t.tors[b1][b0]), true
	case b2 == 201:
		if b1 >= t.Cfg.Pods || b0 >= t.Cfg.T1PerPod {
			return Node{}, false
		}
		return SwitchNode(t.t1s[b1][b0]), true
	case b2 == 202:
		if l := int(ip & 0xffff); l < len(t.t2s) {
			return SwitchNode(t.t2s[l]), true
		}
	}
	return Node{}, false
}

// NodeName returns the human-readable name of a node.
func (t *Topology) NodeName(n Node) string {
	if n.Kind == NodeHost {
		return t.Hosts[n.ID].Name
	}
	return t.Switches[n.ID].Name
}

// LinkName renders a link as "from→to".
func (t *Topology) LinkName(id LinkID) string {
	l := t.Links[id]
	return t.NodeName(l.From) + "→" + t.NodeName(l.To)
}

// CheckLink validates a link identifier against the topology — the one
// bounds check both planes' validated injection paths share.
func (t *Topology) CheckLink(id LinkID) error {
	if id < 0 || int(id) >= len(t.Links) {
		return fmt.Errorf("topology: link %d not in topology (%d links)", id, len(t.Links))
	}
	return nil
}

// LinkBetween returns the directed link from one node to another, if the
// two are adjacent. Path discovery uses it to turn a traceroute's switch
// sequence back into link IDs (router aliasing is a non-problem in a
// datacenter whose topology and addressing are known, §4.2). Adjacency is
// arithmetic on the Clos port order (TestClosPortOrder): a host reaches
// only its ToR, and a switch reaches the tier above through Uplinks and the
// tier below through Downlinks, both indexed by the peer's position.
func (t *Topology) LinkBetween(from, to Node) (LinkID, bool) {
	switch {
	case from.Kind == NodeHost && to.Kind == NodeSwitch && t.hasHost(from.ID):
		if h := &t.Hosts[from.ID]; int32(h.ToR) == to.ID {
			return h.Uplink, true
		}
	case from.Kind == NodeSwitch && to.Kind == NodeHost && t.hasHost(to.ID):
		if h := &t.Hosts[to.ID]; int32(h.ToR) == from.ID {
			return h.Downlink, true
		}
	case from.Kind == NodeSwitch && to.Kind == NodeSwitch && t.hasSwitch(from.ID) && t.hasSwitch(to.ID):
		a, b := &t.Switches[from.ID], &t.Switches[to.ID]
		switch {
		case b.Tier == a.Tier+1 && (b.Tier == TierT2 || a.Pod == b.Pod):
			return a.Uplinks[b.Index], true
		case a.Tier == TierT2 && b.Tier == TierT1:
			return a.Downlinks[b.Pod*t.Cfg.T1PerPod+b.Index], true
		case a.Tier == TierT1 && b.Tier == TierToR && a.Pod == b.Pod:
			return a.Downlinks[b.Index], true
		}
	}
	return NoLink, false
}

func (t *Topology) hasHost(id int32) bool   { return id >= 0 && int(id) < len(t.Hosts) }
func (t *Topology) hasSwitch(id int32) bool { return id >= 0 && int(id) < len(t.Switches) }
