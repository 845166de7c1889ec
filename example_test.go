package vigil_test

import (
	"fmt"
	"strings"

	"vigil"
	"vigil/internal/ecmp"
	"vigil/internal/everflow"
	"vigil/internal/stats"
	"vigil/internal/traffic"
)

// Build the paper's simulated datacenter, break one link, run one
// 30-second epoch, and let 007 find the culprit.
func ExampleSimulation() {
	sim, err := vigil.NewSimulation(vigil.SimConfig{Seed: 42})
	if err != nil {
		panic(err)
	}
	topo := sim.Topology()

	// Break one ToR→T1 link: it silently drops 0.5% of packets —
	// invisible to SNMP counters, very visible to the VMs behind it.
	bad := topo.LinksOfClass(vigil.L1Up)[17]
	sim.InjectFailure(bad, 0.005)
	fmt.Printf("injected: 0.5%% loss on %s\n\n", vigil.LinkName(topo, bad))

	rep := sim.RunEpoch()
	fmt.Printf("epoch: %d flows, %d with drops, %d packets lost\n\n",
		rep.TotalFlows, rep.FailedFlows, rep.TotalDrops)

	fmt.Println("007's vote ranking (top 5):")
	for _, lv := range rep.Ranking[:5] {
		tag := ""
		if lv.Link == bad {
			tag = "  <-- the broken link"
		}
		fmt.Printf("  %6.2f  %s%s\n", lv.Votes, vigil.LinkName(topo, lv.Link), tag)
	}

	fmt.Println("\nAlgorithm 1 detections:")
	for _, l := range rep.Detected {
		fmt.Printf("  %s\n", vigil.LinkName(topo, l))
	}
	fmt.Printf("\nper-flow blame accuracy: %.1f%% over %d affected flows\n",
		rep.Accuracy*100, rep.FlowsScored)
	fmt.Printf("detection precision %.2f, recall %.2f\n",
		rep.Detection.Precision, rep.Detection.Recall)
	// Output:
	// injected: 0.5% loss on tor-p0-0→t1-p0-17
	//
	// epoch: 57600 flows, 55 with drops, 70 packets lost
	//
	// 007's vote ranking (top 5):
	//     7.17  tor-p0-0→t1-p0-17  <-- the broken link
	//     0.92  host-p0-t0-16→tor-p0-0
	//     0.75  host-p0-t0-2→tor-p0-0
	//     0.75  host-p0-t0-12→tor-p0-0
	//     0.75  t1-p0-17→tor-p0-2
	//
	// Algorithm 1 detections:
	//   tor-p0-0→t1-p0-17
	//
	// per-flow blame accuracy: 100.0% over 35 affected flows
	// detection precision 1.00, recall 1.00
}

// A link that keeps going bad and recovering — the classic gray-failure
// pager mystery. Run the built-in link-flap scenario, then script a custom
// flap + intermittent combination through the public scheduling API, and
// watch 007 track the failure set epoch by epoch.
func ExampleSimulation_ScheduleFailure() {
	// Part 1: the named scenario. Two links flap with staggered duty
	// cycles; every epoch is scored against that epoch's ground truth.
	res, err := vigil.RunScenario("link-flap", vigil.ScenarioConfig{Seed: 1})
	if err != nil {
		panic(err)
	}
	fmt.Println("link-flap scenario:")
	for _, es := range res.Epochs {
		fmt.Printf("  epoch %2d  active %-2s detected %d (tp %d fp %d fn %d)\n",
			es.Epoch, strings.Repeat("#", len(es.ActiveLinks)), len(es.Detected),
			es.Detection.TruePos, es.Detection.FalsePos, es.Detection.FalseNeg)
	}
	fmt.Printf("pooled: precision %.3f, recall %.3f, accuracy %.3f\n\n",
		res.Precision, res.Recall, res.Accuracy)

	// Part 2: the same machinery on a custom simulation. A ToR uplink
	// flaps every third epoch; a T2 downlink drops intermittently.
	sim, err := vigil.NewSimulation(vigil.SimConfig{
		Topology: vigil.TopologyConfig{Pods: 2, ToRsPerPod: 8, T1PerPod: 8, T2: 4, HostsPerToR: 8},
		Seed:     11,
	})
	if err != nil {
		panic(err)
	}
	topo := sim.Topology()
	flappy := topo.LinksOfClass(vigil.L1Up)[9]
	flaky := topo.LinksOfClass(vigil.L2Down)[3]
	if err := sim.ScheduleFailure(flappy, vigil.Flap{Rate: 0.008, Period: 3, On: 1}); err != nil {
		panic(err)
	}
	if err := sim.ScheduleFailure(flaky, vigil.Intermittent{Rate: 0.004, Prob: 0.4, Seed: 99}); err != nil {
		panic(err)
	}
	fmt.Printf("custom schedules: %s flaps 1-in-3, %s drops in ~40%% of epochs\n",
		vigil.LinkName(topo, flappy), vigil.LinkName(topo, flaky))
	for e := 0; e < 9; e++ {
		rep := sim.RunEpoch()
		fmt.Printf("  epoch %d: %d active, detected %d, recall %.1f, drops %d\n",
			e, len(rep.FailedLinks), len(rep.Detected), rep.Detection.Recall, rep.TotalDrops)
	}
	// Output:
	// link-flap scenario:
	//   epoch  0  active ## detected 2 (tp 2 fp 0 fn 0)
	//   epoch  1  active ## detected 2 (tp 2 fp 0 fn 0)
	//   epoch  2  active    detected 2 (tp 0 fp 2 fn 0)
	//   epoch  3  active    detected 0 (tp 0 fp 0 fn 0)
	//   epoch  4  active #  detected 1 (tp 1 fp 0 fn 0)
	//   epoch  5  active ## detected 2 (tp 2 fp 0 fn 0)
	//   epoch  6  active #  detected 1 (tp 1 fp 0 fn 0)
	//   epoch  7  active #  detected 1 (tp 1 fp 0 fn 0)
	//   epoch  8  active #  detected 1 (tp 1 fp 0 fn 0)
	//   epoch  9  active #  detected 1 (tp 1 fp 0 fn 0)
	//   epoch 10  active    detected 1 (tp 0 fp 1 fn 0)
	//   epoch 11  active #  detected 1 (tp 1 fp 0 fn 0)
	//   epoch 12  active ## detected 2 (tp 2 fp 0 fn 0)
	//   epoch 13  active ## detected 2 (tp 2 fp 0 fn 0)
	//   epoch 14  active    detected 2 (tp 0 fp 2 fn 0)
	//   epoch 15  active    detected 2 (tp 0 fp 2 fn 0)
	// pooled: precision 1.000, recall 1.000, accuracy 0.996
	//
	// custom schedules: tor-p0-1→t1-p0-1 flaps 1-in-3, t2-3→t1-p0-0 drops in ~40% of epochs
	//   epoch 0: 2 active, detected 2, recall 1.0, drops 78
	//   epoch 1: 1 active, detected 2, recall 1.0, drops 18
	//   epoch 2: 0 active, detected 1, recall 1.0, drops 1
	//   epoch 3: 1 active, detected 1, recall 1.0, drops 36
	//   epoch 4: 0 active, detected 3, recall 1.0, drops 4
	//   epoch 5: 1 active, detected 1, recall 1.0, drops 33
	//   epoch 6: 1 active, detected 1, recall 1.0, drops 55
	//   epoch 7: 0 active, detected 1, recall 1.0, drops 1
	//   epoch 8: 1 active, detected 3, recall 1.0, drops 21
}

// The paper's motivating scenario (§1, Appendix A): VM images are mounted
// from a VIP-fronted storage service, so even a briefly lossy link makes
// VMs "panic" and reboot — and 17% of reboots used to go unexplained. Here
// every storage connection that gives up is a reboot event, and 007 names
// the link that caused each one.
func ExampleRegisterVIP() {
	topo, err := vigil.NewTopology(vigil.TestClusterTopology)
	if err != nil {
		panic(err)
	}
	em, err := vigil.NewEmulation(vigil.EmulationConfig{Topo: topo, Seed: 7})
	if err != nil {
		panic(err)
	}

	// One storage service behind a VIP, four backends across two racks.
	vip := vigil.ServiceVIP(1)
	backends := []vigil.HostID{
		topo.HostAt(0, 8, 0), topo.HostAt(0, 8, 1),
		topo.HostAt(0, 9, 0), topo.HostAt(0, 9, 1),
	}
	if err := vigil.RegisterVIP(em, vip, backends); err != nil {
		panic(err)
	}

	// The gremlin: a backend's ToR→host link drops most packets — the
	// §8.3 finding that host-ToR links explain the majority of reboots.
	bad := topo.Hosts[backends[0]].Downlink
	if err := em.InjectFailure(bad, 0.7); err != nil {
		panic(err)
	}
	fmt.Printf("storage service at VIP with %d backends\n", len(backends))
	fmt.Printf("injected: 70%% loss on %s\n\n", vigil.LinkName(topo, bad))

	// Every host keeps mounting VM images over the VIP.
	rng := stats.NewRNG(9)
	for i := 0; i < 120; i++ {
		src := vigil.HostID(rng.Intn(len(topo.Hosts)))
		at := vigil.Duration(rng.Intn(int(20 * vigil.Second)))
		if err := em.StartVIPFlow(src, vip, 443, 80, at); err != nil {
			panic(err)
		}
	}
	res := em.RunEpoch()

	byFlow := make(map[int64]vigil.Verdict)
	for _, v := range res.Verdicts {
		byFlow[v.FlowID] = v
	}
	reboots, explained := 0, 0
	fmt.Println("VM reboot events and 007's verdicts:")
	for _, c := range em.Flows() {
		if !c.Failed {
			continue
		}
		reboots++
		src, _ := topo.LookupIP(c.WireTuple.SrcIP)
		host := topo.Hosts[src.ID].Name
		if v, ok := byFlow[c.ID]; ok && v.Link >= 0 {
			explained++
			fmt.Printf("  VM on %-18s rebooted — cause: %s\n", host, vigil.LinkName(topo, v.Link))
		} else {
			fmt.Printf("  VM on %-18s rebooted — unexplained\n", host)
		}
	}
	fmt.Printf("\n%d reboots, %d explained by 007 (the paper's tooling explained <30%%)\n",
		reboots, explained)
	fmt.Printf("top suspect overall: %s (%.1f votes)\n",
		vigil.LinkName(topo, res.Ranking[0].Link), res.Ranking[0].Votes)
	// Output:
	// storage service at VIP with 4 backends
	// injected: 70% loss on tor-p0-8→host-p0-t8-0
	//
	// VM reboot events and 007's verdicts:
	//   VM on host-p0-t0-0       rebooted — cause: tor-p0-8→host-p0-t8-0
	//   VM on host-p0-t1-2       rebooted — cause: tor-p0-8→host-p0-t8-0
	//   VM on host-p0-t8-3       rebooted — cause: tor-p0-8→host-p0-t8-0
	//   VM on host-p0-t2-1       rebooted — cause: tor-p0-8→host-p0-t8-0
	//   VM on host-p0-t0-0       rebooted — cause: tor-p0-8→host-p0-t8-0
	//   VM on host-p0-t2-0       rebooted — cause: tor-p0-8→host-p0-t8-0
	//   VM on host-p0-t5-0       rebooted — cause: tor-p0-8→host-p0-t8-0
	//   VM on host-p0-t3-0       rebooted — cause: tor-p0-8→host-p0-t8-0
	//   VM on host-p0-t4-2       rebooted — cause: tor-p0-8→host-p0-t8-0
	//   VM on host-p0-t7-3       rebooted — cause: tor-p0-8→host-p0-t8-0
	//   VM on host-p0-t1-0       rebooted — cause: tor-p0-8→host-p0-t8-0
	//   VM on host-p0-t9-1       rebooted — cause: tor-p0-8→host-p0-t8-0
	//   VM on host-p0-t0-1       rebooted — cause: tor-p0-8→host-p0-t8-0
	//   VM on host-p0-t4-2       rebooted — cause: tor-p0-8→host-p0-t8-0
	//   VM on host-p0-t6-2       rebooted — cause: tor-p0-8→host-p0-t8-0
	//   VM on host-p0-t0-0       rebooted — cause: tor-p0-8→host-p0-t8-0
	//   VM on host-p0-t3-3       rebooted — cause: tor-p0-8→host-p0-t8-0
	//   VM on host-p0-t8-0       rebooted — cause: tor-p0-8→host-p0-t8-0
	//   VM on host-p0-t1-1       rebooted — cause: tor-p0-8→host-p0-t8-0
	//   VM on host-p0-t0-1       rebooted — cause: tor-p0-8→host-p0-t8-0
	//   VM on host-p0-t0-2       rebooted — cause: tor-p0-8→host-p0-t8-0
	//   VM on host-p0-t7-3       rebooted — cause: tor-p0-8→host-p0-t8-0
	//   VM on host-p0-t2-1       rebooted — cause: tor-p0-8→host-p0-t8-0
	//   VM on host-p0-t2-2       rebooted — cause: tor-p0-8→host-p0-t8-0
	//   VM on host-p0-t5-3       rebooted — cause: tor-p0-8→host-p0-t8-0
	//   VM on host-p0-t1-0       rebooted — cause: tor-p0-8→host-p0-t8-0
	//   VM on host-p0-t0-3       rebooted — cause: tor-p0-8→host-p0-t8-0
	//   VM on host-p0-t5-2       rebooted — cause: tor-p0-8→host-p0-t8-0
	//   VM on host-p0-t3-3       rebooted — cause: tor-p0-8→host-p0-t8-0
	//   VM on host-p0-t8-0       rebooted — cause: tor-p0-8→host-p0-t8-0
	//   VM on host-p0-t4-0       rebooted — cause: tor-p0-8→host-p0-t8-0
	//   VM on host-p0-t1-3       rebooted — cause: tor-p0-8→host-p0-t8-0
	//   VM on host-p0-t1-3       rebooted — cause: tor-p0-8→host-p0-t8-0
	//   VM on host-p0-t0-1       rebooted — cause: tor-p0-8→host-p0-t8-0
	//   VM on host-p0-t0-3       rebooted — cause: tor-p0-8→host-p0-t8-0
	//   VM on host-p0-t4-3       rebooted — cause: tor-p0-8→host-p0-t8-0
	//   VM on host-p0-t3-3       rebooted — cause: tor-p0-8→host-p0-t8-0
	//   VM on host-p0-t4-0       rebooted — cause: tor-p0-8→host-p0-t8-0
	//   VM on host-p0-t8-2       rebooted — cause: tor-p0-8→host-p0-t8-0
	//
	// 39 reboots, 39 explained by 007 (the paper's tooling explained <30%)
	// top suspect overall: tor-p0-8→host-p0-t8-0 (10.8 votes)
}

// 007's path discovery against the emulated packet fabric: open one lossy
// connection, let the monitoring agent catch the retransmission, and
// compare the traceroute the path discovery agent assembled with the path
// the data packets actually took, as EverFlow's mirrors saw it.
func ExampleEmulation_traceroute() {
	const seed, rate = 1, 0.05
	topo, err := vigil.NewTopology(vigil.TestClusterTopology)
	if err != nil {
		panic(err)
	}
	em, err := vigil.NewEmulation(vigil.EmulationConfig{Topo: topo, Seed: seed})
	if err != nil {
		panic(err)
	}
	ef := everflow.New(topo, nil)
	em.Net.AddTap(ef.Tap())

	rng := stats.NewRNG(seed + 1)
	src, dst := topo.HostAt(0, 0, 0), topo.HostAt(0, 7, 2)
	tuple := vigil.FiveTuple{
		SrcIP: topo.Hosts[src].IP, DstIP: topo.Hosts[dst].IP,
		SrcPort: uint16(rng.IntRange(32768, 65535)), DstPort: 443, Proto: 6,
	}
	var path ecmp.PathBuf
	if err := em.Router.PathInto(src, dst, tuple, &path); err != nil {
		panic(err)
	}
	bad := path.Links()[2] // the flow's T1→ToR link
	if err := em.InjectFailure(bad, rate); err != nil {
		panic(err)
	}
	fmt.Printf("flow %v\ninjected %.1f%% loss on %s\n\n", tuple, rate*100, topo.LinkName(bad))

	em.StartFlow(traffic.Flow{Src: src, Dst: dst, Tuple: tuple, Packets: 120}, 0)
	r := em.Step(nil).Reports[0]
	fmt.Printf("007 traceroute (partial=%v, %d retransmissions):\n", r.Partial, r.Retx)
	for i, l := range r.Path {
		fmt.Printf("  hop %d: %s\n", i, topo.LinkName(l))
	}
	fmt.Println("\ndata path per EverFlow mirrors:")
	want, _ := ef.PathOf(tuple)
	match := len(want) == len(r.Path)
	for i, l := range want {
		fmt.Printf("  hop %d: %s\n", i, topo.LinkName(l))
		match = match && r.Path[i] == l
	}
	fmt.Printf("\ntraceroute matches data path: %v\n", match)
	var traces, limited int64
	for _, h := range em.Hosts {
		traces += h.Agent.Traces
		limited += h.Agent.RateLimited
	}
	fmt.Printf("traceroutes sent: %d (rate-limited: %d); switch ICMP budget Tmax=100/s, host budget Ct=%.2f/s\n",
		traces, limited, vigil.TracerouteBudget(topo.Cfg, 100))
	// Output:
	// flow 10.0.0.1:53335>10.0.7.3:443/6
	// injected 5.0% loss on t1-p0-3→tor-p0-7
	//
	// 007 traceroute (partial=false, 2 retransmissions):
	//   hop 0: host-p0-t0-0→tor-p0-0
	//   hop 1: tor-p0-0→t1-p0-3
	//   hop 2: t1-p0-3→tor-p0-7
	//   hop 3: tor-p0-7→host-p0-t7-2
	//
	// data path per EverFlow mirrors:
	//   hop 0: host-p0-t0-0→tor-p0-0
	//   hop 1: tor-p0-0→t1-p0-3
	//   hop 2: t1-p0-3→tor-p0-7
	//   hop 3: tor-p0-7→host-p0-t7-2
	//
	// traceroute matches data path: true
	// traceroutes sent: 1 (rate-limited: 0); switch ICMP budget Tmax=100/s, host budget Ct=10.00/s
}
