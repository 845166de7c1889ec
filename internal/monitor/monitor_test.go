package monitor

import (
	"testing"

	"vigil/internal/ecmp"
	"vigil/internal/etw"
)

func flow(port uint16) ecmp.FiveTuple {
	return ecmp.FiveTuple{SrcIP: 1, DstIP: 2, SrcPort: port, DstPort: 443, Proto: ecmp.ProtoTCP}
}

func TestTriggerOncePerFlowPerEpoch(t *testing.T) {
	var triggered []ecmp.FiveTuple
	a := New(func(f ecmp.FiveTuple) { triggered = append(triggered, f) })
	f1 := flow(1000)
	for i := 0; i < 5; i++ {
		a.OnEvent(etw.Event{Kind: etw.Retransmit, Flow: f1})
	}
	if len(triggered) != 1 {
		t.Fatalf("triggered %d times for one flow in one epoch", len(triggered))
	}
	if a.Retx(f1) != 5 {
		t.Fatalf("retx count = %d, want 5", a.Retx(f1))
	}
	// A second flow triggers independently.
	a.OnEvent(etw.Event{Kind: etw.Retransmit, Flow: flow(1001)})
	if len(triggered) != 2 {
		t.Fatalf("second flow did not trigger")
	}
	if len(a.retx) != 2 {
		t.Fatalf("%d flows with retransmissions, want 2", len(a.retx))
	}
}

func TestNewEpochReopensTrigger(t *testing.T) {
	n := 0
	a := New(func(ecmp.FiveTuple) { n++ })
	f := flow(2000)
	a.OnEvent(etw.Event{Kind: etw.Retransmit, Flow: f})
	a.NewEpoch()
	if a.Retx(f) != 0 {
		t.Fatal("retx count survived the epoch roll")
	}
	a.OnEvent(etw.Event{Kind: etw.Retransmit, Flow: f})
	if n != 2 {
		t.Fatalf("triggered %d times across two epochs, want 2", n)
	}
}

func TestIgnoresNonRetransmitEvents(t *testing.T) {
	n := 0
	a := New(func(ecmp.FiveTuple) { n++ })
	a.OnEvent(etw.Event{Kind: etw.ConnEstablished, Flow: flow(1)})
	a.OnEvent(etw.Event{Kind: etw.RTTSample, Flow: flow(1)})
	a.OnEvent(etw.Event{Kind: etw.ConnClosed, Flow: flow(1)})
	if n != 0 {
		t.Fatal("non-retransmit events triggered discovery")
	}
}

func TestAttachViaBus(t *testing.T) {
	n := 0
	a := New(func(ecmp.FiveTuple) { n++ })
	var bus etw.Bus
	a.Attach(&bus)
	bus.Publish(etw.Event{Kind: etw.Retransmit, Flow: flow(3)})
	if n != 1 {
		t.Fatal("bus subscription not working")
	}
}

// The §9.2 latency extension: RTT samples over the threshold trigger path
// discovery (once per flow per epoch), samples under it do nothing, and a
// zero threshold disables the path entirely.
func TestRTTThresholdTriggering(t *testing.T) {
	var triggered []ecmp.FiveTuple
	a := New(func(f ecmp.FiveTuple) { triggered = append(triggered, f) })
	a.RTTThresholdMicros = 1000
	f := flow(3000)
	a.OnEvent(etw.Event{Kind: etw.RTTSample, Flow: f, SRTTMicros: 999})
	if len(triggered) != 0 {
		t.Fatal("sub-threshold RTT triggered discovery")
	}
	a.OnEvent(etw.Event{Kind: etw.RTTSample, Flow: f, SRTTMicros: 1500})
	a.OnEvent(etw.Event{Kind: etw.RTTSample, Flow: f, SRTTMicros: 2000})
	if len(triggered) != 1 {
		t.Fatalf("triggered %d times for one slow flow in one epoch", len(triggered))
	}
	a.NewEpoch()
	a.OnEvent(etw.Event{Kind: etw.RTTSample, Flow: f, SRTTMicros: 1500})
	if len(triggered) != 2 {
		t.Fatal("slow flow did not re-trigger after the epoch roll")
	}
}

// A retransmission and a slow-RTT sample on the same flow in the same
// epoch share the one trigger budget — path discovery runs once.
func TestRetxAndRTTShareTriggerBudget(t *testing.T) {
	n := 0
	a := New(func(ecmp.FiveTuple) { n++ })
	a.RTTThresholdMicros = 1000
	f := flow(3001)
	a.OnEvent(etw.Event{Kind: etw.Retransmit, Flow: f})
	a.OnEvent(etw.Event{Kind: etw.RTTSample, Flow: f, SRTTMicros: 5000})
	if n != 1 {
		t.Fatalf("triggered %d times, want 1", n)
	}
}

// A nil trigger function is legal: the agent still counts.
func TestNilTrigger(t *testing.T) {
	a := New(nil)
	f := flow(3002)
	a.OnEvent(etw.Event{Kind: etw.Retransmit, Flow: f}) // must not panic
	if a.Retx(f) != 1 {
		t.Fatalf("Retx = %d", a.Retx(f))
	}
}

// Retx on an unknown flow is zero, not a panic.
func TestRetxUnknownFlow(t *testing.T) {
	a := New(nil)
	if got := a.Retx(flow(9999)); got != 0 {
		t.Fatalf("Retx(unknown) = %d", got)
	}
}

// Per-host isolation under concurrency: each host's agent on its own bus,
// every host driven from its own goroutine — the deployment shape of the
// emulation, where agents share nothing. The race job runs this under
// -race; any accidental cross-agent state shows up as a data race or a
// wrong count.
func TestAgentsConcurrentPerHost(t *testing.T) {
	const hosts, events = 8, 500
	type hostState struct {
		bus       etw.Bus
		agent     *Agent
		triggered int
	}
	states := make([]hostState, hosts)
	done := make(chan int, hosts)
	for h := range states {
		h := h
		st := &states[h]
		st.agent = New(func(ecmp.FiveTuple) { st.triggered++ })
		st.agent.Attach(&st.bus)
		go func() {
			for i := 0; i < events; i++ {
				st.bus.Publish(etw.Event{Kind: etw.Retransmit, Flow: flow(uint16(1000 + i%5))})
			}
			st.agent.NewEpoch()
			st.bus.Publish(etw.Event{Kind: etw.Retransmit, Flow: flow(1000)})
			done <- h
		}()
	}
	for range states {
		<-done
	}
	for h := range states {
		// 5 distinct flows trigger once each, plus one re-trigger after the
		// epoch roll.
		if got := states[h].triggered; got != 6 {
			t.Fatalf("host %d triggered %d times, want 6", h, got)
		}
	}
}

// Attaching and detaching agents while another goroutine publishes must be
// race-free on a shared bus (the publisher alone drives every attached
// agent's handler, matching the bus's delivery contract).
func TestAttachDetachDuringPublish(t *testing.T) {
	var bus etw.Bus
	permanent := New(nil)
	permanent.Attach(&bus)
	const events = 400
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < events; i++ {
			bus.Publish(etw.Event{Kind: etw.Retransmit, Flow: flow(uint16(i))})
		}
	}()
	for i := 0; i < 50; i++ {
		detach := New(nil).Attach(&bus)
		detach()
	}
	<-done
	if got := len(permanent.retx); got != events {
		t.Fatalf("permanent agent saw %d flows, want %d", got, events)
	}
}
