package analysis_test

import (
	"fmt"
	"slices"
	"testing"

	"vigil/internal/analysis"
	"vigil/internal/stats"
	"vigil/internal/topology"
	"vigil/internal/vote"
)

// An incremental engine's analysis options carry the index from one call to
// the next, which patches it where an epoch's reports differ from the last
// (vote.Streaming). Every Analyze of 50 consecutive flow-dc-delta-shaped
// epochs of an incremental engine on the §6 fabric must still match the
// dense oracle. Twenty links fail at the delta rates, one flipped per
// epoch, so that consecutive epochs share ≈97 % of their reports and all
// but the first call patch; they must share nearly all, or the carry goes
// untested.
func TestAnalyzeDeltaEpochsMatchDenseOracle(t *testing.T) {
	eng, links := benchEngine(t, topology.DefaultSimConfig, true, 20, deltaRates[0], 3)
	opts := eng.Analysis()
	var prev []vote.Report
	shared, total := 0, 0
	for i := 0; i < 50; i++ {
		if i > 0 {
			if err := eng.InjectFailure(links[i%len(links)], deltaRates[(i/len(links)+1)%2]); err != nil {
				t.Fatal(err)
			}
		}
		reports := eng.Step(nil).Reports
		requireMatchesOracle(t, reports, opts)
		shared += sharedReports(prev, reports)
		total += len(reports)
		prev = reports
	}
	t.Logf("%d reports over 50 epochs, %.1f %% of them in the epoch before too", total, 100*float64(shared)/float64(total))
	if shared < total*9/10 {
		t.Fatalf("consecutive epochs share %d of %d reports: too few for a carried analysis", shared, total)
	}
}

// sharedReports counts the reports of b that a has too, with the same
// FlowID and path.
func sharedReports(a, b []vote.Report) int {
	n := 0
	for _, r := range b {
		i, ok := slices.BinarySearchFunc(a, r.FlowID, func(q vote.Report, id int64) int { return int(q.FlowID - id) })
		if ok && slices.Equal(a[i].Path, r.Path) {
			n++
		}
	}
	return n
}

// editSequence is n epochs: routed reports on topo, FlowIDs ascending with
// gaps, then each epoch the one before with a few reports removed, a few
// given another path and a few added between their neighbours — the shape
// of consecutive settled epochs, with routedReports' edge cases mixed in.
func editSequence(t testing.TB, topo *topology.Topology, seed uint64, size, n int) [][]vote.Report {
	rng := stats.NewRNG(seed)
	pool := routedReports(t, topo, rng, size+4*n)
	for i := range pool {
		pool[i].FlowID *= 4
	}
	cur, spare := pool[:size], pool[size:]
	out := [][]vote.Report{cur}
	for len(out) < n {
		next := slices.Clone(cur)
		for k := rng.Intn(4); k > 0 && len(next) > 1; k-- {
			switch i := rng.Intn(len(next)); rng.Intn(3) {
			case 0:
				next = slices.Delete(next, i, i+1)
			case 1:
				next[i].Path, spare = spare[0].Path, spare[1:]
			default:
				if i > 0 && next[i].FlowID-next[i-1].FlowID > 1 {
					r := spare[0]
					r.FlowID, spare = next[i].FlowID-1, spare[1:]
					next = slices.Insert(next, i, r)
				}
			}
		}
		out = append(out, next)
		cur = next
	}
	return out
}

// Analyze's outputs do not depend on what a stream carries: goroutines
// analyzing sequences of their own, each on a stream of its own, match the
// dense oracle on every call, and so do two goroutines sharing one stream,
// the one that finds its carry taken building fresh. Run under -race, this
// is also the carry's data-race check.
func TestAnalyzeConcurrentSequencesMatchDenseOracle(t *testing.T) {
	topo, err := topology.New(topology.Config{Pods: 2, ToRsPerPod: 4, T1PerPod: 4, T2: 2, HostsPerToR: 4})
	if err != nil {
		t.Fatal(err)
	}
	stream := func() analysis.Options {
		return analysis.Options{Detect: vote.Streaming(vote.DetectOptions{ThresholdFrac: 0.01})}
	}
	for g, size := range []int{200, 300, 500, 2100} { // the last outgrows one summation chunk
		seq, opts := editSequence(t, topo, uint64(g+1), size, 24), stream()
		t.Run(fmt.Sprintf("goroutine=%d", g), func(t *testing.T) {
			t.Parallel()
			for _, reports := range seq {
				requireMatchesOracle(t, reports, opts)
			}
		})
	}
	shared := stream()
	for g := range 2 {
		seq := editSequence(t, topo, uint64(g+10), 400, 24)
		t.Run(fmt.Sprintf("shared=%d", g), func(t *testing.T) {
			t.Parallel()
			for _, reports := range seq {
				requireMatchesOracle(t, reports, shared)
			}
		})
	}
}

// FuzzAnalyzeSequenceMatchesOracle holds a stream's Analyze to the dense
// oracle along a sequence of epochs decoded from raw bytes: fuzzReports'
// reports, repeated to at least 64 with FlowIDs ascending and spaced, then
// one edit per following byte — a report removed, given another report's
// path, or added between two others; two neighbours swapped, which puts
// the reports out of FlowID order; or two reports given other paths at
// once, which for 64 to 79 reports is four changed reports, the most a
// call patches. One edit in 64 reports is small enough for the carried
// index to be patched, not rebuilt.
//
// The seeds after the first three: swaps among the other edits; 64
// reports a link each, where links leave the epoch and one (link 8) comes
// back; reports that share every link with unchanged ones; two paths at
// once, at the fallback share.
func FuzzAnalyzeSequenceMatchesOracle(f *testing.F) {
	f.Add([]byte{0, 2, 1, 0, 2, 0, 2, 1, 0, 3, 0, 1, 1, 0})
	f.Add([]byte{1, 3, 5, 0, 5, 0, 0xff, 0xff, 0, 7, 8, 9})
	f.Add([]byte{6, 7, 1, 0, 2, 0, 3, 0, 4, 0, 5, 0, 6, 0, 7, 0, 1, 1, 0, 1, 2, 0})
	f.Add([]byte{8, 2, 1, 0, 2, 0, 3, 3, 0, 4, 0, 5, 0, 13, 18, 23})
	oneLinkEach := []byte{0}
	for l := range byte(64) {
		oneLinkEach = append(oneLinkEach, 1, l, 0)
	}
	f.Add(oneLinkEach)
	f.Add([]byte{10, 2, 5, 0, 6, 0, 2, 6, 0, 5, 0, 1, 5, 0})
	f.Add([]byte{4, 2, 1, 0, 2, 0, 2, 3, 0, 4, 0, 9, 4, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		pool, dopts := fuzzReports(data)
		if len(pool) == 0 {
			return
		}
		opts := analysis.Options{Detect: vote.Streaming(dopts)}
		var cur []vote.Report
		for len(cur) < 64 {
			for _, r := range pool {
				r.FlowID = int64(4 * len(cur))
				cur = append(cur, r)
			}
		}
		requireMatchesOracle(t, cur, opts)
		for k, b := range data[:min(len(data), 12)] {
			next := slices.Clone(cur)
			i := (int(b) * 7) % len(next)
			switch b % 5 {
			case 0:
				next = slices.Delete(next, i, i+1)
			case 1:
				next[i].Path = pool[(k+int(b))%len(pool)].Path
			case 2:
				if i > 0 && next[i].FlowID-next[i-1].FlowID > 1 {
					r := pool[k%len(pool)]
					r.FlowID = next[i].FlowID - 1
					next = slices.Insert(next, i, r)
				}
			case 3:
				j := (i + 1) % len(next)
				next[i], next[j] = next[j], next[i]
			default:
				for _, at := range []int{i, (i + len(next)/2) % len(next)} {
					next[at].Path = pool[(at+1)%len(pool)].Path
				}
			}
			requireMatchesOracle(t, next, opts)
			cur = next
		}
	})
}
