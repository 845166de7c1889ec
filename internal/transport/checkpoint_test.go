package transport

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"
)

// testState is generation gen of a run of commits over n sessions: every
// field differs between generations, so a loader that mixes two is caught.
func testState(gen uint64, n int) ckptState {
	st := ckptState{gen: gen, app: int64(gen) * 10, marks: make([]sessMark, n)}
	for i := range st.marks {
		st.marks[i] = sessMark{sess: uint64(i) + 1, durable: gen*1000 + uint64(i)}
	}
	return st
}

// fileImage is a checkpoint file of the given slot size holding each state's
// record in its generation's slot.
func fileImage(slot int, states ...ckptState) []byte {
	image := make([]byte, 2*slot)
	for _, st := range states {
		copy(image[int(st.gen&1)*slot:], appendRecord(nil, st))
	}
	return image
}

// withVersion is rec as another format version would frame it: same
// layout, valid CRC.
func withVersion(rec []byte, v uint32) []byte {
	rec = bytes.Clone(rec)
	binary.LittleEndian.PutUint32(rec[4:], v)
	binary.LittleEndian.PutUint32(rec[len(rec)-4:], crc32.ChecksumIEEE(rec[:len(rec)-4]))
	return rec
}

// reopen closes ck and opens its file again, as a restart would.
func reopen(t *testing.T, ck *checkpoint) (*checkpoint, ckptState) {
	t.Helper()
	ck.file.Close()
	ck, st, err := openCheckpoint(ck.path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ck.file.Close() })
	return ck, st
}

// The five behaviours the JSON checkpoint's test pinned, on the two-slot
// file: a missing file is a fresh start, a commit round-trips, a later
// commit replaces an earlier one, and neither corruption nor an unknown
// version ever loads — least of all as a fresh start.
func TestCheckpointRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ckpt")

	// Missing file: a fresh start, not an error — and the file now exists at
	// its full size, so no commit will have to allocate it.
	ck, st, err := openCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	if st.gen != 0 || len(st.marks) != 0 {
		t.Fatalf("fresh checkpoint = %+v", st)
	}
	if fi, err := os.Stat(path); err != nil || fi.Size() != 2*ckptMinSlot {
		t.Fatalf("created file: %v, %v; want %d bytes", fi, err, 2*ckptMinSlot)
	}

	in := ckptState{gen: 1, app: 41, marks: []sessMark{{3, 900}, {9, 12}}}
	if err := ck.commit(in.app, in.marks); err != nil {
		t.Fatal(err)
	}
	ck, out := reopen(t, ck)
	if !reflect.DeepEqual(out, in) {
		t.Fatalf("round trip changed checkpoint: %+v -> %+v", in, out)
	}

	// A later commit goes to the other slot and wins by generation; the one
	// after that overwrites the first and wins again.
	for gen := uint64(2); gen <= 3; gen++ {
		in = ckptState{gen: gen, app: 40 + int64(gen), marks: []sessMark{{3, 1000 * gen}, {9, 12}}}
		if err := ck.commit(in.app, in.marks); err != nil {
			t.Fatal(err)
		}
		if ck, out = reopen(t, ck); !reflect.DeepEqual(out, in) {
			t.Fatalf("generation %d is not the one loaded: %+v", gen, out)
		}
	}
	ck.file.Close()
	good, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	// Corruption and unknown versions are hard errors that name the file —
	// resuming from garbage, or from nothing, would silently break
	// exactly-once settlement.
	v99 := make([]byte, 2*ckptMinSlot)
	copy(v99, withVersion(appendRecord(nil, testState(4, 1)), 99))
	copy(v99[ckptMinSlot:], withVersion(appendRecord(nil, testState(5, 1)), 99))
	garbage := bytes.Repeat([]byte{0xa5}, 2*ckptMinSlot)
	for name, data := range map[string][]byte{
		"both slots corrupt":   garbage,
		"unknown version":      v99,
		"a newer slot unknown": append(bytes.Clone(good[:ckptMinSlot]), v99[ckptMinSlot:]...),
		"a JSON checkpoint":    []byte(`{"v":1,"app":41,"sessions":{"3":900}}`),
		"truncated":            good[:len(good)-1],
		"an empty file":        {},
		"one slot, not two":    good[:ckptMinSlot],
		"slots of 6 KiB":       make([]byte, 3*ckptMinSlot),
	} {
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		_, _, err := openCheckpoint(path)
		if err == nil {
			t.Errorf("%s: loaded cleanly", name)
		} else if !strings.Contains(err.Error(), path) {
			t.Errorf("%s: error %q does not name the file", name, err)
		}
	}
}

// The loader's rule, slot state by slot state: the highest valid
// generation wins, a torn slot loses to the other, and a torn slot beside
// an empty one is a fresh start because no commit ever returned.
func TestCheckpointLoadRule(t *testing.T) {
	torn := func(st ckptState) []byte { // the record with its last pair byte wrong
		rec := appendRecord(nil, st)
		rec[len(rec)-5] ^= 1
		return rec
	}
	at := func(image []byte, slot int, rec []byte) []byte {
		copy(image[slot*ckptMinSlot:], rec)
		return image
	}
	g4, g5, g6 := testState(4, 2), testState(5, 2), testState(6, 2)
	for name, c := range map[string]struct {
		image []byte
		want  uint64 // generation loaded; 0 is a fresh start
	}{
		"both empty":                {fileImage(ckptMinSlot), 0},
		"first commit":              {fileImage(ckptMinSlot, testState(1, 2)), 1},
		"first commit torn":         {at(fileImage(ckptMinSlot), 1, torn(testState(1, 2))), 0},
		"newer in slot 1":           {fileImage(ckptMinSlot, g4, g5), 5},
		"newer in slot 0":           {fileImage(ckptMinSlot, g5, g6), 6},
		"newer torn":                {at(fileImage(ckptMinSlot, g4, g5), 1, torn(g5)), 4},
		"older torn":                {at(fileImage(ckptMinSlot, g4, g5), 0, torn(g4)), 5},
		"count past the slot":       {at(fileImage(ckptMinSlot, g4), 1, withCount(appendRecord(nil, g5), 255)), 4},
		"record in the wrong slot":  {at(fileImage(ckptMinSlot, g4), 1, appendRecord(nil, g6)), 4},
		"generation zero":           {at(fileImage(ckptMinSlot, g5), 0, appendRecord(nil, ckptState{})), 5},
		"junk after a whole record": {at(fileImage(ckptMinSlot, g4, g5), 1, append(appendRecord(nil, g5), 0xff, 0xff)), 5},
	} {
		st, err := decodeCheckpoint(c.image)
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		want := ckptState{}
		if c.want > 0 {
			want = testState(c.want, 2)
		}
		if !reflect.DeepEqual(st, want) {
			t.Errorf("%s: loaded %+v, want generation %d", name, st, c.want)
		}
	}
}

// withCount is rec claiming n sessions, CRC left as it was.
func withCount(rec []byte, n uint32) []byte {
	binary.LittleEndian.PutUint32(rec[8:], n)
	return rec
}

var errInjected = errors.New("injected")

// memFile is a checkpoint file in memory that fails on cue: the crash-point
// sweep's stand-in for the disk. image is what a restart would read.
type memFile struct {
	image    []byte
	cut      int // when ≥ 0, WriteAt stores this many bytes and fails
	failSync bool
	links    uint64
}

func (m *memFile) WriteAt(p []byte, off int64) (int, error) {
	if m.cut >= 0 {
		n := min(m.cut, len(p))
		copy(m.image[off:], p[:n])
		return n, errInjected
	}
	return copy(m.image[off:], p), nil
}

func (m *memFile) Datasync() error {
	if m.failSync {
		return errInjected
	}
	return nil
}

func (m *memFile) Nlink() (uint64, error) { return m.links, nil }
func (m *memFile) Close() error           { return nil }

// The crash-point sweep at the file: from every base generation, the next
// commit's slot write is cut at every byte prefix (0 bytes is a failed
// pwrite or a death just before it, all of them a death just after), its
// fdatasync fails, and at sector granularity any subset of it reaches the
// disk. In every case a restart loads exactly the last generation whose
// commit returned or exactly the new one — never a mix, never garbage,
// never anything older — the failed commit names its step and the file, and
// the commit retried afterwards succeeds.
func TestCheckpointCrashPoints(t *testing.T) {
	sizes := []int{0, 1, 3, 254} // 254 sessions fill the slot: eight sectors
	if testing.Short() {
		sizes = []int{0, 3, 40}
	}
	for _, n := range sizes {
		for base := uint64(0); base <= 3; base++ {
			mem := &memFile{image: make([]byte, 2*ckptMinSlot), cut: -1, links: 1}
			ck := &checkpoint{path: "/mem/ckpt", file: mem, slot: ckptMinSlot}
			for g := uint64(1); g <= base; g++ {
				if err := ck.commit(testState(g, n).app, testState(g, n).marks); err != nil {
					t.Fatal(err)
				}
			}
			durable := ckptState{}
			if base > 0 {
				durable = testState(base, n)
			}
			next := testState(base+1, n)
			before := bytes.Clone(mem.image)
			load := func(what string) ckptState {
				t.Helper()
				st, err := decodeCheckpoint(mem.image)
				if err != nil {
					t.Fatalf("n=%d base=%d %s: %v", n, base, what, err)
				}
				if !reflect.DeepEqual(st, durable) && !reflect.DeepEqual(st, next) {
					t.Fatalf("n=%d base=%d %s: loaded generation %d (app %d), want %d or %d intact",
						n, base, what, st.gen, st.app, durable.gen, next.gen)
				}
				return st
			}
			failing := func(what, step string) {
				t.Helper()
				err := ck.commit(next.app, next.marks)
				if err == nil || !strings.Contains(err.Error(), step) || !strings.Contains(err.Error(), ck.path) {
					t.Fatalf("n=%d base=%d %s: commit returned %v, want an error naming %s and the file", n, base, what, err, step)
				}
				if ck.gen != base {
					t.Fatalf("n=%d base=%d %s: a failed commit advanced the generation to %d", n, base, what, ck.gen)
				}
			}

			size := ckptHeader + n*ckptPair + 4
			for cut := 0; cut <= size; cut++ {
				copy(mem.image, before)
				mem.cut = cut
				failing("write cut", "pwrite")
				got := load("write cut")
				if cut == 0 && got.gen != base || cut == size && got.gen != base+1 {
					t.Fatalf("n=%d base=%d: %d of %d bytes written loaded generation %d", n, base, cut, size, got.gen)
				}
			}
			mem.cut = -1

			copy(mem.image, before)
			mem.failSync = true
			failing("sync failed", "fdatasync")
			load("sync failed")
			mem.failSync = false

			// Sectors of one write may reach the disk in any order.
			rec := appendRecord(nil, next)
			sectors := (len(rec) + 511) / 512
			at := int(next.gen&1) * ckptMinSlot
			for mask := 0; mask < 1<<sectors; mask++ {
				copy(mem.image, before)
				for s := 0; s < sectors; s++ {
					if mask&(1<<s) != 0 {
						lo, hi := s*512, min((s+1)*512, len(rec))
						copy(mem.image[at+lo:], rec[lo:hi])
					}
				}
				if got := load("sector subset"); mask == 1<<sectors-1 && got.gen != base+1 {
					t.Fatalf("n=%d base=%d: every sector written loaded generation %d", n, base, got.gen)
				}
			}

			// The torn slot is the one the retry rewrites.
			copy(mem.image, before)
			mem.cut = size / 2
			failing("before the retry", "pwrite")
			mem.cut = -1
			if err := ck.commit(next.app, next.marks); err != nil {
				t.Fatal(err)
			}
			if got := load("retry"); got.gen != base+1 {
				t.Fatalf("n=%d base=%d: the retried commit loaded generation %d", n, base, got.gen)
			}
		}
	}
}

// A commit that outgrows its slot rebuilds the file at double the slot
// size, through a temporary file and a rename; the state survives, nothing
// is left behind, and the next commit is an ordinary slot write again.
func TestCheckpointGrows(t *testing.T) {
	dir := t.TempDir()
	ck, _, err := openCheckpoint(filepath.Join(dir, "ckpt"))
	if err != nil {
		t.Fatal(err)
	}
	small := testState(1, 254)
	if err := ck.commit(small.app, small.marks); err != nil {
		t.Fatal(err)
	}
	for _, step := range []struct {
		gen  uint64
		n    int
		slot int
	}{{2, 255, 2 * ckptMinSlot}, {3, 1100, 8 * ckptMinSlot}, {4, 1101, 8 * ckptMinSlot}, {5, 2, 8 * ckptMinSlot}} {
		in := testState(step.gen, step.n)
		if err := ck.commit(in.app, in.marks); err != nil {
			t.Fatal(err)
		}
		var out ckptState
		if ck, out = reopen(t, ck); !reflect.DeepEqual(out, in) {
			t.Fatalf("generation %d with %d sessions loaded as generation %d with %d", step.gen, step.n, out.gen, len(out.marks))
		}
		if ck.slot != step.slot {
			t.Fatalf("%d sessions: slots of %d bytes, want %d", step.n, ck.slot, step.slot)
		}
	}
	if entries, err := os.ReadDir(dir); err != nil || len(entries) != 1 {
		t.Fatalf("the directory holds %v (%v), want the checkpoint alone", entries, err)
	}
}

// faultyFile is the real file with one step failing.
type faultyFile struct {
	slotFile
	step string
}

func (f faultyFile) WriteAt(p []byte, off int64) (int, error) {
	if f.step == "pwrite" {
		return 0, errInjected
	}
	return f.slotFile.WriteAt(p, off)
}

func (f faultyFile) Datasync() error {
	if f.step == "fdatasync" {
		return errInjected
	}
	return f.slotFile.Datasync()
}

// openFDs counts this process's open descriptors.
func openFDs(t *testing.T) int {
	t.Helper()
	entries, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		t.Skipf("no descriptor table to count: %v", err)
	}
	return len(entries)
}

// A commit that cannot be made durable — write error, sync error, file
// unlinked — returns an error naming the step and the checkpoint, advances
// no durable mark and acks nothing; once the fault is gone the same commit
// goes through and acks. And a server holds exactly one descriptor on its
// checkpoint, which Close releases.
func TestCommitFailureAcksNothing(t *testing.T) {
	fds := openFDs(t)
	dir := t.TempDir()
	for _, step := range []string{"pwrite", "fdatasync", "unlinked"} {
		path := filepath.Join(dir, step)
		h := &recHandler{}
		tokenSeq := make(chan uint64, 1)
		h.onToken = func(sess, seq uint64, tok Token) { tokenSeq <- seq }
		srv := newTestServer(t, h, ServerConfig{CheckpointPath: path, AppFresh: -1})
		cli := newTestClient(t, srv.Addr(), ClientConfig{Session: 5})
		ctx := context.Background()
		if err := cli.SendToken(ctx, Token{Cycle: 0, Live: true}); err != nil {
			t.Fatal(err)
		}
		seq := <-tokenSeq

		real := srv.ckpt.file
		if step == "unlinked" {
			if err := os.Remove(path); err != nil {
				t.Fatal(err)
			}
		} else {
			srv.ckpt.file = faultyFile{real, step}
		}
		err := srv.Commit(0, map[uint64]uint64{5: seq})
		if err == nil || !strings.Contains(err.Error(), step) || !strings.Contains(err.Error(), path) {
			t.Fatalf("%s: Commit returned %v, want an error naming the step and the checkpoint", step, err)
		}
		srv.sessionFor(5).mu.Lock()
		durable := srv.sessionFor(5).durable
		srv.sessionFor(5).mu.Unlock()
		if acks := srv.ctr.AcksSent.Load(); acks != 0 || durable != 0 || srv.ctr.Checkpoints.Load() != 0 {
			t.Fatalf("%s: a failed commit sent %d acks and left the durable mark at %d", step, acks, durable)
		}
		if step != "unlinked" { // nothing brings a removed file back; the collector stops
			srv.ckpt.file = real
			if err := srv.Commit(0, map[uint64]uint64{5: seq}); err != nil {
				t.Fatalf("%s: the commit after the fault: %v", step, err)
			}
			srv.SendCycleEnd(5, CycleEnd{Cycle: 0})
			if _, err := cli.WaitCycleEnd(ctx, 0); err != nil {
				t.Fatal(err)
			}
			if cli.durable != seq {
				t.Fatalf("%s: the client's durable mark is %d after the good commit, want %d", step, cli.durable, seq)
			}
			if spent := srv.ctr.CheckpointCommitNanos.Load(); spent <= 0 {
				t.Fatalf("%s: a commit took %d ns by the counter", step, spent)
			}
		}
		cli.Close()
		srv.Close()
		if err := srv.Commit(1, nil); err == nil || !strings.Contains(err.Error(), path) {
			t.Fatalf("%s: Commit on a closed server returned %v", step, err)
		}
		if _, err := real.Nlink(); err == nil {
			t.Fatalf("%s: the checkpoint's descriptor outlived Close", step)
		}
	}
	if now := openFDs(t); now > fds {
		t.Fatalf("%d descriptors open after three servers came and went, %d before", now, fds)
	}
}

// fuzzFile builds the file a FuzzCheckpointLoad input stands for. raw inputs
// are the file's bytes as they are; otherwise a and b are the heads of the
// two slots of the smallest file that holds them, zeros behind — which
// keeps a corpus entry the size of its records, not of the 8 KiB around them.
func fuzzFile(a, b []byte, raw bool) []byte {
	if raw {
		return append(bytes.Clone(a), b...)
	}
	slot := ckptMinSlot
	for slot < max(len(a), len(b)) {
		slot *= 2
	}
	file := make([]byte, 2*slot)
	copy(file, a)
	copy(file[slot:], b)
	return file
}

// FuzzCheckpointLoad holds the loader to what a decoder of bytes the
// program did not necessarily write owes: it never panics; it allocates no
// more than a fixed multiple of the file; a file it accepts holds a state
// that, written out afresh, loads as the same state; and flipping any one
// bit of the newest record yields what the file holds without that slot —
// the older generation, a fresh start, or an error — never a third state.
func FuzzCheckpointLoad(f *testing.F) {
	f.Fuzz(func(t *testing.T, a, b []byte, raw bool) {
		if len(a) > 1<<20 || len(b) > 1<<20 {
			t.Skip()
		}
		file := fuzzFile(a, b, raw)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		st, err := decodeCheckpoint(file)
		runtime.ReadMemStats(&after)
		if spent := after.TotalAlloc - before.TotalAlloc; spent > uint64(4*len(file)+64<<10) {
			t.Fatalf("loading %d bytes allocated %d", len(file), spent)
		}
		if err != nil || st.gen == 0 {
			return
		}
		slot := len(file) / 2
		again, err := decodeCheckpoint(fileImage(slot, st))
		if err != nil || !reflect.DeepEqual(again, st) {
			t.Fatalf("generation %d re-encoded and loaded as %+v (%v)", st.gen, again, err)
		}

		at := int(st.gen&1) * slot
		without := bytes.Clone(file)
		for i := at; i < at+slot; i++ {
			without[i] = 0xff
		}
		older, olderErr := decodeCheckpoint(without)
		bits := 8 * (ckptHeader + len(st.marks)*ckptPair + 4)
		for bit := 0; bit < bits; bit += 1 + bits/2048 {
			file[at+bit/8] ^= 1 << (bit % 8)
			got, err := decodeCheckpoint(file)
			file[at+bit/8] ^= 1 << (bit % 8)
			if err == nil && (olderErr != nil || !reflect.DeepEqual(got, older)) {
				t.Fatalf("bit %d of generation %d flipped: loaded generation %d, want generation %d (%v) or an error",
					bit, st.gen, got.gen, older.gen, olderErr)
			}
		}
	})
}
