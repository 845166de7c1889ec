package transport

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"syscall"
)

// The collector's durable state is an opaque application watermark (the
// ingest collector stores its last settled epoch there) and each session's
// durable frame-sequence watermark. Everything else a restart needs — open
// epochs' reports, cycle tokens, ground-truth summaries — is rebuilt by
// session replay: agents buffer every sequenced frame until it is durably
// acknowledged, and acks advance only to watermarks recorded here. So the
// checkpoint is O(sessions), not O(in-flight reports), and fits a slot.
//
// On disk it is one preallocated file of two equal slots. Commit g (the
// generation, from 1) writes its record into slot g&1 — the one holding
// generation g-2, never the newest — with one pwrite and one fdatasync;
// loading takes the valid slot with the highest generation. A record,
// little-endian, CRC-32 (IEEE) over every byte before it:
//
//	magic "VGCK" | version u32 | sessions n u32 | generation u64 | app i64 |
//	n × { session u64, durable u64 } | crc u32
//
// That framing is fixed across format versions, so a loader tells "written
// by another version" (CRC holds, version unknown: an error) from "torn by a
// crash" (anything else not all zeros: the slot loses). DESIGN.md,
// "Checkpoint format and crash recovery", argues each crash point.
const (
	ckptMagic   = "VGCK"
	ckptVersion = 2    // 1 was the JSON file replaced whole by temp + rename
	ckptHeader  = 28   // a record's bytes before its pairs
	ckptPair    = 16   // one session's bytes
	ckptMinSlot = 4096 // a new file's slot: 28 + 254 sessions + 4
)

// sessMark is one session's durable frame-sequence watermark.
type sessMark struct{ sess, durable uint64 }

// ckptState is what one record holds; generation 0 is a file nothing was
// ever committed to.
type ckptState struct {
	gen   uint64
	app   int64
	marks []sessMark
}

func appendRecord(dst []byte, st ckptState) []byte {
	at := len(dst)
	dst = append(dst, ckptMagic...)
	dst = binary.LittleEndian.AppendUint32(dst, ckptVersion)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(st.marks)))
	dst = binary.LittleEndian.AppendUint64(dst, st.gen)
	dst = binary.LittleEndian.AppendUint64(dst, uint64(st.app))
	for _, m := range st.marks {
		dst = binary.LittleEndian.AppendUint64(dst, m.sess)
		dst = binary.LittleEndian.AppendUint64(dst, m.durable)
	}
	return binary.LittleEndian.AppendUint32(dst, crc32.ChecksumIEEE(dst[at:]))
}

// readSlot decodes slot i of a file. A slot that is neither empty (all
// zeros: generation 0) nor a whole record in its place is torn. The count is
// checked against the slot before anything is sized by it.
func readSlot(slot []byte, i int) (st ckptState, torn bool, err error) {
	le := binary.LittleEndian
	if bytes.Count(slot, []byte{0}) == len(slot) {
		return st, false, nil
	}
	n := int(le.Uint32(slot[8:]))
	end := ckptHeader + n*ckptPair
	if string(slot[:4]) != ckptMagic || n > (len(slot)-ckptHeader-4)/ckptPair ||
		crc32.ChecksumIEEE(slot[:end]) != le.Uint32(slot[end:]) {
		return st, true, nil
	}
	if v := le.Uint32(slot[4:]); v != ckptVersion {
		return st, false, fmt.Errorf("unknown format version %d", v)
	}
	st = ckptState{gen: le.Uint64(slot[12:]), app: int64(le.Uint64(slot[20:])), marks: make([]sessMark, n)}
	if st.gen == 0 || st.gen&1 != uint64(i) {
		return ckptState{}, true, nil // a record no commit puts in this slot
	}
	for k := range st.marks {
		at := ckptHeader + k*ckptPair
		st.marks[k] = sessMark{le.Uint64(slot[at:]), le.Uint64(slot[at+8:])}
	}
	return st, false, nil
}

// decodeCheckpoint returns the newest state a checkpoint file's bytes hold.
// A torn slot loses to the other one; beside an empty one it is a fresh
// start, since no commit ever returned and so nothing was ever acked. Bytes
// that are not a two-slot file at all are an error, never a fresh start:
// resuming from nothing would silently break exactly-once settlement.
func decodeCheckpoint(data []byte) (ckptState, error) {
	slot := len(data) / 2
	if len(data)%2 != 0 || slot < ckptMinSlot || slot&(slot-1) != 0 {
		return ckptState{}, fmt.Errorf("not a two-slot checkpoint file (%d bytes)", len(data))
	}
	var newest ckptState
	bad := 0
	for i := 0; i < 2; i++ {
		st, torn, err := readSlot(data[i*slot:(i+1)*slot], i)
		if err != nil {
			return ckptState{}, err
		}
		if torn {
			bad++
		}
		if st.gen > newest.gen {
			newest = st
		}
	}
	if bad == 2 {
		return ckptState{}, errors.New("both slots are corrupt")
	}
	return newest, nil
}

// slotFile is what a commit needs of the open checkpoint file, and the seam
// the crash-point tests fake: pwrite, fdatasync, fstat's link count.
type slotFile interface {
	io.WriterAt
	io.Closer
	Datasync() error
	Nlink() (uint64, error)
}

type osSlotFile struct{ *os.File }

// Datasync suffices for a commit: every byte of the file was written and
// fsynced at creation, so a slot write allocates nothing and changes no
// metadata that reading the data back depends on.
func (f osSlotFile) Datasync() error {
	for {
		if err := syscall.Fdatasync(int(f.Fd())); err != syscall.EINTR {
			return err
		}
	}
}

func (f osSlotFile) Nlink() (uint64, error) {
	var st syscall.Stat_t
	err := syscall.Fstat(int(f.Fd()), &st)
	return uint64(st.Nlink), err
}

// checkpoint is the open two-slot file; its owner serializes commit and
// Close.
type checkpoint struct {
	path string
	file slotFile
	slot int    // bytes per slot: half the file
	gen  uint64 // the newest durable generation
	buf  []byte // the record being written, reused
}

// openCheckpoint opens the file at path, creating it (both slots empty) if
// it does not exist, and returns the state it holds.
func openCheckpoint(path string) (*checkpoint, ckptState, error) {
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if errors.Is(err, fs.ErrNotExist) {
		if f, err = writeSlots(path, ckptMinSlot, nil, 0); err != nil {
			return nil, ckptState{}, fmt.Errorf("transport: creating checkpoint %s: %w", path, err)
		}
		return &checkpoint{path: path, file: osSlotFile{f}, slot: ckptMinSlot}, ckptState{}, nil
	}
	if err != nil {
		return nil, ckptState{}, fmt.Errorf("transport: opening checkpoint: %w", err)
	}
	var st ckptState
	data, err := io.ReadAll(f)
	if err == nil {
		st, err = decodeCheckpoint(data)
	}
	if err != nil {
		f.Close()
		return nil, ckptState{}, fmt.Errorf("transport: checkpoint %s: %w", path, err)
	}
	return &checkpoint{path: path, file: osSlotFile{f}, slot: len(data) / 2, gen: st.gen}, st, nil
}

// writeSlots puts a new two-slot file at path, record (if any) in generation
// gen's slot, and returns it open. It is the one path through a temporary
// file: every byte is written — zeros too, so that no slot write ever
// allocates a block — and fsynced, the file is renamed into place, and the
// directory is fsynced, so that the name is as durable as the data before
// any commit is acked out of it.
func writeSlots(path string, slot int, record []byte, gen uint64) (*os.File, error) {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, ".checkpoint-*")
	if err != nil {
		return nil, err
	}
	image := make([]byte, 2*slot)
	copy(image[int(gen&1)*slot:], record)
	if _, err = tmp.Write(image); err == nil {
		err = tmp.Sync()
	}
	if err == nil {
		err = os.Rename(tmp.Name(), path)
	}
	if err == nil {
		var d *os.File
		if d, err = os.Open(dir); err == nil {
			err = d.Sync()
			d.Close()
		}
	}
	if err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return nil, err
	}
	return tmp, nil
}

// commit makes (app, marks) the newest durable state. It returns only after
// the data sync has; on an error, which names the step that failed, a
// restart still loads the previous generation and the caller acks nothing.
func (ck *checkpoint) commit(app int64, marks []sessMark) error {
	failed := func(step string, err error) error {
		return fmt.Errorf("transport: checkpoint %s: %s: %w", ck.path, step, err)
	}
	// A removed file (or directory) still takes writes through the open
	// descriptor; a commit into it would be acked, and gone at the restart.
	if links, err := ck.file.Nlink(); err != nil {
		return failed("fstat", err)
	} else if links == 0 {
		return failed("unlinked", errors.New("the file was removed; nothing written to it survives a restart"))
	}
	gen := ck.gen + 1
	ck.buf = appendRecord(ck.buf[:0], ckptState{gen: gen, app: app, marks: marks})
	if len(ck.buf) > ck.slot {
		// The rare commit that outgrows a slot (255 sessions, then 511, …)
		// rebuilds the file with larger ones; the rename is its commit point.
		slot := ck.slot
		for slot < len(ck.buf) {
			slot *= 2
		}
		f, err := writeSlots(ck.path, slot, ck.buf, gen)
		if err != nil {
			return failed("grow", err)
		}
		ck.file.Close() // the replaced inode; nothing in it is needed again
		ck.file, ck.slot, ck.gen = osSlotFile{f}, slot, gen
		return nil
	}
	if _, err := ck.file.WriteAt(ck.buf, int64(gen&1)*int64(ck.slot)); err != nil {
		return failed("pwrite", err)
	}
	if err := ck.file.Datasync(); err != nil {
		return failed("fdatasync", err)
	}
	ck.gen = gen
	return nil
}
