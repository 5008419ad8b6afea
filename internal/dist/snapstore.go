package dist

import (
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"golts/internal/ckpt"
)

// snapStore is the run's snapshot store: a run-private directory in
// which every rank keeps its share of the recovery snapshots, one state
// frame (package ckpt) per file <gen>-<slot>-<rank>. Under owner-computes
// stepping no survivor holds a lost rank's interior, so a recovery
// snapshot has to outlive the process that wrote it; the cheapest place
// that does is the host's page cache. The failure model is a lost process,
// not a lost host (every rank runs on 127.0.0.1): files are overwritten in
// place and never synced. Two slots alternate, and the coordinator commits
// a slot only once every rank has answered for its file, so a rank dying
// mid-write tears the uncommitted slot only; the spawn generation in the
// name keeps a straggler of a torn-down generation off the files the next
// one reads. save writes a footprint frame from the rank's own arrays, so
// the store holds no buffer and no copy of the frame; load overlays the
// files through ckpt.Overlay, as a local resume does. A checkpoint's
// "state" section is these files as they are (Coordinator.SaveState,
// RestoreState). The coordinator creates the directory in Start and
// removes it when the run ends.
type snapStore struct {
	dir string
}

// snapFile is what a rank answers msgCkpt with (gob, in msgCkptResp), and
// what its file must still measure up to when it is read back.
type snapFile struct {
	Len int64
	CRC uint32 // CRC32-IEEE of the whole file
}

// snapshot describes one committed snapshot — the msgRestore payload,
// and all the coordinator holds of the state: rank i's frame is the file
// (Gen, Slot, i), a footprint frame per rank of the generation that took
// it (or the frames of a checkpoint RestoreState wrote), which together
// give the global state after Cycle completed cycles.
type snapshot struct {
	Gen, Slot int
	Cycle     int64
	Files     []snapFile
}

// SnapshotError reports a committed recovery snapshot that cannot be
// restored from: a file missing, shorter or longer than committed, with
// another checksum, or frames that do not add up to the run's field.
// Nothing else holds the state, so the run cannot recover past it.
type SnapshotError struct {
	Gen, Slot int
	Cycle     int64
	Reason    string
}

func (e *SnapshotError) Error() string {
	return fmt.Sprintf("dist: recovery snapshot of cycle %d (generation %d, slot %d) unusable: %s",
		e.Cycle, e.Gen, e.Slot, e.Reason)
}

// bytes is the size of sn's files together.
func (sn *snapshot) bytes() (total int64) {
	for _, f := range sn.Files {
		total += f.Len
	}
	return total
}

// unusable is the *SnapshotError for sn, given what a reader found.
func (sn *snapshot) unusable(reason string) *SnapshotError {
	return &SnapshotError{Gen: sn.Gen, Slot: sn.Slot, Cycle: sn.Cycle, Reason: reason}
}

// newSnapDir creates a store's directory: under TMPDIR when the caller's
// environment names one, otherwise in the host's memory-backed /dev/shm
// where there is one, and in the system's temporary directory as the
// last resort. Nothing here is ever synced, so a disk behind the page
// cache buys no safety and costs writeback; it can also make the first
// write of every file slow (10 MB into a new ext4 file took 200-900 ms
// on the development VM, against 5 ms on tmpfs and 3 ms for every later
// overwrite in place on either).
func newSnapDir() (string, error) {
	if os.Getenv("TMPDIR") == "" {
		if dir, err := os.MkdirTemp("/dev/shm", "golts-snap-"); err == nil {
			return dir, nil
		}
	}
	return os.MkdirTemp("", "golts-snap-")
}

func (s *snapStore) path(gen, slot, rank int) string {
	return filepath.Join(s.dir, fmt.Sprintf("%d-%d-%d", gen, slot, rank))
}

// save writes the footprint frame of st — the nodes of an ndof-long field
// of comps components per node, U and V in their order (ckpt.WriteFrame)
// — into rank's file of (gen, slot), over the pages of the file's previous
// contents, straight from st's arrays, and returns its length and CRC32.
func (s *snapStore) save(gen, slot, rank int, st *ckpt.StepperState, ndof, comps int, nodes []int32) (snapFile, error) {
	f, err := os.OpenFile(s.path(gen, slot, rank), os.O_WRONLY|os.O_CREATE, 0o600)
	if err != nil {
		return snapFile{}, err
	}
	crc := crc32.NewIEEE()
	n, err := ckpt.WriteFrame(io.MultiWriter(f, crc), st, ndof, comps, nodes, false)
	if err == nil {
		err = f.Truncate(n)
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return snapFile{Len: n, CRC: crc.Sum32()}, err
}

// put writes frame, as it is, as file i of sn and records its length and
// CRC32 there.
func (s *snapStore) put(sn *snapshot, i int, frame []byte) error {
	sn.Files[i] = snapFile{Len: int64(len(frame)), CRC: crc32.ChecksumIEEE(frame)}
	return os.WriteFile(s.path(sn.Gen, sn.Slot, i), frame, 0o600)
}

// read returns file i of sn once it has checked the file against its
// commit: as long as committed, hashing to the committed checksum.
func (s *snapStore) read(sn *snapshot, i int) ([]byte, error) {
	path, want := s.path(sn.Gen, sn.Slot, i), sn.Files[i]
	frame, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	if crc := crc32.ChecksumIEEE(frame); int64(len(frame)) != want.Len || crc != want.CRC {
		return nil, fmt.Errorf("file %s: %d bytes, crc %08x; committed with %d bytes, crc %08x",
			filepath.Base(path), len(frame), crc, want.Len, want.CRC)
	}
	return frame, nil
}

// load overlays every file of sn through o and refuses anything short of
// what o's arrays hold: each file must be as long as committed and hash to
// the committed checksum, be one whole frame that fits the field, and the
// frames together must cover every node the arrays hold. The error says
// what is wrong with the snapshot (the coordinator types it, see
// unusable); the arrays are then partly overlaid.
func (s *snapStore) load(sn *snapshot, o *ckpt.Overlay) error {
	if len(sn.Files) == 0 {
		return errors.New("no files")
	}
	for i := range sn.Files {
		frame, err := s.read(sn, i)
		if err != nil {
			return err
		}
		if err := o.Add(frame); err != nil {
			return fmt.Errorf("file %s: %w", filepath.Base(s.path(sn.Gen, sn.Slot, i)), err)
		}
	}
	return o.Done()
}

// restore decodes a msgRestore descriptor and loads the snapshot it names
// onto live, which holds the footprint own of an ndof-long field.
func (s *snapStore) restore(payload []byte, live *ckpt.StepperState, ndof, comps int, own []int32) error {
	var sn snapshot
	if err := decodeGob(payload, &sn); err != nil {
		return fmt.Errorf("decoding snapshot descriptor: %w", err)
	}
	return s.load(&sn, ckpt.NewOverlay(live, ndof, comps, own))
}

// prune deletes the files of every generation but gen.
func (s *snapStore) prune(gen int) {
	ents, _ := os.ReadDir(s.dir)
	keep := strconv.Itoa(gen) + "-"
	for _, e := range ents {
		if !strings.HasPrefix(e.Name(), keep) {
			os.Remove(filepath.Join(s.dir, e.Name()))
		}
	}
}
