package dist

import (
	"bufio"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"

	"golts/internal/ckpt"
)

// snapStore is the run's snapshot store: a run-private directory in
// which every rank keeps its share of the recovery snapshots, one state
// frame per file <gen>-<slot>-<rank>. Under owner-computes stepping no
// survivor holds a lost rank's interior, so a recovery snapshot has to
// outlive the process that wrote it; the cheapest place that does is the
// host's page cache. The failure model is a lost process, not a lost
// host (every rank runs on 127.0.0.1): files are overwritten in place
// and never synced. Two slots alternate, and the coordinator commits a
// slot only once every rank has answered for its file, so a rank dying
// mid-write tears the uncommitted slot only; the spawn generation in the
// name keeps a straggler of a torn-down generation off the files the
// next one reads. The coordinator creates the directory in Start and
// removes it when the run ends.
type snapStore struct {
	dir string
	buf *bufio.Writer // the one snapChunk-byte buffer every frame of save streams through
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
// it (or the one full frame RestoreState wrote), which together give the
// global state after Cycle completed cycles.
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

// snapChunk sizes save's buffer: a chunk is written and checksummed while in cache.
const snapChunk = 256 << 10

// save streams st's state frame (see writeState) into rank's file of (gen,
// slot), over the pages of the file's previous contents, and returns its
// length and CRC32.
func (s *snapStore) save(gen, slot, rank int, st *ckpt.StepperState, ndof, comps int, nodes []int32, full bool) (snapFile, error) {
	f, err := os.OpenFile(s.path(gen, slot, rank), os.O_WRONLY|os.O_CREATE, 0o600)
	if err != nil {
		return snapFile{}, err
	}
	crc := crc32.NewIEEE()
	if s.buf == nil {
		s.buf = bufio.NewWriterSize(nil, snapChunk)
	}
	s.buf.Reset(io.MultiWriter(f, crc))
	n, err := writeState(s.buf, st, ndof, comps, nodes, full)
	if err == nil {
		err = f.Truncate(n)
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return snapFile{Len: n, CRC: crc.Sum32()}, err
}

// load overlays every file of sn on base and refuses anything short of
// what base holds: each file must be as long as committed and hash to the
// committed checksum, fit base, and the frames together must cover every
// node base holds (all of them, or its footprint: see stateHeader.own). A
// nil base stands for a zero field of the first frame's shape. The error
// says what is wrong with the snapshot (the coordinator types it, see
// unusable); base is then partly overlaid.
func (s *snapStore) load(sn *snapshot, base *stateHeader) (*stateHeader, error) {
	if len(sn.Files) == 0 {
		return nil, errors.New("no files")
	}
	var seen []bool
	for i, want := range sn.Files {
		path := s.path(sn.Gen, sn.Slot, i)
		frame, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		name := "file " + filepath.Base(path)
		if crc := crc32.ChecksumIEEE(frame); int64(len(frame)) != want.Len || crc != want.CRC {
			return nil, fmt.Errorf("%s: %d bytes, crc %08x; committed with %d bytes, crc %08x",
				name, len(frame), crc, want.Len, want.CRC)
		}
		if base == nil {
			// A field the committed bytes could not cover is not worth
			// allocating: U and V cost 16 bytes a dof in any frame.
			h, _, err := parseStateFrame(frame)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", name, err)
			}
			if int64(h.NDof) > sn.bytes()/16 {
				return nil, fmt.Errorf("%s: a %d-dof field in a %d-byte snapshot", name, h.NDof, sn.bytes())
			}
			base = &stateHeader{NDof: h.NDof, Comps: h.Comps, Nodes: -1}
			base.State.U, base.State.V = make([]float64, h.NDof), make([]float64, h.NDof)
		}
		if seen == nil {
			seen = make([]bool, base.NDof/max(1, base.Comps))
			if base.own != nil {
				seen = make([]bool, len(base.own))
			}
		}
		if _, err := decodeState(frame, base, seen); err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
	}
	if n := slices.Index(seen, false); n >= 0 {
		if base.own != nil {
			n = int(base.own[n])
		}
		return nil, fmt.Errorf("node %d is in no rank's footprint", n)
	}
	return base, nil
}

// restore decodes a msgRestore descriptor and loads the snapshot it names
// onto live, which holds the footprint own of an ndof-long field.
func (s *snapStore) restore(payload []byte, live *ckpt.StepperState, ndof, comps int, own []int32) (*ckpt.StepperState, error) {
	var sn snapshot
	if err := decodeGob(payload, &sn); err != nil {
		return nil, fmt.Errorf("decoding snapshot descriptor: %w", err)
	}
	base, err := s.load(&sn, &stateHeader{State: *live, NDof: ndof, Comps: comps, Nodes: -1, own: own})
	if err != nil {
		return nil, err
	}
	return &base.State, nil
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
