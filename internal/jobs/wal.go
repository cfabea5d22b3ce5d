// Package jobs is the durable batch + async job subsystem behind the
// service's /v1/jobs API. It owns three things:
//
//   - Durability: every accepted job is journaled to a segmented,
//     checksummed, fsync'd write-ahead log *before* the submission is
//     acknowledged, and every terminal outcome (the exact result
//     bytes included) is journaled before it becomes observable. A
//     process that dies mid-batch — kill -9, OOM, power loss — loses
//     nothing: on restart the log is replayed, jobs that never
//     reached a terminal state re-execute, and jobs that did keep
//     their recorded bytes. Because the analysis is a pure function
//     of (source, config) and results are byte-identical across
//     runs, re-execution is exactly-once-observable: a client cannot
//     tell whether its result came from the first execution or a
//     post-crash replay.
//
//   - Fair scheduling: dispatch is per-tenant weighted fair queueing
//     (virtual-time WFQ) with per-tenant in-flight caps and queue
//     quotas, so one tenant's million-program batch delays a small
//     tenant's two programs by a bounded, weight-proportional amount
//     instead of starving it.
//
//   - Failure containment: transient failures walk the same bounded
//     retry ladder as the synchronous path (one step down the sound
//     degradation chain per attempt); a job that keeps failing is
//     quarantined in the poison state with its attributed error
//     instead of being retried forever; deadlines, TTLs, and
//     cancellation propagate through the ordinary context plumbing;
//     graceful drain checkpoints the queue instead of discarding it.
//
// The package is deliberately free of HTTP: internal/serve supplies
// the Executor (which runs the analyzer and renders response bytes)
// and translates Manager state into the wire API.
package jobs

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"time"
)

// The on-disk format. Each segment file (wal-<seq>.log) is a run of
// frames: an 8-byte header (payload length, then CRC-32/Castagnoli of
// the payload, both little-endian u32) followed by the JSON payload.
// A torn tail — the frame a crash interrupted — fails its length or
// checksum test and is discarded; everything before it was fsync'd
// and survives. The checkpoint file is a whole-state snapshot written
// atomically (tmp + rename) on graceful drain or segment compaction;
// segments it subsumes are deleted after the rename.
const (
	walSegmentPrefix  = "wal-"
	walSegmentSuffix  = ".log"
	walCheckpointName = "checkpoint.json"
	walFrameHeader    = 8
	// walMaxRecordBytes bounds one record so a corrupt length field
	// cannot ask for an absurd allocation during replay.
	walMaxRecordBytes = 64 << 20
)

var walCRC = crc32.MakeTable(crc32.Castagnoli)

// record is one WAL entry. Type "submit" creates a job; "fail" books
// one failed attempt (so the poison threshold survives a crash);
// "done", "poison", "expire", and "cancel" are terminal.
type record struct {
	T           string          `json:"t"`
	ID          string          `json:"id,omitempty"`
	Tenant      string          `json:"tenant,omitempty"`
	Fingerprint string          `json:"fp,omitempty"`
	Spec        json.RawMessage `json:"spec,omitempty"`
	SubmittedMs int64           `json:"submitted_ms,omitempty"`
	DeadlineMs  int64           `json:"deadline_ms,omitempty"`
	Attempt     int             `json:"attempt,omitempty"`
	Class       string          `json:"class,omitempty"`
	Error       string          `json:"error,omitempty"`
	Code        int             `json:"code,omitempty"`
	// Body is the exact result bytes. Stored as []byte (base64 in the
	// JSON frame), NOT json.RawMessage: Marshal compacts RawMessage
	// content, which would break the byte-identical replay guarantee.
	Body       []byte `json:"body,omitempty"`
	FinishedMs int64  `json:"finished_ms,omitempty"`
}

const (
	recSubmit = "submit"
	recFail   = "fail"
	recDone   = "done"
	recPoison = "poison"
	recExpire = "expire"
	recCancel = "cancel"
)

// checkpoint is the whole-state snapshot: every retained job reduced
// to the minimal record sequence that rebuilds it, plus the segment
// sequence number it subsumes.
type checkpoint struct {
	Seq     uint64   `json:"seq"`
	Records []record `json:"records"`
}

// walStats are the observability counters surfaced in /statsz.
type walStats struct {
	appends      atomic.Int64
	appendBytes  atomic.Int64
	fsyncs       atomic.Int64
	fsyncTotalNs atomic.Int64
	fsyncMaxNs   atomic.Int64
	checkpoints  atomic.Int64
	replayed     atomic.Int64
	corrupt      atomic.Int64
	segments     atomic.Int64
}

// WALStats is the exported snapshot of the log's counters.
type WALStats struct {
	Segments        int64 `json:"segments"`
	Appends         int64 `json:"appends"`
	AppendedBytes   int64 `json:"appended_bytes"`
	Fsyncs          int64 `json:"fsyncs"`
	FsyncAvgNs      int64 `json:"fsync_avg_ns"`
	FsyncMaxNs      int64 `json:"fsync_max_ns"`
	Checkpoints     int64 `json:"checkpoints"`
	ReplayedRecords int64 `json:"replayed_records"`
	CorruptRecords  int64 `json:"corrupt_records"`
}

// wal is the segmented write-ahead log. It is not internally
// synchronized: the Manager serializes every append and checkpoint
// under its own lock, which is also what makes the checkpoint's
// in-memory snapshot consistent with the log.
type wal struct {
	dir    string
	segMax int64

	f      *os.File
	seq    uint64 // sequence of the open segment
	size   int64  // bytes written to the open segment
	closed bool

	st walStats
}

// openWAL opens (creating if needed) the log in dir and replays it:
// the checkpoint's records first, then every surviving segment in
// order. A fresh segment is opened for new appends, so a truncated
// tail is never appended after.
func openWAL(dir string, segMax int64) (*wal, []record, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, fmt.Errorf("jobs: creating WAL dir: %w", err)
	}
	w := &wal{dir: dir, segMax: segMax}

	var recs []record
	cpSeq := uint64(0)
	if data, err := os.ReadFile(filepath.Join(dir, walCheckpointName)); err == nil {
		var cp checkpoint
		if err := json.Unmarshal(data, &cp); err != nil {
			// The checkpoint is written atomically; one that does not
			// parse means the directory is damaged in a way replay
			// cannot paper over. Refuse loudly rather than silently
			// dropping acknowledged jobs.
			return nil, nil, fmt.Errorf("jobs: corrupt WAL checkpoint: %w", err)
		}
		cpSeq = cp.Seq
		recs = append(recs, cp.Records...)
		w.st.replayed.Add(int64(len(cp.Records)))
	} else if !errors.Is(err, os.ErrNotExist) {
		return nil, nil, fmt.Errorf("jobs: reading WAL checkpoint: %w", err)
	}

	segs, err := listSegments(dir)
	if err != nil {
		return nil, nil, err
	}
	maxSeq := cpSeq
	for _, seg := range segs {
		if seg.seq <= cpSeq {
			// Subsumed by the checkpoint (the delete after the rename
			// did not finish before a crash); safe to drop now.
			_ = os.Remove(seg.path)
			continue
		}
		if seg.seq > maxSeq {
			maxSeq = seg.seq
		}
		segRecs, corrupt, err := readSegment(seg.path)
		if err != nil {
			return nil, nil, err
		}
		w.st.corrupt.Add(corrupt)
		w.st.replayed.Add(int64(len(segRecs)))
		recs = append(recs, segRecs...)
		w.st.segments.Add(1)
	}

	if err := w.openSegment(maxSeq + 1); err != nil {
		return nil, nil, err
	}
	return w, recs, nil
}

type segmentFile struct {
	seq  uint64
	path string
}

func listSegments(dir string) ([]segmentFile, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("jobs: listing WAL dir: %w", err)
	}
	var segs []segmentFile
	for _, e := range entries {
		name := e.Name()
		if !strings.HasPrefix(name, walSegmentPrefix) || !strings.HasSuffix(name, walSegmentSuffix) {
			continue
		}
		seqStr := strings.TrimSuffix(strings.TrimPrefix(name, walSegmentPrefix), walSegmentSuffix)
		seq, err := strconv.ParseUint(seqStr, 16, 64)
		if err != nil {
			continue // not ours
		}
		segs = append(segs, segmentFile{seq: seq, path: filepath.Join(dir, name)})
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i].seq < segs[j].seq })
	return segs, nil
}

// readSegment decodes one segment's frames. Decoding stops at the
// first torn or corrupt frame: everything after an unverifiable record
// is unordered noise, and only the final segment's tail can legally be
// torn — corruption elsewhere is surfaced in the corrupt counter so
// operators see it, while every verifiable record is still recovered.
func readSegment(path string) ([]record, int64, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, 0, fmt.Errorf("jobs: reading WAL segment: %w", err)
	}
	var recs []record
	var corrupt int64
	off := 0
	for off+walFrameHeader <= len(data) {
		length := binary.LittleEndian.Uint32(data[off:])
		sum := binary.LittleEndian.Uint32(data[off+4:])
		end := off + walFrameHeader + int(length)
		if length > walMaxRecordBytes || end > len(data) {
			corrupt++
			break
		}
		payload := data[off+walFrameHeader : end]
		if crc32.Checksum(payload, walCRC) != sum {
			corrupt++
			break
		}
		var rec record
		if err := json.Unmarshal(payload, &rec); err != nil {
			corrupt++
			break
		}
		recs = append(recs, rec)
		off = end
	}
	if off != len(data) && corrupt == 0 {
		corrupt++ // trailing partial header
	}
	return recs, corrupt, nil
}

func segmentPath(dir string, seq uint64) string {
	return filepath.Join(dir, fmt.Sprintf("%s%016x%s", walSegmentPrefix, seq, walSegmentSuffix))
}

func (w *wal) openSegment(seq uint64) error {
	f, err := os.OpenFile(segmentPath(w.dir, seq), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("jobs: opening WAL segment: %w", err)
	}
	w.f, w.seq, w.size = f, seq, 0
	w.st.segments.Add(1)
	return w.syncDir()
}

// syncDir fsyncs the WAL directory so segment creation and the
// checkpoint rename are themselves durable.
func (w *wal) syncDir() error {
	d, err := os.Open(w.dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}

// append journals recs as one durable unit: every frame is written,
// then a single fsync covers the batch (a whole submission costs one
// disk flush, not one per job). It must not be called after close or
// kill.
func (w *wal) append(recs ...record) error {
	if w.closed {
		return errors.New("jobs: append to closed WAL")
	}
	var buf []byte
	for i := range recs {
		payload, err := json.Marshal(&recs[i])
		if err != nil {
			return fmt.Errorf("jobs: encoding WAL record: %w", err)
		}
		var hdr [walFrameHeader]byte
		binary.LittleEndian.PutUint32(hdr[0:], uint32(len(payload)))
		binary.LittleEndian.PutUint32(hdr[4:], crc32.Checksum(payload, walCRC))
		buf = append(buf, hdr[:]...)
		buf = append(buf, payload...)
	}
	if _, err := w.f.Write(buf); err != nil {
		return fmt.Errorf("jobs: writing WAL: %w", err)
	}
	start := time.Now()
	if err := w.f.Sync(); err != nil {
		return fmt.Errorf("jobs: fsync WAL: %w", err)
	}
	ns := time.Since(start).Nanoseconds()
	w.st.fsyncs.Add(1)
	w.st.fsyncTotalNs.Add(ns)
	for {
		old := w.st.fsyncMaxNs.Load()
		if ns <= old || w.st.fsyncMaxNs.CompareAndSwap(old, ns) {
			break
		}
	}
	w.st.appends.Add(int64(len(recs)))
	w.st.appendBytes.Add(int64(len(buf)))
	w.size += int64(len(buf))
	if w.size >= w.segMax {
		return w.rotate()
	}
	return nil
}

func (w *wal) rotate() error {
	if err := w.f.Close(); err != nil {
		return err
	}
	return w.openSegment(w.seq + 1)
}

// liveSegments is how many closed segments precede the open one — the
// compaction trigger.
func (w *wal) liveSegments() int64 { return w.st.segments.Load() }

// writeCheckpoint atomically replaces the log's history with a
// snapshot: recs must rebuild every retained job. After the rename
// lands, all segments up to and including the current one are deleted
// and a fresh segment is opened (unless closing, when the caller is
// about to close the WAL anyway).
func (w *wal) writeCheckpoint(recs []record, closing bool) error {
	if w.closed {
		return errors.New("jobs: checkpoint on closed WAL")
	}
	cp := checkpoint{Seq: w.seq, Records: recs}
	data, err := json.Marshal(&cp)
	if err != nil {
		return fmt.Errorf("jobs: encoding checkpoint: %w", err)
	}
	tmp := filepath.Join(w.dir, walCheckpointName+".tmp")
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("jobs: writing checkpoint: %w", err)
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return fmt.Errorf("jobs: writing checkpoint: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("jobs: fsync checkpoint: %w", err)
	}
	if err := f.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmp, filepath.Join(w.dir, walCheckpointName)); err != nil {
		return fmt.Errorf("jobs: installing checkpoint: %w", err)
	}
	if err := w.syncDir(); err != nil {
		return err
	}
	// The snapshot now subsumes every segment through w.seq; drop them.
	if err := w.f.Close(); err != nil {
		return err
	}
	segs, err := listSegments(w.dir)
	if err != nil {
		return err
	}
	for _, seg := range segs {
		if seg.seq <= cp.Seq {
			_ = os.Remove(seg.path)
			w.st.segments.Add(-1)
		}
	}
	// Count the checkpoint only once the segments it replaces are gone:
	// a counted checkpoint is a finished compaction.
	w.st.checkpoints.Add(1)
	if closing {
		w.closed = true
		return nil
	}
	return w.openSegment(cp.Seq + 1)
}

// close ends the log cleanly (the caller checkpoints first on drain).
func (w *wal) close() error {
	if w.closed {
		return nil
	}
	w.closed = true
	return w.f.Close()
}

// kill simulates a crash for chaos harnesses: the file handle is
// dropped on the floor with no checkpoint and no final sync — exactly
// the state kill -9 leaves behind, because every acknowledged append
// was already fsync'd.
func (w *wal) kill() {
	if w.closed {
		return
	}
	w.closed = true
	_ = w.f.Close()
}

func (w *wal) stats() WALStats {
	s := WALStats{
		Segments:        w.st.segments.Load(),
		Appends:         w.st.appends.Load(),
		AppendedBytes:   w.st.appendBytes.Load(),
		Fsyncs:          w.st.fsyncs.Load(),
		FsyncMaxNs:      w.st.fsyncMaxNs.Load(),
		Checkpoints:     w.st.checkpoints.Load(),
		ReplayedRecords: w.st.replayed.Load(),
		CorruptRecords:  w.st.corrupt.Load(),
	}
	if s.Fsyncs > 0 {
		s.FsyncAvgNs = w.st.fsyncTotalNs.Load() / s.Fsyncs
	}
	return s
}
