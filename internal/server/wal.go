package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"sync"
)

// The job write-ahead log makes accepted work crash-durable: every job
// state transition is appended to <state-dir>/jobs.wal before it is
// acknowledged, so a hard crash (kill -9, OOM, power loss) loses at
// worst the final, torn record — never an acknowledged job. The format
// follows the same trailer discipline as vivado.DiskStore: each record
// is one JSON line followed by a "crc32:%08x\n" CRC-32 (IEEE) trailer
// of that line, and each append is a single write(2) on an O_APPEND
// descriptor followed by fsync, so concurrent records never interleave
// and a crash tears at most the last one.
//
// Replay (decodeWALPrefix) recovers the longest clean prefix: the first
// record whose JSON does not parse, whose trailer is malformed or whose
// CRC does not match marks the end of the trustworthy log. Fields a
// version does not know are skipped, so upgrading over an old state
// directory never truncates it. openWAL
// truncates the file to that prefix before appending again, so a torn
// tail can never glue itself onto the next record.

// walOp is the transition a record logs.
const (
	// walAdmitted: the job was accepted; carries the full Spec, tenant,
	// single-flight key and idempotency key. The only record that must
	// be durable before the client sees 202.
	walAdmitted = "admitted"
	// walStarted: the job's flight group began executing.
	walStarted = "started"
	// walDone: the run finished; carries the terminal state
	// (succeeded/failed), the error string and the result summary.
	walDone = "done"
	// walCancelled: the client cancelled the job.
	walCancelled = "cancelled"
	// walRequeued: the stall watchdog cancelled the run and put the job
	// back on the admission queue.
	walRequeued = "requeued"
	// walPoisoned: the job stalled past its requeue budget and was
	// quarantined.
	walPoisoned = "poisoned"
)

// walRecord is one durable job transition. Admitted records carry the
// submission; terminal records carry the outcome; the rest are bare
// (op, job) pairs.
type walRecord struct {
	Op     string      `json:"op"`
	Job    string      `json:"job"`
	Tenant string      `json:"tenant,omitempty"`
	Key    string      `json:"key,omitempty"`
	Idem   string      `json:"idem,omitempty"`
	Spec   *Spec       `json:"spec,omitempty"`
	State  JobState    `json:"state,omitempty"`
	Error  string      `json:"error,omitempty"`
	Result *ResultView `json:"result,omitempty"`
	Time   string      `json:"time,omitempty"`
}

// walTrailerLen is the fixed byte length of the CRC trailer line:
// "crc32:" + 8 hex digits + "\n" — byte-identical to the DiskStore
// entry trailer.
const walTrailerLen = len("crc32:") + 8 + 1

// maxWALLine bounds one record's JSON line during replay; a "line"
// longer than this is corruption, not a record.
const maxWALLine = 1 << 20

// encodeWALRecord renders one record: the JSON line followed by the
// CRC-32 trailer of everything before it (newline included).
func encodeWALRecord(r walRecord) ([]byte, error) {
	body, err := json.Marshal(r)
	if err != nil {
		return nil, err
	}
	body = append(body, '\n')
	return append(body, fmt.Sprintf("crc32:%08x\n", crc32.ChecksumIEEE(body))...), nil
}

// decodeWALPrefix replays the longest clean prefix of a WAL image. It
// never fails: a torn or corrupt record simply ends the replay, and the
// returned offset is the byte length of the clean prefix — everything
// after it is untrustworthy and must be truncated before appending.
func decodeWALPrefix(data []byte) (recs []walRecord, clean int) {
	off := 0
	for off < len(data) {
		rest := data[off:]
		nl := bytes.IndexByte(rest, '\n')
		if nl < 0 || nl+1 > maxWALLine {
			return recs, off // torn or absurd body line
		}
		body := rest[:nl+1]
		if len(rest) < nl+1+walTrailerLen {
			return recs, off // trailer torn off
		}
		trailer := rest[nl+1 : nl+1+walTrailerLen]
		want, ok := parseCRCTrailer(trailer)
		if !ok || crc32.ChecksumIEEE(body) != want {
			return recs, off
		}
		// Unknown fields are ignored, not rejected: a CRC-valid record
		// written by an older or newer version (a ResultView field since
		// removed, say) must replay, or openWAL would truncate it and
		// every record after it.
		var r walRecord
		if err := json.Unmarshal(body, &r); err != nil || r.Op == "" || r.Job == "" {
			return recs, off // CRC-valid but not a record we wrote
		}
		recs = append(recs, r)
		off += nl + 1 + walTrailerLen
	}
	return recs, off
}

// parseCRCTrailer parses the byte-exact "crc32:%08x\n" trailer — no fmt
// scanning, whose whitespace leniency would bless a damaged terminator
// (the lesson FuzzDiskEntry taught the disk store).
func parseCRCTrailer(trailer []byte) (uint32, bool) {
	if len(trailer) != walTrailerLen || string(trailer[:6]) != "crc32:" || trailer[walTrailerLen-1] != '\n' {
		return 0, false
	}
	var want uint32
	for _, c := range trailer[6 : 6+8] {
		var d uint32
		switch {
		case c >= '0' && c <= '9':
			d = uint32(c - '0')
		case c >= 'a' && c <= 'f':
			d = uint32(c-'a') + 10
		default:
			return 0, false
		}
		want = want<<4 | d
	}
	return want, true
}

// wal is the open log: appends are serialized, written in one write(2)
// and fsynced before returning, so an acknowledged transition survives
// any crash.
type wal struct {
	mu   sync.Mutex
	f    *os.File
	path string
}

// openWAL loads the log at path (a missing file is an empty log),
// truncates any torn tail to the clean prefix and opens the file for
// durable appending. It returns the replayed records.
func openWAL(path string) (*wal, []walRecord, error) {
	data, err := os.ReadFile(path)
	if err != nil && !errors.Is(err, os.ErrNotExist) {
		return nil, nil, fmt.Errorf("server: wal: %w", err)
	}
	recs, clean := decodeWALPrefix(data)
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, nil, fmt.Errorf("server: wal: %w", err)
	}
	if clean < len(data) {
		// Drop the torn tail; O_APPEND writes land at the new end.
		if err := f.Truncate(int64(clean)); err != nil {
			f.Close()
			return nil, nil, fmt.Errorf("server: wal: truncating torn tail: %w", err)
		}
	}
	return &wal{f: f, path: path}, recs, nil
}

// append encodes r, writes it in a single call and fsyncs. The record
// is durable when append returns nil.
func (w *wal) append(r walRecord) error {
	data, err := encodeWALRecord(r)
	if err != nil {
		return fmt.Errorf("server: wal: %w", err)
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.f == nil {
		return fmt.Errorf("server: wal: closed")
	}
	if _, err := w.f.Write(data); err != nil {
		return fmt.Errorf("server: wal: %w", err)
	}
	if err := w.f.Sync(); err != nil {
		return fmt.Errorf("server: wal: %w", err)
	}
	return nil
}

// close releases the log file. Appends after close fail.
func (w *wal) close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.f == nil {
		return nil
	}
	err := w.f.Close()
	w.f = nil
	return err
}
