package sched

import (
	"bufio"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io"
	"sync"

	"pdmdict/internal/pdm"
)

// The intent log is the scheduler's write-ahead redo log: every admitted
// mutation is encoded as one checksummed record, buffered, and flushed
// to the underlying writer by the group commit — one flush per flush
// group, which is what amortizes the sync cost across concurrent
// writers. Callers are not acknowledged until their group's commit
// marker has been flushed, so a crash can only lose writes that were
// never acknowledged. Replay re-applies every complete, checksum-clean
// record in order (inserts and deletes are idempotent redo operations);
// a torn tail — a partial or corrupt final record — is tolerated and
// truncates the replay there.
//
// Record layout (little-endian):
//
//	kind u8 | key u64 | nsat u32 | sat u64 × nsat | crc32 u32
//
// The CRC (IEEE) covers kind through the last satellite word. A commit
// marker is a record of kind intentCommit with key 0 and no satellites.

const (
	intentInsert byte = 1
	intentDelete byte = 2
	intentCommit byte = 3
)

// maxIntentSat bounds a record's satellite length on replay, so a
// corrupt length field cannot ask for gigabytes.
const maxIntentSat = 1 << 20

// Intent is one logged mutation.
type Intent struct {
	// Del selects delete (true) or insert (false).
	Del bool
	// Key is the mutated key.
	Key pdm.Word
	// Sat is the inserted satellite data (nil for deletes).
	Sat []pdm.Word
}

// IntentLog appends checksummed intent records to an io.Writer.
// Append buffers; Commit writes a commit marker and flushes the buffer
// — the group-commit point. Safe for concurrent use.
type IntentLog struct {
	mu  sync.Mutex
	bw  *bufio.Writer // guarded by mu
	buf []byte        // guarded by mu; the record being encoded
	// err latches the first write failure; once set, every subsequent
	// Append/Commit returns it (the log is poisoned, not silently short).
	err error // guarded by mu
}

// NewIntentLog returns a log writing to w.
func NewIntentLog(w io.Writer) *IntentLog {
	return &IntentLog{bw: bufio.NewWriter(w)}
}

// Append buffers one intent record. The record is not durable until the
// next Commit.
func (l *IntentLog) Append(in Intent) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.err != nil {
		return l.err
	}
	kind := intentInsert
	if in.Del {
		kind = intentDelete
	}
	l.buf = appendIntentRecord(l.buf[:0], kind, in.Key, in.Sat)
	_, l.err = l.bw.Write(l.buf)
	return l.err
}

// Commit writes a commit marker and flushes every buffered record to
// the underlying writer — one flush for the whole group.
func (l *IntentLog) Commit() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.err != nil {
		return l.err
	}
	l.buf = appendIntentRecord(l.buf[:0], intentCommit, 0, nil)
	if _, l.err = l.bw.Write(l.buf); l.err == nil {
		l.err = l.bw.Flush()
	}
	return l.err
}

// appendIntentRecord appends the encoding of one record to buf.
func appendIntentRecord(buf []byte, kind byte, key pdm.Word, sat []pdm.Word) []byte {
	start := len(buf)
	buf = append(buf, kind)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(key))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(sat)))
	for _, w := range sat {
		buf = binary.LittleEndian.AppendUint64(buf, uint64(w))
	}
	return binary.LittleEndian.AppendUint32(buf, crc32.ChecksumIEEE(buf[start:]))
}

// ReplayIntents decodes every complete, checksum-clean intent record
// from r, in order, stopping (without error) at EOF, a torn record, or
// a checksum mismatch — the crash-recovery contract: everything before
// the tear replays, the tear truncates. Commit markers delimit flush
// groups and decode to no Intent. The returned error reports only
// genuine read failures, never a torn tail. Every record is read into
// the same two buffers; each returned satellite is a fresh slice.
func ReplayIntents(r io.Reader) ([]Intent, error) {
	br := bufio.NewReader(r)
	var out []Intent
	head := make([]byte, 1+8+4)
	var body []byte
	for {
		if _, err := io.ReadFull(br, head); err != nil {
			if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
				return out, nil // clean end or torn header
			}
			return out, err
		}
		kind := head[0]
		key := binary.LittleEndian.Uint64(head[1:9])
		nsat := binary.LittleEndian.Uint32(head[9:13])
		if kind < intentInsert || kind > intentCommit || nsat > maxIntentSat {
			return out, nil // corrupt record: treat as torn tail
		}
		n := 8*int(nsat) + 4
		if cap(body) < n {
			body = make([]byte, n)
		}
		body = body[:n]
		if _, err := io.ReadFull(br, body); err != nil {
			if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
				return out, nil // torn body
			}
			return out, err
		}
		sum := crc32.ChecksumIEEE(head)
		sum = crc32.Update(sum, crc32.IEEETable, body[:8*int(nsat)])
		if sum != binary.LittleEndian.Uint32(body[8*int(nsat):]) {
			return out, nil // checksum mismatch: torn or corrupt tail
		}
		if kind == intentCommit {
			continue
		}
		var sat []pdm.Word
		if nsat > 0 {
			sat = make([]pdm.Word, nsat)
			for i := range sat {
				sat[i] = pdm.Word(binary.LittleEndian.Uint64(body[8*i : 8*i+8]))
			}
		}
		out = append(out, Intent{Del: kind == intentDelete, Key: pdm.Word(key), Sat: sat})
	}
}

// ApplyIntents re-applies replayed intents to a backend in log order —
// the recovery path after a crash. The applies are unattributed (nil
// tokens): recovery is not client work.
func ApplyIntents(be Backend, intents []Intent) error {
	for _, in := range intents {
		if in.Del {
			be.DeleteOp(nil, in.Key)
			continue
		}
		if err := be.InsertOp(nil, in.Key, in.Sat); err != nil {
			return err
		}
	}
	return nil
}
