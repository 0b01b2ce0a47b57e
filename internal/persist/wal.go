package persist

import (
	"hash/crc32"
	"os"
)

// WAL record framing: magic u32, payload length u32, ticket u64,
// payload bytes, CRC-32C u32 over (ticket || payload). Records are
// appended and fsync'd one at a time; a crash mid-append leaves a torn
// tail that ReadWAL truncates away, so the prefix of fully-fsync'd
// records is exactly what recovery replays.
const walRecMagic = 0x31524457 // "WDR1" little-endian

// WAL is an append-only write-ahead-log segment. Append durability is
// per-record: the record is fully written and fsync'd before Append
// returns, which callers rely on to order "logged" before "published".
type WAL struct {
	f   *os.File
	inj Injector
}

// SetInjector installs an I/O fault injector consulted at OpWALAppend
// (before the record write) and OpWALSync (before the fsync). Nil
// disables injection. Not safe to call concurrently with Append.
func (w *WAL) SetInjector(inj Injector) { w.inj = inj }

// CreateWAL creates (or truncates) a WAL segment. The caller should
// SyncDir the parent directory if the segment's existence must be
// durable immediately.
func CreateWAL(path string) (*WAL, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, err
	}
	return &WAL{f: f}, nil
}

// OpenWALAppend opens an existing segment (creating it if absent) for
// further appends after recovery. Any torn tail left by a crash is
// trimmed first so new records start on a clean record boundary.
func OpenWALAppend(path string) (*WAL, error) {
	valid, err := validWALPrefix(path)
	if err != nil && !os.IsNotExist(err) {
		return nil, err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, err
	}
	if err := f.Truncate(valid); err != nil {
		f.Close()
		return nil, err
	}
	if _, err := f.Seek(valid, 0); err != nil {
		f.Close()
		return nil, err
	}
	return &WAL{f: f}, nil
}

// Append writes one record and fsyncs the segment. On return the
// record is durable; on error the segment may hold a torn tail, which
// the next recovery truncates.
func (w *WAL) Append(ticket uint64, payload []byte) error {
	if err := inject(w.inj, OpWALAppend); err != nil {
		return err
	}
	var b Buf
	b.U32(walRecMagic)
	b.U32(uint32(len(payload)))
	b.U64(ticket)
	b.b = append(b.b, payload...)
	var crcBuf Buf
	crcBuf.U64(ticket)
	crc := crc32.Update(crc32.Checksum(crcBuf.Bytes(), castagnoli), castagnoli, payload)
	b.U32(crc)
	if _, err := w.f.Write(b.Bytes()); err != nil {
		return err
	}
	return w.Sync()
}

// Sync fsyncs the segment.
func (w *WAL) Sync() error {
	if err := inject(w.inj, OpWALSync); err != nil {
		return err
	}
	return w.f.Sync()
}

// Close closes the segment file.
func (w *WAL) Close() error { return w.f.Close() }

// WALRecord is one recovered log record.
type WALRecord struct {
	Ticket  uint64
	Payload []byte
}

// ReadWAL returns the valid record prefix of a segment. A torn or
// corrupt tail ends the scan without error — those bytes were never
// acknowledged as durable. A missing file reads as an empty segment.
func ReadWAL(path string) ([]WALRecord, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, err
	}
	recs, _ := scanWAL(data)
	return recs, nil
}

// validWALPrefix returns the byte length of the valid record prefix.
func validWALPrefix(path string) (int64, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return 0, err
	}
	_, n := scanWAL(data)
	return int64(n), nil
}

// scanWAL walks records until the first torn or corrupt one, returning
// the valid records and the byte length of the valid prefix.
func scanWAL(data []byte) ([]WALRecord, int) {
	var recs []WALRecord
	off := 0
	for {
		r := NewRd(data[off:])
		magic := r.U32("wal magic")
		n := r.U32("wal length")
		ticket := r.U64("wal ticket")
		if r.Err() != nil || magic != walRecMagic {
			return recs, off
		}
		payload := r.take(int(n), "wal payload")
		crc := r.U32("wal crc")
		if r.Err() != nil {
			return recs, off
		}
		var crcBuf Buf
		crcBuf.U64(ticket)
		want := crc32.Update(crc32.Checksum(crcBuf.Bytes(), castagnoli), castagnoli, payload)
		if crc != want {
			return recs, off
		}
		recs = append(recs, WALRecord{Ticket: ticket, Payload: payload})
		off += r.off
	}
}
