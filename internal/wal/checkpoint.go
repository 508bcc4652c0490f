package wal

import (
	"errors"
	"fmt"

	"dbtoaster/internal/frame"
)

// keepCheckpoints is how many checkpoints the garbage collector retains.
// Keeping two means a checkpoint corrupted in place never strands recovery:
// the log segments needed to replay from the previous one are retained with
// it.
const keepCheckpoints = 2

// gc removes checkpoint files unreachable from the chains rooted at the
// newest keepCheckpoints head LSNs, plus the stale temp files of interrupted
// checkpoint writes. Reachability follows the parent links encoded in delta
// file names, so a retained delta head keeps its whole chain back to its
// base. Segment retention is the log's job (Log.RemoveSegmentsBelow with the
// oldest retained head's LSN, which gc returns — replay from that head needs
// no earlier segment, however old its chain's base is). Best-effort: removal
// errors are returned but the state is usable regardless — recovery tolerates
// extra files.
func gc(fs FS, dir string) (oldestRetained uint64, err error) {
	if fs == nil {
		fs = DiskFS()
	}
	names, err := fs.List(dir)
	if err != nil {
		return 0, fmt.Errorf("wal: list %s: %w", dir, err)
	}
	entries := chainEntries(names)
	keep, oldestHead := chainKeep(entries)
	for _, e := range entries {
		if keep[e.name] {
			continue
		}
		if rerr := fs.Remove(join(dir, e.name)); rerr != nil && err == nil {
			err = rerr
		}
	}
	for _, n := range names {
		if len(n) > 4 && n[len(n)-4:] == ".tmp" {
			if rerr := fs.Remove(join(dir, n)); rerr != nil && err == nil {
				err = rerr
			}
		}
	}
	return oldestHead, err
}

// Recovered is everything Scan reconstructs from a log directory.
type Recovered struct {
	// Chain is the newest valid checkpoint chain, base link first, or nil
	// when recovery starts from an empty engine. Recovery installs the base's
	// full images, patches each delta link in order, then replays the log
	// tail (Replay).
	Chain []*ChainCheckpoint
	// NextLSN is where the writer resumes.
	NextLSN uint64
	// TruncatedTail is true when a torn record was dropped at the log's end —
	// the clean signature of a crash mid-append. TornSegment/TornValidBytes
	// locate the damage for RepairTail.
	TruncatedTail  bool
	TornSegment    string
	TornValidBytes int
	// SkippedCheckpoints names checkpoint files that failed validation and
	// were bypassed in favor of an older one.
	SkippedCheckpoints []string

	// tail holds the payloads of the committed log tail after the chain
	// head, in LSN order: slices of the segment bytes Scan read, each one
	// already decoded whole once.
	tail [][]byte
}

// Replay decodes the committed log tail after the chain head one record at
// a time, in LSN order, and calls fn with each; it stops at fn's first error
// and returns it. Scan decoded every record already, so a directory whose
// tail Scan accepted decodes again without failing. The record passed to fn,
// its events and their tuples live in buffers Replay reuses for the next
// record: they are valid only during fn, which must copy whatever it keeps
// (a string, relation name or value, is immutable and may be kept as is).
func (r *Recovered) Replay(fn func(*Record) error) error {
	var d decoder
	for _, p := range r.tail {
		rec, err := d.decodePayload(p)
		if err != nil {
			return fmt.Errorf("wal: replay: %w", err)
		}
		if err := fn(rec); err != nil {
			return err
		}
	}
	return nil
}

// Scan reads a log directory and reconstructs the recovery plan: the newest
// checkpoint chain that validates whole — head candidates are tried newest
// LSN first (a base before a delta at the same LSN, by chain entry
// ordering), and a chain broken anywhere (CRC, structure, missing parent) is
// skipped in favor of the next older head —
// plus the contiguous committed record tail after the chain head. A record
// that fails validation with valid records after it means corruption and
// fails the scan; a failure with nothing but garbage after it is a torn tail
// and is dropped cleanly. A whole record of an earlier layout (kind 1 or 2)
// fails the scan wherever it sits. An empty or absent directory recovers to
// an empty state.
//
// Scan validates the whole tail before it returns: every record's frame CRC,
// its full payload (decoded through one reused decoder) and its LSN
// continuity. It keeps only the validated payloads, which Replay decodes
// again one record at a time, so a directory Scan refuses is refused before
// any state is installed or replayed, and the tail is never held decoded.
func Scan(fs FS, dir string) (*Recovered, error) {
	if fs == nil {
		fs = DiskFS()
	}
	names, err := fs.List(dir)
	if err != nil {
		// An absent directory is a fresh start, not an error.
		return &Recovered{}, nil
	}

	out := &Recovered{}
	entries := chainEntries(names)
	cache := make(map[string]*ChainCheckpoint)
	for i := len(entries) - 1; i >= 0; i-- {
		chain, cerr := resolveChain(fs, dir, entries, entries[i], cache)
		if cerr != nil {
			out.SkippedCheckpoints = append(out.SkippedCheckpoints, cerr.Error())
			continue
		}
		out.Chain = chain
		break
	}
	base := uint64(0)
	if len(out.Chain) > 0 {
		base = out.Chain[len(out.Chain)-1].LSN
	}

	segs := segmentLSNs(names)
	// Drop segments wholly below the checkpoint: every record in segment i
	// has LSN < segment i+1's first LSN.
	for len(segs) > 1 && segs[1].lsn <= base {
		segs = segs[1:]
	}
	expect := base
	var d decoder
	for si, seg := range segs {
		data, rerr := fs.ReadFile(join(dir, seg.name))
		if rerr != nil {
			return nil, fmt.Errorf("wal: read segment %s: %w", seg.name, rerr)
		}
		last := si == len(segs)-1
		pos := 0
		for pos < len(data) {
			rec, n, derr := d.decodeRecord(data[pos:])
			if derr != nil {
				if errors.Is(derr, errOldFormat) {
					// A whole, checksummed record of an earlier layout: a log
					// from an earlier version, not a torn append.
					return nil, fmt.Errorf("wal: segment %s offset %d: %w", seg.name, pos, derr)
				}
				if !last {
					return nil, fmt.Errorf("wal: segment %s offset %d: corrupt record mid-log: %v", seg.name, pos, derr)
				}
				// Tail failure: a clean crash point only if nothing valid
				// follows. Any decodable record after the damage means the
				// damage is corruption, not a torn append.
				if off := nextValidRecord(data, pos+1); off >= 0 {
					return nil, fmt.Errorf("wal: segment %s offset %d: corrupt record with valid record at offset %d after it: %v",
						seg.name, pos, off, derr)
				}
				out.TruncatedTail = true
				out.TornSegment = seg.name
				out.TornValidBytes = pos
				pos = len(data)
				break
			}
			end := rec.First + uint64(len(rec.Events))
			switch {
			case end <= base:
				// Fully covered by the checkpoint.
			case rec.First < base:
				return nil, fmt.Errorf("wal: segment %s: record [%d,%d) straddles checkpoint LSN %d", seg.name, rec.First, end, base)
			case rec.First != expect:
				return nil, fmt.Errorf("wal: segment %s: LSN gap (expect %d, record starts at %d)", seg.name, expect, rec.First)
			default:
				out.tail = append(out.tail, data[pos+frame.HeaderBytes:pos+n:pos+n])
				expect = end
			}
			pos += n
		}
	}
	out.NextLSN = expect
	return out, nil
}

// RepairTail rewrites the torn segment down to its valid prefix (temp file +
// sync + atomic rename). Recovery must do this before the writer resumes in a
// new segment: once a newer segment exists, the torn one is no longer the
// log's tail, and a later Scan would rightly refuse its garbage as mid-log
// corruption. No-op when the scan found no torn tail.
func (r *Recovered) RepairTail(fs FS, dir string) error {
	if !r.TruncatedTail || r.TornSegment == "" {
		return nil
	}
	if fs == nil {
		fs = DiskFS()
	}
	path := join(dir, r.TornSegment)
	data, err := fs.ReadFile(path)
	if err != nil {
		return fmt.Errorf("wal: repair tail: %w", err)
	}
	if r.TornValidBytes > len(data) {
		return fmt.Errorf("wal: repair tail: segment %s shrank below its valid prefix", r.TornSegment)
	}
	tmp := path + ".tmp"
	f, err := fs.Create(tmp)
	if err != nil {
		return fmt.Errorf("wal: repair tail: %w", err)
	}
	if _, err := f.Write(data[:r.TornValidBytes]); err != nil {
		f.Close()
		return fmt.Errorf("wal: repair tail: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("wal: repair tail: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("wal: repair tail: %w", err)
	}
	if err := fs.Rename(tmp, path); err != nil {
		return fmt.Errorf("wal: repair tail: %w", err)
	}
	return nil
}

// nextValidRecord scans forward from offset from for any position where a
// record decodes cleanly, returning its offset or -1. CRC validation makes a
// false positive on torn garbage astronomically unlikely, so a hit is treated
// as proof that the preceding failure was corruption rather than a crash
// point.
func nextValidRecord(data []byte, from int) int {
	var d decoder
	for off := from; off+frame.HeaderBytes <= len(data); off++ {
		if _, _, err := d.decodeRecord(data[off:]); err == nil {
			return off
		}
	}
	return -1
}
