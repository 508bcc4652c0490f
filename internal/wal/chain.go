package wal

import (
	"encoding/binary"
	"fmt"
	"sort"

	"dbtoaster/internal/frame"
)

// Chain checkpoints make checkpoint cost proportional to what changed: a
// *base* file (`ckpt-<%016x LSN>.base`) holds a full image of every view,
// while a *delta* file (`ckpt-<%016x LSN>-<%016x parent LSN>.delta`) holds,
// per view, either an
// incremental flat-store delta against the view's image at the parent
// checkpoint or (for views whose dirty fraction crossed the threshold) a
// fresh full image. Recovery composes the chain base-first — full images
// install, deltas patch — then replays the log tail after the head's LSN.
//
//	magic "DBTCKPT2", u8 version
//	u8  kind           (1 base, 2 delta)
//	u64 LSN            (logged events reflected at this link)
//	u64 parent LSN     (0 for a base; strictly < LSN for a delta)
//	u64 engine events  (engine's trigger-handled counter at this link)
//	u32 view count
//	per view: u16 name length, name bytes,
//	          u8 payload kind (0 full image, 1 delta),
//	          u64 payload length, payload bytes
//	u32 CRC-32C over everything above (frame.Checksum)
//
// Every link lists every view — a view untouched since the parent appears
// with an empty (pure header) delta payload — so the chain's view set is
// checkable link by link and a missing view is damage, not ambiguity.
//
// The parent LSN is redundantly encoded in the delta's file name so that
// garbage collection can compute chain reachability from a directory listing
// alone, without opening (possibly corrupt) files. A link is written to a
// temporary name, synced, then renamed into place, so a crash mid-write
// leaves at worst a stale temp file and never a half-visible checkpoint
// under the real name. The CRC catches the remaining failure shapes (a torn
// temp rename on a filesystem without atomic-rename durability, or silent
// media corruption): a head whose chain fails validation anywhere — CRC,
// structure, a missing or unreadable parent — is skipped whole and recovery
// falls back to the next older head.

const (
	chainMagic   = "DBTCKPT2"
	chainVersion = 1

	chainKindBase  = 1
	chainKindDelta = 2
)

// ViewPayload is one view's slice of a chain checkpoint: a full flat-store
// image (Delta false) or an incremental delta against the parent link's image
// of the same view (Delta true).
type ViewPayload struct {
	Name  string
	Delta bool
	Data  []byte
}

// ChainCheckpoint is one decoded link of a checkpoint chain.
type ChainCheckpoint struct {
	// LSN is the number of logged events whose effects the link reflects;
	// replay after composing a chain resumes at the head link's LSN.
	LSN uint64
	// ParentLSN is the LSN of the link this one patches; 0 and meaningless
	// for a base link.
	ParentLSN uint64
	// Base marks a full-image link (every payload a full image); a chain is
	// exactly one base followed by zero or more deltas.
	Base bool
	// EngineEvents restores the engine's processed-event counter.
	EngineEvents uint64
	Views        []ViewPayload
}

func chainBaseName(lsn uint64) string { return fmt.Sprintf("ckpt-%016x.base", lsn) }

func chainDeltaName(lsn, parent uint64) string {
	return fmt.Sprintf("ckpt-%016x-%016x.delta", lsn, parent)
}

func (c *ChainCheckpoint) fileName() string {
	if c.Base {
		return chainBaseName(c.LSN)
	}
	return chainDeltaName(c.LSN, c.ParentLSN)
}

func (c *ChainCheckpoint) append(dst []byte) []byte {
	dst = append(dst, chainMagic...)
	dst = append(dst, chainVersion)
	if c.Base {
		dst = append(dst, chainKindBase)
	} else {
		dst = append(dst, chainKindDelta)
	}
	dst = binary.LittleEndian.AppendUint64(dst, c.LSN)
	dst = binary.LittleEndian.AppendUint64(dst, c.ParentLSN)
	dst = binary.LittleEndian.AppendUint64(dst, c.EngineEvents)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(c.Views)))
	for i := range c.Views {
		v := &c.Views[i]
		dst = frame.AppendStr16(dst, v.Name)
		if v.Delta {
			dst = append(dst, 1)
		} else {
			dst = append(dst, 0)
		}
		dst = binary.LittleEndian.AppendUint64(dst, uint64(len(v.Data)))
		dst = append(dst, v.Data...)
	}
	return binary.LittleEndian.AppendUint32(dst, frame.Checksum(dst))
}

// WriteChainCheckpoint atomically publishes one chain link into dir and
// returns its file name and serialized size. It does not garbage-collect;
// see GC.
func WriteChainCheckpoint(fs FS, dir string, c *ChainCheckpoint) (name string, size int, err error) {
	if fs == nil {
		fs = DiskFS()
	}
	if !c.Base && c.ParentLSN >= c.LSN {
		return "", 0, fmt.Errorf("wal: delta checkpoint parent LSN %d not below LSN %d", c.ParentLSN, c.LSN)
	}
	if c.Base {
		for i := range c.Views {
			if c.Views[i].Delta {
				return "", 0, fmt.Errorf("wal: base checkpoint holds delta payload for view %s", c.Views[i].Name)
			}
		}
	}
	name = c.fileName()
	tmp := name + ".tmp"
	buf := c.append(nil)
	f, err := fs.Create(join(dir, tmp))
	if err != nil {
		return "", 0, fmt.Errorf("wal: create checkpoint temp: %w", err)
	}
	if _, err := f.Write(buf); err != nil {
		f.Close()
		return "", 0, fmt.Errorf("wal: write checkpoint: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return "", 0, fmt.Errorf("wal: sync checkpoint: %w", err)
	}
	if err := f.Close(); err != nil {
		return "", 0, fmt.Errorf("wal: close checkpoint: %w", err)
	}
	if err := fs.Rename(join(dir, tmp), join(dir, name)); err != nil {
		return "", 0, fmt.Errorf("wal: publish checkpoint: %w", err)
	}
	return name, len(buf), nil
}

// ReadChainCheckpoint loads and fully validates one chain link. Damage of any
// kind returns a diagnostic error and no link.
func ReadChainCheckpoint(fs FS, dir, name string) (*ChainCheckpoint, error) {
	if fs == nil {
		fs = DiskFS()
	}
	data, err := fs.ReadFile(join(dir, name))
	if err != nil {
		return nil, err
	}
	return decodeChainCheckpoint(data)
}

func decodeChainCheckpoint(data []byte) (*ChainCheckpoint, error) {
	if len(data) < len(chainMagic)+4 {
		return nil, fmt.Errorf("checkpoint truncated (%d bytes)", len(data))
	}
	body, tail := data[:len(data)-4], data[len(data)-4:]
	if got, want := frame.Checksum(body), binary.LittleEndian.Uint32(tail); got != want {
		return nil, fmt.Errorf("checkpoint CRC mismatch (stored %#x, computed %#x)", want, got)
	}
	r := frame.NewReader(body)
	magic := r.Bytes(len(chainMagic), "checkpoint magic")
	version := r.U8("checkpoint version")
	kind := r.U8("checkpoint kind")
	c := &ChainCheckpoint{
		Base:         kind == chainKindBase,
		LSN:          r.U64("LSN"),
		ParentLSN:    r.U64("parent LSN"),
		EngineEvents: r.U64("engine events"),
	}
	nViews := r.U32("view count")
	switch {
	case r.Err() != nil:
		return nil, r.Err()
	case string(magic) != chainMagic:
		return nil, fmt.Errorf("bad checkpoint magic %q", magic)
	case version != chainVersion:
		return nil, fmt.Errorf("unsupported checkpoint version %d", version)
	case kind != chainKindBase && kind != chainKindDelta:
		return nil, fmt.Errorf("unknown checkpoint kind %d", kind)
	case !c.Base && c.ParentLSN >= c.LSN:
		return nil, fmt.Errorf("delta parent LSN %d not below LSN %d", c.ParentLSN, c.LSN)
	case int64(nViews) > int64(r.Remaining()):
		return nil, fmt.Errorf("implausible view count %d", nViews)
	}
	c.Views = make([]ViewPayload, 0, nViews)
	for i := 0; i < int(nViews); i++ {
		name := r.Str16("view name")
		payloadKind := r.U8("payload kind")
		n := r.U64("payload length")
		switch {
		case r.Err() != nil:
			return nil, fmt.Errorf("view %d: %w", i, r.Err())
		case payloadKind > 1:
			return nil, fmt.Errorf("view %s: bad payload kind %d", name, payloadKind)
		case payloadKind == 1 && c.Base:
			return nil, fmt.Errorf("view %s: delta payload inside base checkpoint", name)
		case n > uint64(r.Remaining()):
			return nil, fmt.Errorf("view %s: payload length %d exceeds remaining %d bytes", name, n, r.Remaining())
		}
		c.Views = append(c.Views, ViewPayload{Name: name, Delta: payloadKind == 1, Data: r.Bytes(int(n), "view payload")})
	}
	if err := r.Done("checkpoint"); err != nil {
		return nil, err
	}
	return c, nil
}

// chainEntry is one checkpoint file recognized in a directory listing.
type chainEntry struct {
	name   string
	lsn    uint64
	parent uint64 // delta links only
	base   bool
}

// chainEntries parses a directory listing into recognized checkpoint files,
// sorted by LSN ascending — iterate backwards for newest-first head
// candidates. A forced checkpoint at an unchanged LSN can legitimately
// publish a base next to an older delta: the base is self-sufficient where
// the delta needs its chain, so it sorts after the delta and heads and
// parents resolve base first.
func chainEntries(names []string) []chainEntry {
	var out []chainEntry
	for _, n := range names {
		if lsn, ok := parseLSNName(n, "ckpt-", ".base"); ok {
			out = append(out, chainEntry{name: n, lsn: lsn, base: true})
			continue
		}
		if lsn, parent, ok := parseDeltaName(n); ok && parent < lsn {
			out = append(out, chainEntry{name: n, lsn: lsn, parent: parent})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].lsn != out[j].lsn {
			return out[i].lsn < out[j].lsn
		}
		return !out[i].base && out[j].base
	})
	return out
}

func parseDeltaName(name string) (lsn, parent uint64, ok bool) {
	const prefix, suffix = "ckpt-", ".delta"
	if len(name) != len(prefix)+16+1+16+len(suffix) ||
		name[:len(prefix)] != prefix || name[len(name)-len(suffix):] != suffix {
		return 0, 0, false
	}
	hex := name[len(prefix) : len(name)-len(suffix)]
	if hex[16] != '-' {
		return 0, 0, false
	}
	lsn, ok1 := parseHex16(hex[:16])
	parent, ok2 := parseHex16(hex[17:])
	return lsn, parent, ok1 && ok2
}

func parseHex16(s string) (uint64, bool) {
	var v uint64
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c >= '0' && c <= '9':
			v = v<<4 | uint64(c-'0')
		case c >= 'a' && c <= 'f':
			v = v<<4 | uint64(c-'a'+10)
		default:
			return 0, false
		}
	}
	return v, true
}

// findParent locates the entry a delta should chain to: the file at exactly
// the parent LSN, a base before a delta.
func findParent(entries []chainEntry, lsn uint64) (chainEntry, bool) {
	best := -1
	for i := range entries {
		if entries[i].lsn == lsn && (best < 0 || entries[i].base) {
			best = i
		}
	}
	if best < 0 {
		return chainEntry{}, false
	}
	return entries[best], true
}

// readChainEntry decodes one checkpoint file into a chain link, memoizing by
// file name so overlapping chains read each file once.
func readChainEntry(fs FS, dir string, e chainEntry, cache map[string]*ChainCheckpoint) (*ChainCheckpoint, error) {
	if c, ok := cache[e.name]; ok {
		if c == nil {
			return nil, fmt.Errorf("previously failed validation")
		}
		return c, nil
	}
	c, err := ReadChainCheckpoint(fs, dir, e.name)
	// The name is the GC layer's metadata; a file whose contents disagree
	// with its name is damage.
	if err == nil && (c.LSN != e.lsn || c.Base != e.base || (!c.Base && c.ParentLSN != e.parent)) {
		err = fmt.Errorf("checkpoint contents disagree with file name")
		c = nil
	}
	cache[e.name] = c
	return c, err
}

// resolveChain walks parent links from a head candidate down to a base,
// returning the chain base-first, or an error naming the broken link.
func resolveChain(fs FS, dir string, entries []chainEntry, head chainEntry, cache map[string]*ChainCheckpoint) ([]*ChainCheckpoint, error) {
	var rev []*ChainCheckpoint
	cur := head
	for {
		c, err := readChainEntry(fs, dir, cur, cache)
		if err != nil {
			return nil, fmt.Errorf("%s: %v", cur.name, err)
		}
		rev = append(rev, c)
		if c.Base {
			break
		}
		parent, ok := findParent(entries, c.ParentLSN)
		if !ok {
			return nil, fmt.Errorf("%s: parent checkpoint at LSN %d missing", cur.name, c.ParentLSN)
		}
		cur = parent
	}
	chain := make([]*ChainCheckpoint, len(rev))
	for i, c := range rev {
		chain[len(rev)-1-i] = c
	}
	return chain, nil
}

// chainKeep returns the file names GC must retain for the chains rooted at
// the newest two distinct head LSNs, plus the older of those two head LSNs
// (the replay floor for segment retention). Reachability is computed from
// file names alone — parent links are encoded in delta file names — so GC
// never needs to open a possibly-corrupt file. A delta whose parent is
// missing keeps its reachable suffix; Scan will skip the broken head and GC
// will converge on removing it once a newer chain exists.
func chainKeep(entries []chainEntry) (keep map[string]bool, oldestHead uint64) {
	keep = make(map[string]bool)
	if len(entries) == 0 {
		return keep, 0
	}
	heads := 0
	lastLSN := uint64(0)
	for i := len(entries) - 1; i >= 0 && heads < keepCheckpoints; i-- {
		e := entries[i]
		if heads > 0 && e.lsn == lastLSN {
			continue // a less-preferred file at an already-kept head LSN
		}
		heads++
		lastLSN = e.lsn
		oldestHead = e.lsn
		// Walk the chain by file-name metadata.
		cur := e
		for {
			if keep[cur.name] {
				break
			}
			keep[cur.name] = true
			if cur.base {
				break
			}
			parent, ok := findParent(entries, cur.parent)
			if !ok {
				break
			}
			cur = parent
		}
	}
	return keep, oldestHead
}
