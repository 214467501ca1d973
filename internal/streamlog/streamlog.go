// Package streamlog is the durable half of the stream fabric: a
// segmented, append-only log of every timestep a stream publishes,
// framed with the same length+CRC record layout the TCP transport uses
// on the wire. The flexpath broker writes behind the in-memory queue —
// a step is framed to the active segment before retirement is allowed
// to recycle its pooled buffers — so a broker that crashes can rebuild
// its stream state from the log and in-flight workflows resume through
// the ordinary detach/re-attach path. The same log doubles as a replay
// substrate: a catch-up reader opened at step K serves historical steps
// from segment reads and hands off to live tailing at the log head.
//
// On-disk layout: one directory per stream under the store root, with
// numbered segment files (00000000.seg, 00000001.seg, …). Each record
// is
//
//	u32 length   (type byte + body, little-endian)
//	u32 crc      (CRC-32/IEEE over type byte + body)
//	u8  type     (recConfig | recStepV2 | recRetire | recEnd; recStep read-only)
//	body
//
// A step record (recStepV2) carries one full timestep:
//
//	u32 step, u32 nranks
//	per rank: u32 metaLen, meta, u32 payLen, u8 pad, pad zero bytes, payload
//
// pad (0–7) places every payload at an 8-byte file offset. Sealed
// segments are served from page-aligned mmaps and the copying path
// keeps file alignment in memory, so a payload read back is 8-byte
// aligned and an SBP2 frame decodes its float blocks in place. The
// writer copies no payload: it lays out only a record's framing and
// metas in one reused buffer, computes the CRC over those runs and the
// caller's payload slices in file order, and writes each run with its
// own WriteAt, about two per writer rank. The original step layout,
// recStep (the same body without the pad byte and padding), is still
// read but never written: its payloads sit at arbitrary offsets, so
// decoding them copies once.
//
// Every segment opens with a recConfig record carrying the stream's
// writer-group size and queue depth, so any single segment is
// self-describing. Torn tails — a crash mid-write — are healed on open:
// the scan keeps the longest valid prefix, truncates the segment at the
// first invalid record, and drops any later segments.
//
// Retention is by whole segments, and never evicts a step the broker
// has not retired: a segment is removable only once its highest step
// has a retire record, and only when the configured step- or byte-
// budget is exceeded. Reads below the retention horizon get ErrEvicted.
//
// The package is dependency-free below the standard library;
// observability (spans, counters) is the broker's job.
package streamlog

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// Record types. recConfig opens every segment; recStepV2 carries one
// full timestep (all writer ranks) with 8-byte-aligned payloads, and
// recStep is its unpadded predecessor, read but no longer written;
// recRetire and recEnd journal the broker's retirement watermark and
// graceful stream end.
const (
	recConfig byte = 1
	recStep   byte = 2
	recRetire byte = 3
	recEnd    byte = 4
	recStepV2 byte = 5
)

const (
	// recHeader is the fixed prefix of every record: u32 length + u32 CRC.
	recHeader = 8
	// recFrame is the header plus the type byte: where a record's body
	// starts.
	recFrame = recHeader + 1
	// maxRecord bounds a record's length field, mirroring the wire
	// codec's frame cap: anything larger is corruption, not data.
	maxRecord = 1 << 30
	// configVersion versions the recConfig body.
	configVersion = 1
	// DefaultSegmentBytes is the roll-over threshold used when
	// Options.SegmentBytes is zero.
	DefaultSegmentBytes = 64 << 20
	// segSuffix names segment files.
	segSuffix = ".seg"
)

// Errors.
var (
	// ErrEvicted is returned by ReadStep for a step below the retention
	// horizon: it was durably logged once, then reclaimed by the
	// step/byte budget after the broker retired it.
	ErrEvicted = errors.New("streamlog: step evicted by retention")
	// ErrClosed is returned by operations on a closed log.
	ErrClosed = errors.New("streamlog: log closed")
	// ErrReadOnly is returned by every mutating operation on a log
	// opened with Options.ReadOnly.
	ErrReadOnly = errors.New("streamlog: log is read-only")
)

// FsyncMode selects when appends reach stable storage.
type FsyncMode int

const (
	// FsyncNone leaves flushing to the OS page cache: fastest, loses the
	// unsynced tail on power failure (the torn-tail scan heals it).
	FsyncNone FsyncMode = iota
	// FsyncStep fsyncs the active segment after every appended record —
	// a published step survives anything short of media failure.
	FsyncStep
)

// String renders the mode as its flag spelling.
func (m FsyncMode) String() string {
	if m == FsyncStep {
		return "step"
	}
	return "none"
}

// ParseFsync parses a -log-fsync flag value.
func ParseFsync(s string) (FsyncMode, error) {
	switch s {
	case "none", "":
		return FsyncNone, nil
	case "step":
		return FsyncStep, nil
	}
	return FsyncNone, fmt.Errorf("streamlog: unknown fsync mode %q (want none or step)", s)
}

// Options configures a log (and every log of a store).
type Options struct {
	// SegmentBytes is the size at which the active segment rolls over;
	// 0 selects DefaultSegmentBytes. A single oversized record still
	// lands in one segment.
	SegmentBytes int64
	// RetainSteps keeps at least the last RetainSteps steps readable;
	// older retired segments become evictable. 0 = retain everything.
	RetainSteps int
	// RetainBytes evicts oldest retired segments while the log exceeds
	// this many bytes. 0 = no byte budget.
	RetainBytes int64
	// Fsync is the durability policy for appends.
	Fsync FsyncMode
	// NoMmap disables the mmap'd read path for sealed segments:
	// ReadStepView then always copies via pread, exactly like ReadStep.
	// Platforms without shared file mappings imply it.
	NoMmap bool
	// ReadOnly opens the log without the ability — or the need — to
	// mutate anything: segment files open O_RDONLY, a torn tail is
	// tolerated in place instead of healed by truncation, no directory is
	// created, and every mutating method returns ErrReadOnly. This is the
	// mode offline replay uses: a recorded run must come back from a
	// replay byte-for-byte untouched. As a bonus the final segment is
	// sealed by definition (nothing will ever append), so even it serves
	// mmap views.
	ReadOnly bool
}

func (o Options) segmentBytes() int64 {
	if o.SegmentBytes <= 0 {
		return DefaultSegmentBytes
	}
	return o.SegmentBytes
}

// Config is the stream configuration journaled at the head of every
// segment — what a recovering broker needs to rebuild the stream.
type Config struct {
	WriterSize int
	QueueDepth int
}

// segment is one on-disk log file.
type segment struct {
	seq     int
	path    string
	f       *os.File
	size    int64
	minStep int // lowest step record in this segment, -1 if none
	maxStep int // highest step record, -1 if none

	// Read-only mapping of a sealed segment (ReadStepView). refs counts
	// outstanding views; pendingUnmap defers the munmap of an evicted or
	// closed segment until the last view releases. mapBroken remembers a
	// failed mmap so the segment permanently falls back to pread.
	mem          []byte
	refs         int
	pendingUnmap bool
	mapBroken    bool
}

// stepLoc locates one step record.
type stepLoc struct {
	seg *segment
	off int64
}

// Log is the durable journal of one stream. All methods are safe for
// concurrent use.
type Log struct {
	mu     sync.Mutex
	dir    string
	opts   Options
	closed bool

	cfg     Config
	haveCfg bool

	segs    []*segment // ascending seq; last is the active segment
	nextSeq int
	index   map[int]stepLoc
	total   int64 // bytes across all live segments

	firstStep   int // lowest readable step (evicted below)
	nextStep    int // next step Append accepts
	lastRetired int // highest retired step, -1 if none
	ended       bool
	lastStep    int // valid once ended

	views int // outstanding ReadStepView mmap views (leak accounting)

	scratch []byte   // framing assembly buffer, reused across appends
	runs    [][]byte // a step record's write runs, reused across appends
}

// OpenLog opens (or creates) the log rooted at dir, healing any torn
// tail left by a crash: the scan keeps the longest valid record prefix,
// truncates the first damaged segment at its last valid record, and
// drops later segments entirely.
func OpenLog(dir string, opts Options) (*Log, error) {
	if opts.ReadOnly {
		info, err := os.Stat(dir)
		if err != nil {
			return nil, fmt.Errorf("streamlog: %w", err)
		}
		if !info.IsDir() {
			return nil, fmt.Errorf("streamlog: %s is not a directory", dir)
		}
	} else if err := os.MkdirAll(dir, 0o777); err != nil {
		return nil, fmt.Errorf("streamlog: %w", err)
	}
	l := &Log{
		dir:         dir,
		opts:        opts,
		index:       make(map[int]stepLoc),
		lastRetired: -1,
	}
	if err := l.scan(); err != nil {
		l.Close()
		return nil, err
	}
	return l, nil
}

// listSegments returns the segment files under dir in ascending
// sequence order.
func listSegments(dir string) ([]int, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("streamlog: %w", err)
	}
	var seqs []int
	for _, e := range ents {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, segSuffix) {
			continue
		}
		n, err := strconv.Atoi(strings.TrimSuffix(name, segSuffix))
		if err != nil || n < 0 {
			continue // foreign file; leave it alone
		}
		seqs = append(seqs, n)
	}
	sort.Ints(seqs)
	return seqs, nil
}

func segPath(dir string, seq int) string {
	return filepath.Join(dir, fmt.Sprintf("%08d%s", seq, segSuffix))
}

// scan replays every segment into the in-memory index, healing torn
// tails. Called once from OpenLog; no lock needed.
func (l *Log) scan() error {
	seqs, err := listSegments(l.dir)
	if err != nil {
		return err
	}
	sawStep := false
	var buf []byte
	mode := os.O_RDWR
	if l.opts.ReadOnly {
		mode = os.O_RDONLY
	}
	for i, seq := range seqs {
		seg := &segment{seq: seq, path: segPath(l.dir, seq), minStep: -1, maxStep: -1}
		f, err := os.OpenFile(seg.path, mode, 0)
		if err != nil {
			return fmt.Errorf("streamlog: %w", err)
		}
		seg.f = f
		valid, clean, err := l.scanSegment(seg, &buf)
		if err != nil {
			return err
		}
		l.segs = append(l.segs, seg)
		l.total += valid
		if seg.minStep >= 0 && !sawStep {
			l.firstStep = seg.minStep
			sawStep = true
		}
		if !clean {
			// Torn tail: truncate this segment at its last valid record
			// and drop every later segment — records beyond the tear are
			// not trustworthy even if individually CRC-clean. A read-only
			// open must leave the recording exactly as found, so it keeps
			// the valid prefix indexed and simply stops scanning: same
			// view of the data, no disk mutation.
			if l.opts.ReadOnly {
				break
			}
			if err := f.Truncate(valid); err != nil {
				return fmt.Errorf("streamlog: healing %s: %w", seg.path, err)
			}
			for _, later := range seqs[i+1:] {
				if err := os.Remove(segPath(l.dir, later)); err != nil {
					return fmt.Errorf("streamlog: dropping segment past tear: %w", err)
				}
			}
			break
		}
	}
	if len(l.segs) > 0 {
		l.nextSeq = l.segs[len(l.segs)-1].seq + 1
	}
	// If retention evicted every step-holding segment, the surviving
	// retire/end records still pin the resume point: eviction requires
	// retirement, so no evicted step can exceed lastRetired.
	if l.lastRetired+1 > l.nextStep {
		l.nextStep = l.lastRetired + 1
	}
	if l.ended && l.lastStep+1 > l.nextStep {
		l.nextStep = l.lastStep + 1
	}
	if !sawStep {
		l.firstStep = l.nextStep
	}
	return nil
}

// scanSegment reads seg's records in order, applying each to the log
// state. It returns the byte offset of the end of the last valid
// record and whether the segment ended cleanly (no torn tail). buf is
// the scan's body buffer, shared by every segment of one open so a
// recording of many segments allocates it once.
func (l *Log) scanSegment(seg *segment, buf *[]byte) (valid int64, clean bool, err error) {
	info, err := seg.f.Stat()
	if err != nil {
		return 0, false, fmt.Errorf("streamlog: %w", err)
	}
	size := info.Size()
	var off int64
	hdr := make([]byte, recHeader)
	for off < size {
		if size-off < recHeader {
			return off, false, nil
		}
		if _, err := seg.f.ReadAt(hdr, off); err != nil {
			return off, false, nil
		}
		n := int64(binary.LittleEndian.Uint32(hdr[0:4]))
		want := binary.LittleEndian.Uint32(hdr[4:8])
		if n < 1 || n > maxRecord || off+recHeader+n > size {
			return off, false, nil
		}
		if int64(cap(*buf)) < n {
			*buf = make([]byte, n)
		}
		body := (*buf)[:n]
		if _, err := seg.f.ReadAt(body, off+recHeader); err != nil {
			return off, false, nil
		}
		if crc32.ChecksumIEEE(body) != want {
			return off, false, nil
		}
		if !l.applyRecord(seg, off, body[0], body[1:]) {
			return off, false, nil
		}
		off += recHeader + n
		seg.size = off
	}
	return off, true, nil
}

// applyRecord folds one scanned record into the log state. A
// structurally invalid record (CRC-clean but malformed) reports false,
// which the scan treats as a tear at this offset.
func (l *Log) applyRecord(seg *segment, off int64, typ byte, body []byte) bool {
	switch typ {
	case recConfig:
		cfg, ok := decodeConfig(body)
		if !ok {
			return false
		}
		if l.haveCfg && cfg != l.cfg {
			return false // a stream's config never changes mid-log
		}
		l.cfg, l.haveCfg = cfg, true
	case recStep, recStepV2:
		step, _, _, ok := decodeStep(typ, body)
		if !ok || (len(l.index) > 0 && step != l.nextStep) {
			return false
		}
		l.index[step] = stepLoc{seg: seg, off: off}
		if seg.minStep < 0 {
			seg.minStep = step
		}
		seg.maxStep = step
		l.nextStep = step + 1
	case recRetire:
		if len(body) != 4 {
			return false
		}
		if step := int(binary.LittleEndian.Uint32(body)); step > l.lastRetired {
			l.lastRetired = step
		}
	case recEnd:
		if len(body) != 4 {
			return false
		}
		l.ended = true
		l.lastStep = int(binary.LittleEndian.Uint32(body)) - 1
	default:
		return false
	}
	return true
}

func decodeConfig(body []byte) (Config, bool) {
	if len(body) < 12 {
		return Config{}, false
	}
	if binary.LittleEndian.Uint32(body[0:4]) != configVersion {
		return Config{}, false
	}
	cfg := Config{
		WriterSize: int(binary.LittleEndian.Uint32(body[4:8])),
		QueueDepth: int(binary.LittleEndian.Uint32(body[8:12])),
	}
	if cfg.WriterSize < 1 || cfg.WriterSize > 1<<16 ||
		cfg.QueueDepth < 1 || cfg.QueueDepth > 1<<16 {
		return Config{}, false
	}
	return cfg, true
}

func encodeConfig(cfg Config) []byte {
	b := make([]byte, 0, 12)
	b = binary.LittleEndian.AppendUint32(b, configVersion)
	b = binary.LittleEndian.AppendUint32(b, uint32(cfg.WriterSize))
	b = binary.LittleEndian.AppendUint32(b, uint32(cfg.QueueDepth))
	return b
}

// decodeStep parses a step record body of type typ: u32 step, u32
// nranks, then per rank u32 meta length + meta and u32 payload length +
// payload — with, in a recStepV2 body, a u8 pad count (at most 7) and
// that many zero bytes between a payload's length and its bytes.
// Defensive against CRC-clean garbage: every length is bounds-checked.
func decodeStep(typ byte, body []byte) (step int, metas, payloads [][]byte, ok bool) {
	if (typ != recStep && typ != recStepV2) || len(body) < 8 {
		return 0, nil, nil, false
	}
	step = int(binary.LittleEndian.Uint32(body[0:4]))
	nranks := int(binary.LittleEndian.Uint32(body[4:8]))
	// Each rank needs at least two length prefixes, so nranks is bounded
	// by the body itself — checked before allocating rank slices.
	if nranks < 1 || nranks > 1<<16 || nranks*8 > len(body)-8 {
		return 0, nil, nil, false
	}
	rest := body[8:]
	metas = make([][]byte, nranks)
	payloads = make([][]byte, nranks)
	for i := 0; i < nranks; i++ {
		if metas[i], rest, ok = cutBlob(rest, false); !ok {
			return 0, nil, nil, false
		}
		if payloads[i], rest, ok = cutBlob(rest, typ == recStepV2); !ok {
			return 0, nil, nil, false
		}
	}
	if len(rest) != 0 {
		return 0, nil, nil, false
	}
	return step, metas, payloads, true
}

// cutBlob splits one length-prefixed blob off the front of b; a padded
// blob has its u8 pad count and zero padding between length and bytes.
func cutBlob(b []byte, padded bool) (blob, rest []byte, ok bool) {
	if len(b) < 4 {
		return nil, nil, false
	}
	n := int(binary.LittleEndian.Uint32(b[0:4]))
	b = b[4:]
	if padded {
		if len(b) < 1 || b[0] > 7 || int(b[0]) >= len(b) {
			return nil, nil, false
		}
		pad := b[1 : 1+int(b[0])]
		for _, z := range pad {
			if z != 0 {
				return nil, nil, false
			}
		}
		b = b[1+len(pad):]
	}
	if n < 0 || n > len(b) {
		return nil, nil, false
	}
	return b[:n], b[n:], true
}

// stepRecordLen is the exact framed length of the recStepV2 record of
// one step when the record starts at file offset base: the padding, and
// so the length, depends on where the record lands.
func stepRecordLen(base int64, metas, payloads [][]byte) int64 {
	off := base + recFrame + 8
	for i := range metas {
		off += 4 + int64(len(metas[i])) + 5
		off += pad8(off) + int64(len(payloads[i]))
	}
	return off - base
}

// putStepHeads lays out the recStepV2 record of one step starting at
// file offset base, except its payloads: heads receives the frame
// (filled in later by writeRecord), the step header, and per rank the
// meta length, meta, payload length, pad byte and zero padding. heads
// is exactly stepRecordLen minus the payload bytes long, so every pad
// byte is written explicitly. The record is returned appended to runs
// as the byte runs to write in file order: stretches of heads
// alternating with the caller's payloads, each empty payload folded
// away so the stretches around it merge.
func putStepHeads(heads []byte, base int64, step int, metas, payloads [][]byte, runs [][]byte) [][]byte {
	binary.LittleEndian.PutUint32(heads[recFrame:], uint32(step))
	binary.LittleEndian.PutUint32(heads[recFrame+4:], uint32(len(metas)))
	p, from := recFrame+8, 0
	at := base // at+p is the file offset of heads[p]; payloads push it on
	for i := range metas {
		binary.LittleEndian.PutUint32(heads[p:], uint32(len(metas[i])))
		p += 4
		p += copy(heads[p:], metas[i])
		binary.LittleEndian.PutUint32(heads[p:], uint32(len(payloads[i])))
		pad := int(pad8(at + int64(p) + 5))
		heads[p+4] = byte(pad)
		p += 5
		clear(heads[p : p+pad])
		p += pad
		if len(payloads[i]) > 0 {
			runs = append(runs, heads[from:p], payloads[i])
			from = p
			at += int64(len(payloads[i]))
		}
	}
	if from < len(heads) {
		runs = append(runs, heads[from:])
	}
	return runs
}

// pad8 is how many bytes follow offset n to reach an 8-byte boundary.
func pad8(n int64) int64 { return -n & 7 }

// SetConfig journals the stream configuration. It must be called before
// the first Append; calling again with the same values is a no-op, with
// different values an error (a stream's shape is immutable).
func (l *Log) SetConfig(cfg Config) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.writable(); err != nil {
		return err
	}
	if cfg.WriterSize < 1 || cfg.QueueDepth < 1 {
		return fmt.Errorf("streamlog: invalid config %+v", cfg)
	}
	if l.haveCfg {
		if cfg != l.cfg {
			return fmt.Errorf("streamlog: config conflict: have %+v, got %+v", l.cfg, cfg)
		}
		return nil
	}
	l.cfg, l.haveCfg = cfg, true
	return nil
}

// Config returns the journaled stream configuration, if any.
func (l *Log) Config() (Config, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.cfg, l.haveCfg
}

// Append journals one fully published timestep: every writer rank's
// metadata and payload blob. Steps must be appended densely in order —
// step must equal NextStep. Payloads are written from the caller's
// slices, never copied: the log's reused buffer holds only the framing
// and the metas, and the record goes to disk as one WriteAt per run,
// about two per rank. The caller keeps ownership; Append does not hold
// any blob past its return. A failed write leaves NextStep, the index
// and the segment's size as they were; the partial record past the
// segment's end is overwritten by the next append or healed on open.
func (l *Log) Append(step int, metas, payloads [][]byte) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.writable(); err != nil {
		return err
	}
	if !l.haveCfg {
		return errors.New("streamlog: Append before SetConfig")
	}
	if len(metas) != l.cfg.WriterSize || len(payloads) != l.cfg.WriterSize {
		return fmt.Errorf("streamlog: step %d has %d/%d blobs, writer size is %d",
			step, len(metas), len(payloads), l.cfg.WriterSize)
	}
	if step != l.nextStep {
		return fmt.Errorf("streamlog: append of step %d, expected %d", step, l.nextStep)
	}
	seg, n, err := l.segmentFor(func(base int64) int64 { return stepRecordLen(base, metas, payloads) })
	if err != nil {
		return err
	}
	for _, p := range payloads {
		n -= int64(len(p))
	}
	l.runs = putStepHeads(l.frame(n), seg.size, step, metas, payloads, l.runs[:0])
	off, err := l.writeRecord(seg, recStepV2, l.runs...)
	clear(l.runs) // hold no caller payload past the return
	if err != nil {
		return err
	}
	l.index[step] = stepLoc{seg: seg, off: off}
	if seg.minStep < 0 {
		seg.minStep = step
	}
	seg.maxStep = step
	if len(l.index) == 1 {
		l.firstStep = step
	}
	l.nextStep = step + 1
	return l.afterAppend()
}

// AppendRetire journals that the broker retired every step up to and
// including step — the marker that makes older segments evictable.
func (l *Log) AppendRetire(step int) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.writable(); err != nil {
		return err
	}
	if err := l.appendRecord(recRetire, uint32(step)); err != nil {
		return err
	}
	if step > l.lastRetired {
		l.lastRetired = step
	}
	return l.afterAppend()
}

// AppendEnd journals the stream's graceful end at lastStep (the highest
// step all writer ranks published; -1 for an empty stream).
func (l *Log) AppendEnd(lastStep int) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.writable(); err != nil {
		return err
	}
	if err := l.appendRecord(recEnd, uint32(lastStep+1)); err != nil {
		return err
	}
	l.ended, l.lastStep = true, lastStep
	return l.afterAppend()
}

// writable rejects mutation on a closed or read-only log. Caller holds
// the lock.
func (l *Log) writable() error {
	if l.closed {
		return ErrClosed
	}
	if l.opts.ReadOnly {
		return ErrReadOnly
	}
	return nil
}

// afterAppend applies the fsync policy and retention budget. Caller
// holds the lock.
func (l *Log) afterAppend() error {
	if l.opts.Fsync == FsyncStep {
		if err := l.segs[len(l.segs)-1].f.Sync(); err != nil {
			return fmt.Errorf("streamlog: %w", err)
		}
	}
	return l.evict()
}

// appendRecord frames a retire or end record — a u32 body — onto the
// active segment, rolling first when it would overflow. Caller holds
// the lock.
func (l *Log) appendRecord(typ byte, v uint32) error {
	seg, n, err := l.segmentFor(func(int64) int64 { return recFrame + 4 })
	if err != nil {
		return err
	}
	rec := l.frame(n)
	binary.LittleEndian.PutUint32(rec[recFrame:], v)
	_, err = l.writeRecord(seg, typ, rec)
	return err
}

// segmentFor picks the segment the next record lands in and returns the
// record's exact framed length there; recLen reports that length for a
// record starting at a given file offset. A record that would push a
// non-empty active segment past the roll threshold rolls to a fresh
// segment first, and its length is recomputed at the new offset.
// Caller holds the lock.
func (l *Log) segmentFor(recLen func(base int64) int64) (*segment, int64, error) {
	seg := l.activeSegment()
	var base int64
	if seg != nil {
		base = seg.size
	}
	n := recLen(base)
	if n-recHeader <= maxRecord && (seg == nil || (seg.size > 0 && seg.size+n > l.opts.segmentBytes())) {
		var err error
		if seg, err = l.roll(); err != nil {
			return nil, 0, err
		}
		n = recLen(seg.size)
	}
	if n-recHeader > maxRecord {
		return nil, 0, fmt.Errorf("streamlog: record of %d bytes exceeds limit", n-recFrame)
	}
	return seg, n, nil
}

func (l *Log) activeSegment() *segment {
	if len(l.segs) == 0 {
		return nil
	}
	return l.segs[len(l.segs)-1]
}

// roll opens a fresh segment and journals the config record at its
// head, making every segment self-describing. Caller holds the lock.
func (l *Log) roll() (*segment, error) {
	seg := &segment{seq: l.nextSeq, path: segPath(l.dir, l.nextSeq), minStep: -1, maxStep: -1}
	f, err := os.OpenFile(seg.path, os.O_RDWR|os.O_CREATE|os.O_EXCL, 0o666)
	if err != nil {
		return nil, fmt.Errorf("streamlog: %w", err)
	}
	seg.f = f
	l.nextSeq++
	l.segs = append(l.segs, seg)
	if l.haveCfg {
		body := encodeConfig(l.cfg)
		rec := l.frame(recFrame + int64(len(body)))
		copy(rec[recFrame:], body)
		if _, err := l.writeRecord(seg, recConfig, rec); err != nil {
			return nil, err
		}
	}
	return seg, nil
}

// frame returns the log's reused buffer sized to n bytes: a whole
// record, or a step record's runs around its payloads. The caller lays
// the body out at [recFrame:]; writeRecord fills the rest.
func (l *Log) frame(n int64) []byte {
	if int64(cap(l.scratch)) < n {
		l.scratch = make([]byte, n)
	}
	return l.scratch[:n]
}

// writeRecord seals a record and writes it onto the end of seg. runs
// are the record's bytes in file order; runs[0] starts with a frame
// from l.frame, whose length, CRC and type byte are filled in place.
// Each run goes down with its own WriteAt, so a payload is written
// straight from the caller's slice. Caller holds the lock. Returns the
// record's starting offset; on error seg is left as it was.
func (l *Log) writeRecord(seg *segment, typ byte, runs ...[]byte) (int64, error) {
	head := runs[0]
	head[recHeader] = typ
	n := int64(len(head))
	crc := crc32.ChecksumIEEE(head[recHeader:])
	for _, r := range runs[1:] {
		n += int64(len(r))
		crc = crc32.Update(crc, crc32.IEEETable, r)
	}
	binary.LittleEndian.PutUint32(head[0:4], uint32(n-recHeader))
	binary.LittleEndian.PutUint32(head[4:8], crc)
	off := seg.size
	at := off
	for _, r := range runs {
		if _, err := seg.f.WriteAt(r, at); err != nil {
			return 0, fmt.Errorf("streamlog: %w", err)
		}
		at += int64(len(r))
	}
	seg.size += n
	l.total += n
	return off, nil
}

// evict drops oldest segments that are fully retired and outside the
// retention budget. The active segment is never evicted. Caller holds
// the lock.
func (l *Log) evict() error {
	for len(l.segs) > 1 {
		oldest := l.segs[0]
		if oldest.maxStep >= 0 && oldest.maxStep > l.lastRetired {
			return nil // holds unretired steps: never evictable
		}
		overSteps := l.opts.RetainSteps > 0 && oldest.maxStep < l.nextStep-l.opts.RetainSteps
		overBytes := l.opts.RetainBytes > 0 && l.total > l.opts.RetainBytes
		if !overSteps && !overBytes {
			return nil
		}
		for s := oldest.minStep; oldest.minStep >= 0 && s <= oldest.maxStep; s++ {
			delete(l.index, s)
		}
		if oldest.maxStep >= 0 && oldest.maxStep+1 > l.firstStep {
			l.firstStep = oldest.maxStep + 1
		}
		l.total -= oldest.size
		releaseMapping(oldest) // deferred to the last view if any are out
		oldest.f.Close()
		if err := os.Remove(oldest.path); err != nil {
			return fmt.Errorf("streamlog: %w", err)
		}
		l.segs = l.segs[1:]
	}
	return nil
}

// ReadStep returns the journaled blobs of one step, indexed by writer
// rank. The returned slices are freshly allocated; the caller owns
// them. Steps below the retention horizon return ErrEvicted; steps at
// or past NextStep return an error (the log never blocks — waiting for
// unpublished steps is the broker's job).
func (l *Log) ReadStep(step int) (metas, payloads [][]byte, err error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	loc, err := l.locate(step)
	if err != nil {
		return nil, nil, err
	}
	return l.readStepAt(step, loc)
}

// locate resolves a step to its record location. Caller holds the lock.
func (l *Log) locate(step int) (stepLoc, error) {
	if l.closed {
		return stepLoc{}, ErrClosed
	}
	loc, ok := l.index[step]
	if !ok {
		if step < l.nextStep {
			return stepLoc{}, fmt.Errorf("%w: step %d below horizon %d", ErrEvicted, step, l.firstStep)
		}
		return stepLoc{}, fmt.Errorf("streamlog: step %d not yet appended (next is %d)", step, l.nextStep)
	}
	return loc, nil
}

// readStepAt is the copying read path: pread the record into fresh
// allocations. The body buffer leads with off%8 spare bytes, so each
// body byte sits at an address congruent to its file offset mod 8 —
// a v2 payload, aligned in the file, is aligned in memory too and
// decodes in place. Caller holds the lock.
func (l *Log) readStepAt(step int, loc stepLoc) (metas, payloads [][]byte, err error) {
	var hdr [recHeader]byte
	if _, err := loc.seg.f.ReadAt(hdr[:], loc.off); err != nil {
		return nil, nil, fmt.Errorf("streamlog: %w", err)
	}
	n := int64(binary.LittleEndian.Uint32(hdr[0:4]))
	want := binary.LittleEndian.Uint32(hdr[4:8])
	if n < 1 || n > maxRecord {
		return nil, nil, fmt.Errorf("streamlog: step %d record corrupt", step)
	}
	// A multiple-of-8 allocation is 8-byte aligned, even when tiny.
	lead := loc.off % 8
	body := make([]byte, (lead+n+7)&^7)[lead : lead+n]
	if _, err := loc.seg.f.ReadAt(body, loc.off+recHeader); err != nil {
		return nil, nil, fmt.Errorf("streamlog: %w", err)
	}
	if crc32.ChecksumIEEE(body) != want {
		return nil, nil, fmt.Errorf("streamlog: step %d record corrupt", step)
	}
	got, metas, payloads, ok := decodeStep(body[0], body[1:])
	if !ok || got != step {
		return nil, nil, fmt.Errorf("streamlog: step %d record corrupt", step)
	}
	return metas, payloads, nil
}

// ReadStepView is ReadStep without the copy when one can be had for
// free: a step living in a sealed segment (any segment but the active
// one — sealed segments are never written again) is served as views
// into a read-only mmap of the segment file, so replaying history moves
// no payload bytes through the Go heap. The caller must call release
// exactly once when finished with every returned slice; until then the
// backing mapping survives segment eviction and even log Close (the
// munmap is deferred to the final release). Steps in the active
// segment, logs opened with Options.NoMmap, and platforms without
// shared file mappings fall back to the copying path — release is then
// a no-op, and the caller need not know which path served it.
func (l *Log) ReadStepView(step int) (metas, payloads [][]byte, release func(), err error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	loc, err := l.locate(step)
	if err != nil {
		return nil, nil, nil, err
	}
	if !l.mapSealed(loc.seg) {
		metas, payloads, err = l.readStepAt(step, loc)
		return metas, payloads, func() {}, err
	}
	mem, off := loc.seg.mem, loc.off
	corrupt := func() error { return fmt.Errorf("streamlog: step %d record corrupt", step) }
	if off+recHeader > int64(len(mem)) {
		return nil, nil, nil, corrupt()
	}
	n := int64(binary.LittleEndian.Uint32(mem[off : off+4]))
	want := binary.LittleEndian.Uint32(mem[off+4 : off+8])
	if n < 1 || n > maxRecord || off+recHeader+n > int64(len(mem)) {
		return nil, nil, nil, corrupt()
	}
	body := mem[off+recHeader : off+recHeader+n]
	if crc32.ChecksumIEEE(body) != want {
		return nil, nil, nil, corrupt()
	}
	got, metas, payloads, ok := decodeStep(body[0], body[1:])
	if !ok || got != step {
		return nil, nil, nil, corrupt()
	}
	seg := loc.seg
	seg.refs++
	l.views++
	// The release closure is idempotent: an abort path that unwinds
	// through both its own cleanup and a deferred one must not decrement
	// the view count twice — a double munmap of a shared mapping would
	// corrupt every other outstanding view of the segment.
	released := false
	release = func() {
		l.mu.Lock()
		if released {
			l.mu.Unlock()
			return
		}
		released = true
		l.views--
		seg.refs--
		if seg.refs == 0 && seg.pendingUnmap && seg.mem != nil {
			munmap(seg.mem)
			seg.mem = nil
		}
		l.mu.Unlock()
	}
	return metas, payloads, release, nil
}

// mapSealed lazily maps a sealed segment read-only, reporting whether
// the mapping is usable. Caller holds the lock. A failed mmap marks the
// segment broken so every later read preads instead of retrying.
func (l *Log) mapSealed(seg *segment) bool {
	if seg.mem != nil {
		return true
	}
	if seg.mapBroken || l.opts.NoMmap || !mmapSupported() || seg.size == 0 {
		return false
	}
	// The active segment may still grow, so it always preads — except on
	// a read-only log, where nothing will ever append and even the final
	// segment is sealed.
	if !l.opts.ReadOnly && seg == l.activeSegment() {
		return false
	}
	mem, err := mmapReadOnly(seg.f, seg.size)
	if err != nil {
		seg.mapBroken = true
		return false
	}
	seg.mem = mem
	return true
}

// releaseMapping unmaps a segment that is leaving the log (eviction or
// Close), deferring to the last outstanding view when one exists.
// Caller holds the lock.
func releaseMapping(seg *segment) {
	if seg.mem == nil {
		return
	}
	if seg.refs > 0 {
		seg.pendingUnmap = true
		return
	}
	munmap(seg.mem)
	seg.mem = nil
}

// FirstStep returns the lowest readable step (steps below it were
// evicted by retention).
func (l *Log) FirstStep() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.firstStep
}

// NextStep returns the step the next Append must carry — one past the
// highest journaled step.
func (l *Log) NextStep() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.nextStep
}

// LastRetired returns the highest step with a retire record, or -1.
func (l *Log) LastRetired() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.lastRetired
}

// Ended reports whether the stream ended gracefully, and at which step.
func (l *Log) Ended() (lastStep int, ended bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.lastStep, l.ended
}

// Segments returns the number of live segment files.
func (l *Log) Segments() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.segs)
}

// Bytes returns the total size of all live segments.
func (l *Log) Bytes() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.total
}

// OpenViews returns the number of ReadStepView mmap views not yet
// released — the value behind the log.views leak gauge. A quiescent log
// (no reader mid-step) must report zero; anything else is a view whose
// release closure was dropped on an early-return path.
func (l *Log) OpenViews() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.views
}

// Sync flushes the active segment to stable storage regardless of the
// fsync policy.
func (l *Log) Sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.writable(); err != nil {
		return err
	}
	if seg := l.activeSegment(); seg != nil {
		if err := seg.f.Sync(); err != nil {
			return fmt.Errorf("streamlog: %w", err)
		}
	}
	return nil
}

// Close syncs and closes every segment file. Further operations return
// ErrClosed.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil
	}
	l.closed = true
	var first error
	if seg := l.activeSegment(); seg != nil && !l.opts.ReadOnly {
		if err := seg.f.Sync(); err != nil && first == nil {
			first = err
		}
	}
	for _, seg := range l.segs {
		releaseMapping(seg)
		if err := seg.f.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}
