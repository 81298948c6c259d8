package fed

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"

	"filecule/internal/core"
	"filecule/internal/trace"
)

// The filecule-fed/v1 exchange format, built on the CRC32C chunk frame
// shared with the trace codec, checkpoints, and the WAL. One exchange is a
// delta message (request) answered by an ack message (response).
//
// Delta:
//
//	"filecule-fed/v1\n"
//	'H' header chunk: uvarint site-name length + bytes, 8-byte LE
//	                  incarnation, uvarint from-version, to-version,
//	                  observed count, record count, live count, total
//	                  record file count
//	'G' group chunks: uvarint record count, then one checkpoint group
//	                  record (core.AppendStateGroup) per changed group
//	'L' live chunks:  uvarint count, then one 16-byte LE signature per
//	                  live group — the sender's complete live set, which is
//	                  how receivers learn deletions without tombstones
//	'E' end chunk:    uvarint record count, live count (cross-check)
//
// A delta carries the sender's state change from from-version to
// to-version: full records for every group whose stamp is newer than
// from-version, plus the complete live-signature list. Signatures are
// site-local identities (they are sums over site-local job generations, so
// equal signatures at different sites mean nothing); receivers key held
// state by (site, signature) and never compare signatures across sites.
// A delta with from-version == to-version is a heartbeat and carries no
// records and no live list.
//
// Ack:
//
//	"filecule-fed/v1\n"
//	'A' chunk: uvarint site-name length + bytes (the receiver's site),
//	           uvarint held-version (the sender-state version the receiver
//	           holds after processing), status byte
//
// The held-version is the whole contract: whatever the status, the sender
// resumes its next delta from exactly that version. Idempotence follows —
// duplicates and stale retries move held-version nowhere, a receiver that
// restarted (or saw a new sender incarnation) reports 0 and gets the full
// state again.

// The messages' magic and chunk kinds. A filecule-wire/v1 connection
// carries the frames after the magic as they are.
const (
	Magic      = "filecule-fed/v1\n"
	KindHeader = 'H'
	KindGroups = 'G'
	KindLive   = 'L'
	KindEnd    = 'E'
	KindAck    = 'A'
)

// Ack statuses (diagnostic only; held-version drives the protocol).
const (
	ackApplied = 0 // delta applied, held-version advanced to to-version
	ackCurrent = 1 // duplicate or old delta; receiver already at or past to-version
	ackStale   = 2 // from-version is ahead of the receiver; a wider delta is needed
)

// Wire bounds: allocation guards against corrupt or hostile peers.
const (
	maxSiteName     = 200
	maxFedGroups    = 1 << 22
	maxFedFiles     = 1 << 24
	fedChunkBytes   = 1 << 18
	maxFedDeltaSize = 1 << 28
	maxFedAckSize   = 1 << 12
)

// MaxDeltaSize is the largest encoded delta the format accepts. A full
// resync after a receiver restart carries the sender's entire state, so a
// transport must carry deltas up to this size.
const MaxDeltaSize = maxFedDeltaSize

// delta is one decoded exchange message.
type delta struct {
	Site        string
	Incarnation uint64
	From, To    uint64
	Observed    int64
	Records     []core.StateGroup // groups with stamp > From; Stamp not carried on the wire
	Live        []sigKey          // complete live set; empty for heartbeats
}

// sigKey is a 128-bit group signature as a map key.
type sigKey struct{ Lo, Hi uint64 }

// ack is one decoded exchange response.
type ack struct {
	Site   string
	Held   uint64
	Status byte
}

// buildDelta assembles the delta a peer holding the sender's state at
// version `from` needs in order to reach st.Version.
func buildDelta(site string, incarnation uint64, from uint64, st *core.EngineState) *delta {
	d := &delta{
		Site:        site,
		Incarnation: incarnation,
		From:        from,
		To:          st.Version,
		Observed:    st.Observed,
	}
	if d.To == d.From {
		return d // heartbeat
	}
	d.Records = st.ChangedSince(from)
	d.Live = make([]sigKey, len(st.Groups))
	for i := range st.Groups {
		d.Live[i] = sigKey{Lo: st.Groups[i].SigLo, Hi: st.Groups[i].SigHi}
	}
	return d
}

func appendSite(dst []byte, site string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(site)))
	return append(dst, site...)
}

func readSite(p *trace.Payload) string {
	n := p.Uvarint()
	if p.Err() != nil {
		return ""
	}
	if n == 0 || n > maxSiteName {
		p.Fail("site name length %d out of range", n)
		return ""
	}
	b := p.Bytes(int(n))
	if p.Err() != nil {
		return ""
	}
	return string(b)
}

// encodeDelta renders d to wire bytes.
func encodeDelta(d *delta) []byte {
	totalFiles := 0
	for i := range d.Records {
		totalFiles += len(d.Records[i].Files)
	}
	hdr := []byte{KindHeader}
	hdr = appendSite(hdr, d.Site)
	hdr = trace.AppendUint64(hdr, d.Incarnation)
	hdr = binary.AppendUvarint(hdr, d.From)
	hdr = binary.AppendUvarint(hdr, d.To)
	hdr = binary.AppendUvarint(hdr, uint64(d.Observed))
	hdr = binary.AppendUvarint(hdr, uint64(len(d.Records)))
	hdr = binary.AppendUvarint(hdr, uint64(len(d.Live)))
	hdr = binary.AppendUvarint(hdr, uint64(totalFiles))
	out := trace.AppendChunk([]byte(Magic), hdr)

	chunk := []byte{KindGroups} // kind byte, then the records of the chunk being filled
	count := 0
	flush := func(kind byte) {
		if count == 0 {
			return
		}
		payload := binary.AppendUvarint([]byte{kind}, uint64(count))
		out = trace.AppendChunk(out, append(payload, chunk[1:]...))
		chunk, count = chunk[:1], 0
	}
	for i := range d.Records {
		chunk = core.AppendStateGroup(chunk, &d.Records[i])
		count++
		if len(chunk) >= fedChunkBytes {
			flush(KindGroups)
		}
	}
	flush(KindGroups)

	for _, s := range d.Live {
		chunk = trace.AppendUint64(chunk, s.Lo)
		chunk = trace.AppendUint64(chunk, s.Hi)
		count++
		if len(chunk) >= fedChunkBytes {
			flush(KindLive)
		}
	}
	flush(KindLive)

	end := []byte{KindEnd}
	end = binary.AppendUvarint(end, uint64(len(d.Records)))
	end = binary.AppendUvarint(end, uint64(len(d.Live)))
	return trace.AppendChunk(out, end)
}

// decodeDelta parses and bounds-checks one delta message. Every
// malformation is an error naming the failing chunk's byte offset; a
// decoded delta is structurally sound (counts consistent, file lists
// in-range) but semantic validation against held state happens at apply
// time.
func decodeDelta(b []byte) (*delta, error) {
	if len(b) > maxFedDeltaSize {
		return nil, fmt.Errorf("fed: delta of %d bytes exceeds limit %d", len(b), maxFedDeltaSize)
	}
	cr, p, err := trace.OpenChunks(bytes.NewReader(b), Magic, KindHeader)
	if err != nil {
		return nil, fmt.Errorf("fed: %w", err)
	}
	d := &delta{Site: readSite(p)}
	d.Incarnation = p.Uint64()
	d.From = p.Uvarint()
	d.To = p.Uvarint()
	observed := p.Uvarint()
	nRecords := p.Uvarint()
	nLive := p.Uvarint()
	totalFiles := p.Uvarint()
	if p.Err() == nil && p.Remaining() != 0 {
		p.Fail("%d bytes after header fields", p.Remaining())
	}
	if p.Err() != nil {
		return nil, fmt.Errorf("fed: %w", &trace.ChunkError{Kind: KindHeader, Err: fmt.Errorf("malformed header: %v", p.Err())})
	}
	switch {
	case d.To < d.From:
		return nil, fmt.Errorf("fed: header to-version %d below from-version %d", d.To, d.From)
	case observed > 1<<62:
		return nil, fmt.Errorf("fed: header observed count %d out of range", observed)
	case nRecords > maxFedGroups || nLive > maxFedGroups:
		return nil, fmt.Errorf("fed: header declares %d records / %d live (max %d)", nRecords, nLive, maxFedGroups)
	case totalFiles > maxFedFiles:
		return nil, fmt.Errorf("fed: header declares %d files (max %d)", totalFiles, maxFedFiles)
	case nRecords > nLive:
		return nil, fmt.Errorf("fed: header declares %d records but only %d live groups", nRecords, nLive)
	case d.To == d.From && nRecords+nLive+totalFiles != 0:
		return nil, fmt.Errorf("fed: heartbeat carries %d records / %d live", nRecords, nLive)
	}
	d.Observed = int64(observed)
	// The counts are bounded only by maxFedGroups; the pre-size is bounded by
	// what the body can back — a record takes at least 18 bytes (signature,
	// request count, run count), a live signature 16.
	d.Records = make([]core.StateGroup, 0, min(nRecords, uint64(len(b)/18)))
	d.Live = make([]sigKey, 0, min(nLive, uint64(len(b)/16)))

	filesLeft := int(totalFiles)
	for {
		boundary := cr.Offset()
		kind, payload, err := cr.ReadChunk()
		if err == io.EOF {
			return nil, fmt.Errorf("fed: truncated delta (missing end chunk): %w", io.ErrUnexpectedEOF)
		}
		if err != nil {
			return nil, fmt.Errorf("fed: %w", err)
		}
		switch kind {
		case KindGroups:
			p := trace.NewPayload(payload)
			d.Records = core.ReadStateGroups(p, d.Records, trace.FileIDCeiling, &filesLeft)
			if p.Err() != nil {
				return nil, fmt.Errorf("fed: %w", &trace.ChunkError{Offset: boundary, Kind: kind, Err: p.Err()})
			}
			if uint64(len(d.Records)) > nRecords {
				return nil, fmt.Errorf("fed: more than the declared %d records", nRecords)
			}
		case KindLive:
			p := trace.NewPayload(payload)
			n := p.Count("live signature")
			for i := 0; i < n && p.Err() == nil; i++ {
				d.Live = append(d.Live, sigKey{Lo: p.Uint64(), Hi: p.Uint64()})
			}
			if p.Err() == nil && p.Remaining() != 0 {
				p.Fail("%d bytes after last live signature", p.Remaining())
			}
			if p.Err() != nil {
				return nil, fmt.Errorf("fed: %w", &trace.ChunkError{Offset: boundary, Kind: kind, Err: p.Err()})
			}
			if uint64(len(d.Live)) > nLive {
				return nil, fmt.Errorf("fed: more than the declared %d live signatures", nLive)
			}
		case KindEnd:
			p := trace.NewPayload(payload)
			gotRecords := p.Uvarint()
			gotLive := p.Uvarint()
			if p.Err() != nil || p.Remaining() != 0 {
				return nil, fmt.Errorf("fed: %w", &trace.ChunkError{Offset: boundary, Kind: kind, Err: fmt.Errorf("malformed end chunk")})
			}
			if gotRecords != nRecords || uint64(len(d.Records)) != nRecords {
				return nil, fmt.Errorf("fed: end chunk declares %d records, header %d, stream had %d", gotRecords, nRecords, len(d.Records))
			}
			if gotLive != nLive || uint64(len(d.Live)) != nLive {
				return nil, fmt.Errorf("fed: end chunk declares %d live, header %d, stream had %d", gotLive, nLive, len(d.Live))
			}
			if filesLeft != 0 {
				return nil, fmt.Errorf("fed: header declares %d record files, records carry %d", totalFiles, int(totalFiles)-filesLeft)
			}
			if _, _, err := cr.ReadChunk(); err != io.EOF {
				return nil, fmt.Errorf("fed: data after end chunk")
			}
			return d, nil
		case KindHeader:
			return nil, fmt.Errorf("fed: duplicate header chunk")
		default:
			return nil, fmt.Errorf("fed: %w", &trace.ChunkError{Offset: boundary, Kind: kind, Err: fmt.Errorf("unknown chunk kind")})
		}
	}
}

// encodeAck renders an ack to wire bytes.
func encodeAck(a *ack) []byte {
	payload := []byte{KindAck}
	payload = appendSite(payload, a.Site)
	payload = binary.AppendUvarint(payload, a.Held)
	payload = append(payload, a.Status)
	return trace.AppendChunk([]byte(Magic), payload)
}

// decodeAck parses one ack message.
func decodeAck(b []byte) (*ack, error) {
	if len(b) > maxFedAckSize {
		return nil, fmt.Errorf("fed: ack of %d bytes exceeds limit %d", len(b), maxFedAckSize)
	}
	cr, p, err := trace.OpenChunks(bytes.NewReader(b), Magic, KindAck)
	if err != nil {
		return nil, fmt.Errorf("fed: ack: %w", err)
	}
	a := &ack{Site: readSite(p)}
	a.Held = p.Uvarint()
	a.Status = p.Byte()
	if p.Err() == nil && p.Remaining() != 0 {
		p.Fail("%d bytes after ack fields", p.Remaining())
	}
	if p.Err() != nil {
		return nil, fmt.Errorf("fed: ack: %v", p.Err())
	}
	if a.Status > ackStale {
		return nil, fmt.Errorf("fed: ack: unknown status %d", a.Status)
	}
	if _, _, err := cr.ReadChunk(); err != io.EOF {
		return nil, fmt.Errorf("fed: ack: data after ack chunk")
	}
	return a, nil
}
