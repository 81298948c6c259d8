// Package wire holds the serving layer's request core — Service, which
// answers every operation for both surfaces, and the message types both
// encode — and filecule-wire/v1, the binary request/response protocol the
// service speaks over persistent TCP connections (internal/server is the
// HTTP/JSON codec over the same Service).
//
// The engine observes a job in ~200 ns with zero allocations; over HTTP/JSON
// the same job pays orders of magnitude more in framing, header parsing and
// marshalling. This protocol removes that tax: one CRC-framed binary chunk
// per request, one per response, run-length-encoded file lists, and strict
// FIFO pipelining so a client can keep many requests in flight on one
// connection.
//
// A connection is:
//
//	magic := "filecule-wire/v1\n"        (client sends once)
//	then alternating streams of frames   (requests in, responses out, FIFO)
//
// where every frame is the CRC32C chunk shared with filecule-bin/v1 and the
// durability formats (internal/trace):
//
//	frame := uvarint(len(payload)) payload crc32c(payload, 4B LE)
//
// and payload[0] is the message kind. Responses come back in request order,
// so a client may write any number of requests before reading a response
// (batched pipelining); the server flushes its write buffer whenever it has
// drained all buffered input, amortizing syscalls across a pipeline burst.
//
// Request kinds and payloads (all integers varint unless noted; file lists
// use the run-length encoding of trace.AppendFileRuns):
//
//	'O' observe         fileRuns
//	'B' observe batch   uvarint(njobs), njobs × fileRuns
//	'A' advise          uvarint(capacityBytes), fileRuns,
//	                    uvarint(nresident), nresident × (uvarint(unit), zvarint(lastAccess))
//	'P' partition       (empty)
//	'S' summary         (empty)
//	'F' filecule        uvarint(fileID)
//	'H' fed delta       a filecule-fed/v1 delta's frames as they are: 'H',
//	                    then its 'G' and 'L' frames, then 'E' (internal/fed)
//
// Response kinds:
//
//	'o' observe result  uvarint(observed), uvarint(filecules)
//	'a' advice          uvarint(nhits), nhits × uvarint(unit),
//	                    uvarint(nload), nload × (uvarint(unit), uvarint(bytes), fileRuns),
//	                    uvarint(nevict), nevict × uvarint(unit),
//	                    fileRuns(bypassed), uvarint(bytesToLoad), uvarint(bytesToEvict)
//	'p' partition       uvarint(observed), uvarint(nfilecules),
//	                    nfilecules × (uvarint(requests), uvarint(bytes), fileRuns)
//	                    (filecule IDs are the 0-based position, canonical order)
//	's' summary         uvarint(observed), uvarint(filecules), uvarint(files),
//	                    uvarint(monatomic), meanFilesPerFilecule
//	                    (IEEE-754 bits, 8B LE), uvarint(largestFiles),
//	                    uvarint(coveredBytes)
//	'f' filecule        uvarint(id), uvarint(requests), uvarint(bytes), fileRuns
//	'e' error           uvarint(code), uvarint(len), len × msg bytes
//	'A' fed ack         the delta's filecule-fed/v1 ack frame, unchanged
//
// Malformed request payloads (bad varints, out-of-range file IDs, trailing
// bytes) are per-request failures: the server answers 'e' with the frame's
// byte offset in the message and keeps the connection. Broken framing
// (truncation, CRC mismatch, oversized chunks) is unrecoverable — the frame
// boundary itself is lost — so the server answers one final 'e' and closes.
// A delta, the one request that spans frames, gets one response, 'A' or 'e'.
// Broken framing inside it, a frame other than 'G', 'L' or 'E' before its
// 'E', or a delta past fed.MaxDeltaSize is answered once and closes; a delta
// the node refuses, or an 'H' to a server without federation, is a 400.
// Error codes align with the HTTP surface: 400 bad request, 404 file not
// observed, 422 advice unavailable, 500 internal.
package wire

import (
	"encoding/binary"
	"fmt"
	"math"

	"filecule/internal/cache"
	"filecule/internal/trace"
)

// Magic is the connection preamble the client sends once after dialing.
const Magic = "filecule-wire/v1\n"

// Request kinds.
const (
	KindObserve      = 'O'
	KindObserveBatch = 'B'
	KindAdvise       = 'A'
	KindPartition    = 'P'
	KindSummary      = 'S'
	KindFilecule     = 'F'
)

// Response kinds.
const (
	KindObserveResult   = 'o'
	KindAdviceResult    = 'a'
	KindPartitionResult = 'p'
	KindSummaryResult   = 's'
	KindFileculeResult  = 'f'
	KindError           = 'e'
)

// Error codes carried by 'e' responses, aligned with the HTTP status the
// JSON surface would answer for the same failure.
const (
	CodeBadRequest  = 400
	CodeNotFound    = 404
	CodeUnavailable = 422
	CodeInternal    = 500
)

// MaxBatchJobs caps the jobs of one batch request on both surfaces.
const MaxBatchJobs = 10000

// --- request encoders (client side; also the fuzz seed builders) ---

// AppendObserveRequest appends an 'O' request payload for one job.
func AppendObserveRequest(dst []byte, files []trace.FileID) []byte {
	dst = append(dst, KindObserve)
	return trace.AppendFileRuns(dst, files)
}

// AppendBatchRequest appends a 'B' request payload for a batch of jobs.
func AppendBatchRequest(dst []byte, jobs [][]trace.FileID) []byte {
	dst = append(dst, KindObserveBatch)
	dst = binary.AppendUvarint(dst, uint64(len(jobs)))
	for _, files := range jobs {
		dst = trace.AppendFileRuns(dst, files)
	}
	return dst
}

// AppendAdviseRequest appends an 'A' request payload.
func AppendAdviseRequest(dst []byte, req cache.AdviceRequest) []byte {
	dst = append(dst, KindAdvise)
	dst = binary.AppendUvarint(dst, uint64(req.Capacity))
	dst = trace.AppendFileRuns(dst, req.Files)
	dst = binary.AppendUvarint(dst, uint64(len(req.Resident)))
	for _, r := range req.Resident {
		dst = binary.AppendUvarint(dst, uint64(r.Unit))
		dst = binary.AppendVarint(dst, r.LastAccess)
	}
	return dst
}

// AppendPartitionRequest appends a 'P' request payload.
func AppendPartitionRequest(dst []byte) []byte {
	return append(dst, KindPartition)
}

// AppendSummaryRequest appends an 'S' request payload.
func AppendSummaryRequest(dst []byte) []byte {
	return append(dst, KindSummary)
}

// AppendFileculeRequest appends an 'F' per-file filecule lookup payload.
func AppendFileculeRequest(dst []byte, f trace.FileID) []byte {
	dst = append(dst, KindFilecule)
	return binary.AppendUvarint(dst, uint64(f))
}

// --- response encoders (server side) ---

func appendObserveResult(dst []byte, r ObserveReply) []byte {
	dst = append(dst, KindObserveResult)
	dst = binary.AppendUvarint(dst, uint64(r.Observed))
	return binary.AppendUvarint(dst, uint64(r.Filecules))
}

func appendAdviceResult(dst []byte, adv *AdviceReply) []byte {
	dst = append(dst, KindAdviceResult)
	dst = binary.AppendUvarint(dst, uint64(len(adv.Hits)))
	for _, u := range adv.Hits {
		dst = binary.AppendUvarint(dst, uint64(u))
	}
	dst = binary.AppendUvarint(dst, uint64(len(adv.Load)))
	for i := range adv.Load {
		lu := &adv.Load[i]
		dst = binary.AppendUvarint(dst, uint64(lu.Unit))
		dst = binary.AppendUvarint(dst, uint64(lu.Bytes))
		dst = trace.AppendFileRuns(dst, lu.Files)
	}
	dst = binary.AppendUvarint(dst, uint64(len(adv.Evict)))
	for _, u := range adv.Evict {
		dst = binary.AppendUvarint(dst, uint64(u))
	}
	dst = trace.AppendFileRuns(dst, adv.Bypassed)
	dst = binary.AppendUvarint(dst, uint64(adv.BytesToLoad))
	return binary.AppendUvarint(dst, uint64(adv.BytesToEvict))
}

// appendPartitionResult encodes a partition in canonical order. A row's ID
// is its position and does not travel; bytes are zero without a catalog.
func appendPartitionResult(dst []byte, r *PartitionReply) []byte {
	dst = append(dst, KindPartitionResult)
	dst = binary.AppendUvarint(dst, uint64(r.Observed))
	dst = binary.AppendUvarint(dst, uint64(len(r.Filecules)))
	for i := range r.Filecules {
		fc := &r.Filecules[i]
		dst = binary.AppendUvarint(dst, uint64(fc.Requests))
		dst = binary.AppendUvarint(dst, uint64(fc.Bytes))
		dst = trace.AppendFileRuns(dst, fc.Files)
	}
	return dst
}

// appendSummaryResult encodes an 's' response. The mean travels as its
// exact IEEE-754 bits so a client marshalling the reply reproduces the HTTP
// surface byte for byte.
func appendSummaryResult(dst []byte, r *SummaryReply) []byte {
	dst = append(dst, KindSummaryResult)
	dst = binary.AppendUvarint(dst, uint64(r.Observed))
	dst = binary.AppendUvarint(dst, uint64(r.Filecules))
	dst = binary.AppendUvarint(dst, uint64(r.Files))
	dst = binary.AppendUvarint(dst, uint64(r.Monatomic))
	dst = trace.AppendUint64(dst, math.Float64bits(r.MeanFilesPerGroup))
	dst = binary.AppendUvarint(dst, uint64(r.LargestFiles))
	return binary.AppendUvarint(dst, uint64(r.CoveredBytes))
}

// appendFileculeResult encodes an 'f' response for one filecule.
func appendFileculeResult(dst []byte, r *FileculeLookupReply) []byte {
	dst = append(dst, KindFileculeResult)
	dst = binary.AppendUvarint(dst, uint64(r.ID))
	dst = binary.AppendUvarint(dst, uint64(r.Requests))
	dst = binary.AppendUvarint(dst, uint64(r.Bytes))
	return trace.AppendFileRuns(dst, r.Files)
}

func appendError(dst []byte, code int, msg string) []byte {
	dst = append(dst, KindError)
	dst = binary.AppendUvarint(dst, uint64(code))
	dst = binary.AppendUvarint(dst, uint64(len(msg)))
	return append(dst, msg...)
}

// --- messages: one Go type per reply, shared by both codecs ---
//
// The JSON tags are the HTTP surface's field names; the frame layout is in
// the package comment. The advise messages are cache.AdviceRequest and
// cache.Advice themselves.

// ObserveReply acknowledges an observe or a batch: total jobs observed and
// the filecule count after the request was applied.
type ObserveReply struct {
	Observed  int64 `json:"observed"`
	Filecules int   `json:"filecules"`
}

// AdviceReply is the advise response.
type AdviceReply = cache.Advice

// PartitionReply is the full canonical partition; row i has ID i.
type PartitionReply struct {
	Observed  int64                 `json:"observed"`
	Filecules []FileculeLookupReply `json:"filecules"`
}

// SummaryReply is the partition's shape statistics.
type SummaryReply struct {
	Observed          int64   `json:"observed"`
	Filecules         int     `json:"filecules"`
	Files             int     `json:"files"`
	Monatomic         int     `json:"monatomic"`
	MeanFilesPerGroup float64 `json:"meanFilesPerFilecule"`
	LargestFiles      int     `json:"largestFilecule"`
	CoveredBytes      int64   `json:"coveredBytes,omitempty"`
}

// FileculeLookupReply is one filecule with its canonical ID: the answer to a
// per-file lookup, and one row of a PartitionReply.
type FileculeLookupReply struct {
	ID       int            `json:"id"`
	Files    []trace.FileID `json:"files"`
	Requests int            `json:"requests"`
	Bytes    int64          `json:"bytes,omitempty"`
}

// RemoteError is a request the Service or a decoder refused: Code is the
// HTTP status, and an 'e' response carries both fields. A client's connection
// stays usable after one (per-request failure); every other receive error
// poisons the client.
type RemoteError struct {
	Code int
	Msg  string
}

func (e *RemoteError) Error() string {
	return fmt.Sprintf("wire: server error %d: %s", e.Code, e.Msg)
}

func decodeObserveReply(pl *trace.Payload) (ObserveReply, error) {
	var r ObserveReply
	r.Observed = int64(pl.Uvarint())
	r.Filecules = int(pl.Uvarint())
	return r, replyErr(pl, "observe")
}

func decodeAdviceReply(pl *trace.Payload) (*AdviceReply, error) {
	r := &AdviceReply{}
	for n := pl.Count("hit"); n > 0 && pl.Err() == nil; n-- {
		r.Hits = append(r.Hits, cache.UnitID(pl.Uvarint()))
	}
	for n := pl.Count("load unit"); n > 0 && pl.Err() == nil; n-- {
		lu := cache.LoadUnit{Unit: cache.UnitID(pl.Uvarint()), Bytes: int64(pl.Uvarint())}
		lu.Files = pl.FileRuns(nil, trace.FileIDCeiling, trace.MaxJobFiles)
		r.Load = append(r.Load, lu)
	}
	for n := pl.Count("evict"); n > 0 && pl.Err() == nil; n-- {
		r.Evict = append(r.Evict, cache.UnitID(pl.Uvarint()))
	}
	r.Bypassed = pl.FileRuns(nil, trace.FileIDCeiling, trace.MaxJobFiles)
	r.BytesToLoad = int64(pl.Uvarint())
	r.BytesToEvict = int64(pl.Uvarint())
	return r, replyErr(pl, "advice")
}

func decodePartitionReply(pl *trace.Payload) (*PartitionReply, error) {
	r := &PartitionReply{Observed: int64(pl.Uvarint())}
	n := pl.Count("filecule")
	for i := 0; i < n && pl.Err() == nil; i++ {
		fc := FileculeLookupReply{ID: i, Requests: int(pl.Uvarint()), Bytes: int64(pl.Uvarint())}
		fc.Files = pl.FileRuns(nil, trace.FileIDCeiling, trace.FileIDCeiling)
		r.Filecules = append(r.Filecules, fc)
	}
	return r, replyErr(pl, "partition")
}

func decodeSummaryReply(pl *trace.Payload) (SummaryReply, error) {
	var r SummaryReply
	r.Observed = int64(pl.Uvarint())
	r.Filecules = int(pl.Uvarint())
	r.Files = int(pl.Uvarint())
	r.Monatomic = int(pl.Uvarint())
	r.MeanFilesPerGroup = math.Float64frombits(pl.Uint64())
	r.LargestFiles = int(pl.Uvarint())
	r.CoveredBytes = int64(pl.Uvarint())
	return r, replyErr(pl, "summary")
}

func decodeFileculeReply(pl *trace.Payload) (*FileculeLookupReply, error) {
	r := &FileculeLookupReply{
		ID:       int(pl.Uvarint()),
		Requests: int(pl.Uvarint()),
		Bytes:    int64(pl.Uvarint()),
	}
	r.Files = pl.FileRuns(nil, trace.FileIDCeiling, trace.FileIDCeiling)
	return r, replyErr(pl, "filecule")
}

func decodeError(pl *trace.Payload) error {
	code := int(pl.Uvarint())
	n := pl.Count("message byte")
	msg := pl.Bytes(n)
	if err := replyErr(pl, "error"); err != nil {
		return err
	}
	return &RemoteError{Code: code, Msg: string(msg)}
}

// replyErr finalizes a response decode: a sticky cursor error or trailing
// bytes both mean the stream is not speaking filecule-wire/v1.
func replyErr(pl *trace.Payload, what string) error {
	if err := pl.Err(); err != nil {
		return fmt.Errorf("wire: bad %s reply: %w", what, err)
	}
	if pl.Remaining() != 0 {
		return fmt.Errorf("wire: bad %s reply: %d trailing bytes", what, pl.Remaining())
	}
	return nil
}
