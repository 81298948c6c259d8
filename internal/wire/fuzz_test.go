package wire

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"strings"
	"testing"

	"filecule/internal/cache"
	"filecule/internal/fed"
	"filecule/internal/trace"
)

// fuzzStream builds one valid post-magic request stream, the shape seeds
// mutate from.
func fuzzStream(payloads ...[]byte) []byte {
	var buf bytes.Buffer
	for _, p := range payloads {
		_ = trace.WriteChunk(&buf, p)
	}
	return buf.Bytes()
}

// FuzzWireProto feeds arbitrary post-magic connection bytes through the full
// decode→handle→encode path of a server with a federation node. The contract under fuzzing: never panic, answer
// every complete frame, name the byte offset when framing breaks, and emit
// only well-formed response frames that the client-side decoders accept.
func FuzzWireProto(f *testing.F) {
	f.Add(fuzzStream(AppendObserveRequest(nil, []trace.FileID{0, 1, 2})))
	f.Add(fuzzStream(
		AppendObserveRequest(nil, []trace.FileID{0, 1, 2}),
		AppendObserveRequest(nil, []trace.FileID{2, 1, 0, 2}),
		AppendPartitionRequest(nil)))
	f.Add(fuzzStream(AppendBatchRequest(nil, [][]trace.FileID{{0, 1}, {5, 6, 7}, {}})))
	f.Add(fuzzStream(AppendAdviseRequest(nil, cache.AdviceRequest{
		Capacity: 1000,
		Files:    []trace.FileID{0, 1, 2, 9},
		Resident: []cache.ResidentUnit{{Unit: 0, LastAccess: 3}, {Unit: 1 << 33, LastAccess: -1}},
	})))
	f.Add(fuzzStream(
		AppendObserveRequest(nil, []trace.FileID{0, 1, 2}),
		AppendSummaryRequest(nil),
		AppendFileculeRequest(nil, 1),
		AppendFileculeRequest(nil, 15))) // 15: observed in no job -> 404
	f.Add(fuzzStream(binary.AppendUvarint([]byte{KindFilecule}, 1<<63|1))) // ID that narrows to file 1 -> 400
	f.Add(fuzzStream([]byte{KindObserve, 0xff, 0xff}))                     // malformed payload
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff})                            // broken framing
	f.Add(fuzzStream(AppendObserveRequest(nil, []trace.FileID{3}))[:3])    // truncated frame
	// Federation deltas: whole, cut before its 'E', with an 'O' inside, and
	// a 'G' outside any delta.
	_, delta := deltaFrames(f, captureDelta(f, "remote", []trace.FileID{1, 2, 3}, []trace.FileID{2, 3}))
	observe := fuzzStream(AppendObserveRequest(nil, []trace.FileID{4}))
	f.Add(bytes.Join(append(delta, observe), nil))
	f.Add(bytes.Join(delta[:3], nil))
	f.Add(bytes.Join([][]byte{delta[0], delta[1], observe, delta[2], delta[3]}, nil))
	f.Add(bytes.Join([][]byte{delta[1], observe}, nil))

	f.Fuzz(func(t *testing.T, in []byte) {
		s := newFedTestServer(t, 16)
		s.Service.lim = narrowed(func(l *limits) { l.batchJobs = 64 })
		var out bytes.Buffer
		err := s.serveStream(&connState{},
			bufio.NewReader(bytes.NewReader(in)), bufio.NewWriter(&out), nil)
		if err != nil && !strings.Contains(err.Error(), "byte offset") {
			t.Fatalf("framing error does not name the byte offset: %v", err)
		}

		// Every response frame must decode cleanly with the client decoders.
		cr := trace.NewChunkReader(bytes.NewReader(out.Bytes()))
		for {
			kind, payload, rerr := cr.ReadChunk()
			if rerr != nil {
				break
			}
			pl := trace.NewPayload(payload)
			var derr error
			switch kind {
			case KindObserveResult:
				_, derr = decodeObserveReply(pl)
			case KindAdviceResult:
				_, derr = decodeAdviceReply(pl)
			case KindPartitionResult:
				_, derr = decodePartitionReply(pl)
			case KindSummaryResult:
				_, derr = decodeSummaryReply(pl)
			case KindFileculeResult:
				_, derr = decodeFileculeReply(pl)
			case fed.KindAck:
			case KindError:
				e := decodeError(pl)
				if _, ok := e.(*RemoteError); !ok {
					derr = e
				}
			default:
				t.Fatalf("server emitted unknown response kind %q", kind)
			}
			if derr != nil {
				t.Fatalf("server emitted undecodable %q response: %v", kind, derr)
			}
		}
	})
}
