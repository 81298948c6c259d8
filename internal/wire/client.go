package wire

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"net"
	"time"

	"filecule/internal/cache"
	"filecule/internal/fed"
	"filecule/internal/trace"
)

// Client is a filecule-wire/v1 connection. Every operation has a method that
// does one synchronous round trip. SendObserve/Flush/RecvObserve expose the
// protocol's FIFO pipelining for the operation worth pipelining: write any
// number of observes, flush once, then read the replies in order.
//
// A Client is not safe for concurrent use; open one per goroutine (the
// protocol is cheap enough that connections need not be shared).
type Client struct {
	conn    net.Conn
	bw      *bufio.Writer
	cr      *trace.ChunkReader
	pending []byte // request kinds awaiting replies, FIFO
	timeout time.Duration
	out     []byte // pooled request encode buffer
	err     error  // sticky: set once the stream is unusable
}

// Dial connects to a wire server and sends the protocol magic. timeout
// bounds the dial, each socket write and each receive; <= 0 means 30s.
func Dial(addr string, timeout time.Duration) (*Client, error) {
	if timeout <= 0 {
		timeout = 30 * time.Second
	}
	conn, err := net.DialTimeout("tcp", addr, timeout)
	if err != nil {
		return nil, err
	}
	c := NewClient(conn, timeout)
	if _, err := c.bw.WriteString(Magic); err != nil {
		conn.Close()
		return nil, err
	}
	return c, nil
}

// NewClient wraps an established connection (magic not yet sent — Dial sends
// it; tests using net.Pipe-like transports must write it themselves or use
// Dial).
func NewClient(conn net.Conn, timeout time.Duration) *Client {
	return &Client{
		conn:    conn,
		bw:      bufio.NewWriterSize(conn, 64<<10),
		cr:      trace.NewChunkReader(bufio.NewReaderSize(conn, 64<<10)),
		timeout: timeout,
	}
}

// Close closes the connection. Outstanding pipelined replies are abandoned.
func (c *Client) Close() error {
	c.poison(fmt.Errorf("wire: client closed"))
	return c.conn.Close()
}

func (c *Client) poison(err error) {
	if c.err == nil {
		c.err = err
	}
}

func (c *Client) send(payload []byte, wantReply byte) error {
	if c.err != nil {
		return c.err
	}
	if c.bw.Available() < len(payload)+binary.MaxVarintLen64+4 {
		c.armWrite() // the frame will not fit the buffer: it reaches the socket
	}
	if err := trace.WriteChunk(c.bw, payload); err != nil {
		c.poison(err)
		return err
	}
	c.pending = append(c.pending, wantReply)
	return nil
}

// SendObserve pipelines an 'O' request. Pair with RecvObserve.
func (c *Client) SendObserve(files []trace.FileID) error {
	c.out = AppendObserveRequest(c.out[:0], files)
	return c.send(c.out, KindObserveResult)
}

// Flush writes all pipelined requests to the connection.
func (c *Client) Flush() error {
	if c.err != nil {
		return c.err
	}
	c.armWrite()
	if err := c.bw.Flush(); err != nil {
		c.poison(err)
		return err
	}
	return nil
}

// armWrite bounds the socket writes a send or flush is about to make, so a
// peer that stops reading fails the call instead of pinning it.
func (c *Client) armWrite() {
	if c.timeout > 0 {
		c.conn.SetWriteDeadline(time.Now().Add(c.timeout))
	}
}

// RecvObserve reads the reply to the oldest pipelined observe.
func (c *Client) RecvObserve() (ObserveReply, error) {
	return recv(c, KindObserveResult, decodeObserveReply)
}

// recv reads the next response frame, checks it answers the oldest pipelined
// request, and decodes it. An 'e' frame is returned as *RemoteError with the
// connection still usable; framing, ordering or decode failures poison the
// client.
func recv[T any](c *Client, want byte, decode func(*trace.Payload) (T, error)) (r T, err error) {
	if c.err != nil {
		return r, c.err
	}
	if len(c.pending) == 0 || c.pending[0] != want {
		c.poison(fmt.Errorf("wire: receive out of order: no pipelined request awaits kind %q", want))
		return r, c.err
	}
	c.pending = c.pending[:copy(c.pending, c.pending[1:])]
	if c.timeout > 0 {
		c.conn.SetReadDeadline(time.Now().Add(c.timeout))
	}
	kind, payload, err := c.cr.ReadChunk()
	if err != nil {
		c.poison(fmt.Errorf("wire: read reply: %w", err))
		return r, c.err
	}
	pl := trace.NewPayload(payload)
	switch kind {
	case KindError:
		err = decodeError(pl)
		if _, remote := err.(*RemoteError); remote {
			return r, err
		}
	case want:
		r, err = decode(pl)
	default:
		err = fmt.Errorf("wire: reply kind %q, want %q", kind, want)
	}
	if err != nil {
		c.poison(err)
		var zero T
		return zero, err
	}
	return r, nil
}

// call does one synchronous round trip: send the request payload (encoded
// into c.out), flush, and read the reply of kind want.
func call[T any](c *Client, payload []byte, want byte, decode func(*trace.Payload) (T, error)) (r T, err error) {
	c.out = payload
	if err = c.send(payload, want); err == nil {
		err = c.Flush()
	}
	if err != nil {
		return r, err
	}
	return recv(c, want, decode)
}

// Observe does one synchronous observe round trip.
func (c *Client) Observe(files []trace.FileID) (ObserveReply, error) {
	return call(c, AppendObserveRequest(c.out[:0], files), KindObserveResult, decodeObserveReply)
}

// Batch does one synchronous batch round trip.
func (c *Client) Batch(jobs [][]trace.FileID) (ObserveReply, error) {
	return call(c, AppendBatchRequest(c.out[:0], jobs), KindObserveResult, decodeObserveReply)
}

// Advise does one synchronous advise round trip.
func (c *Client) Advise(req cache.AdviceRequest) (*AdviceReply, error) {
	return call(c, AppendAdviseRequest(c.out[:0], req), KindAdviceResult, decodeAdviceReply)
}

// Partition does one synchronous partition round trip.
func (c *Client) Partition() (*PartitionReply, error) {
	return call(c, AppendPartitionRequest(c.out[:0]), KindPartitionResult, decodePartitionReply)
}

// Summary does one synchronous summary round trip.
func (c *Client) Summary() (SummaryReply, error) {
	return call(c, AppendSummaryRequest(c.out[:0]), KindSummaryResult, decodeSummaryReply)
}

// Filecule does one synchronous per-file lookup round trip. A file observed
// in no job comes back as a *RemoteError with code 404, the connection still
// usable.
func (c *Client) Filecule(f trace.FileID) (*FileculeLookupReply, error) {
	return call(c, AppendFileculeRequest(c.out[:0], f), KindFileculeResult, decodeFileculeReply)
}

// FedTransport carries federation exchanges over filecule-wire/v1. A peer is
// the host:port of its wire listener; each exchange dials, sends the delta's
// frames as they are, reads the one reply and hangs up, since one exchange
// per peer per interval needs no pool. The context's deadline bounds the
// dial, the write and the read.
type FedTransport struct{}

// Exchange implements fed.Transport.
func (FedTransport) Exchange(ctx context.Context, peer string, delta []byte) ([]byte, error) {
	frames, ok := bytes.CutPrefix(delta, []byte(fed.Magic))
	if !ok {
		return nil, fmt.Errorf("wire: not a filecule-fed/v1 delta")
	}
	var d net.Dialer
	conn, err := d.DialContext(ctx, "tcp", peer)
	if err != nil {
		return nil, err
	}
	defer conn.Close()
	dl, _ := ctx.Deadline() // the zero time sets none
	conn.SetDeadline(dl)
	bufs := net.Buffers{[]byte(Magic), frames}
	if _, err := bufs.WriteTo(conn); err != nil {
		return nil, fmt.Errorf("wire: send delta to %s: %w", peer, err)
	}
	kind, payload, err := trace.NewChunkReader(conn).ReadChunk()
	if err != nil {
		return nil, fmt.Errorf("wire: read ack from %s: %w", peer, err)
	}
	switch kind {
	case fed.KindAck:
		return trace.AppendChunk([]byte(fed.Magic), payload), nil
	case KindError:
		return nil, decodeError(trace.NewPayload(payload))
	}
	return nil, fmt.Errorf("wire: reply kind %q from %s, want %q", kind, peer, fed.KindAck)
}
