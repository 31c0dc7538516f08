// Package gateway implements the stateless query front tier: it
// terminates many cheap client connections on a length-prefixed JSON
// front protocol, multiplexes the admitted queries onto a bounded pool
// of owner engines (round-robin lease per query, with liveness-probed
// failover), and enforces admission control — per-tenant token-bucket
// rate limits over a bounded, deadline-aware waiting queue — so
// overload surfaces as typed load-shed errors instead of hangs.
//
// The tier holds no per-client durable state: a connection's tickets
// live exactly as long as the connection, and any gateway instance in
// front of the same owner pool answers any query identically. That is
// what lets the front tier scale horizontally while the owner engines
// (which hold the cryptographic views) stay a small bounded pool.
package gateway

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
)

// Front-protocol framing: a 4-byte big-endian length followed by that
// many bytes of JSON. JSON (not the peer-to-peer binary frame) because
// front clients are cheap and polyglot — a shell script with
// netcat-level tooling, a browser, or any language runtime can speak it
// without the protocol package's type table.
//
// MaxFrontFrame caps a request frame. Front requests are op + a few
// short strings; 1 MiB is orders of magnitude above any legitimate
// request while keeping the worst-case allocation a hostile length
// prefix can force small. Replies (which carry result cell lists) get
// the larger MaxReplyFrame.
const (
	MaxFrontFrame = 1 << 20  // 1 MiB: request frames (client → gateway)
	MaxReplyFrame = 64 << 20 // 64 MiB: reply frames (gateway → client)
)

// ErrFrameTooBig reports a length prefix above the frame cap. The
// decoder returns it before allocating anything, so a hostile prefix
// cannot force an over-allocation.
var ErrFrameTooBig = errors.New("gateway: frame exceeds size cap")

// Front-protocol ops.
const (
	OpSubmit = "submit" // enqueue a query, returns a ticket
	OpPoll   = "poll"   // fetch a submitted query's result by ticket
	OpPing   = "ping"   // liveness probe, answered by the gateway itself
)

// Request is one front-protocol client frame.
type Request struct {
	V  int    `json:"v,omitempty"`  // protocol version; 0 and 1 both mean v1
	ID string `json:"id,omitempty"` // client-chosen correlation id, echoed back

	// Op is "submit", "poll" or "ping".
	Op string `json:"op"`

	// Submit fields.
	Query     string   `json:"query,omitempty"`      // a kind-table name: psi|psu|count|psucount|sum|avg|psusum|psuavg|max|min|median
	Cols      []string `json:"cols,omitempty"`       // aggregation columns (sum/avg kinds) or column (max/min/median)
	Tenant    string   `json:"tenant,omitempty"`     // admission-control tenant ("" = the default tenant)
	TimeoutMS int64    `json:"timeout_ms,omitempty"` // query deadline (0 = gateway default)

	// Poll fields.
	Ticket string `json:"ticket,omitempty"`  // from the submit reply
	WaitMS int64  `json:"wait_ms,omitempty"` // block up to this long for the result (0 = return immediately)
}

// Response is one front-protocol gateway frame. A new field goes into
// appendResponse and fastResponse too: neither reads these tags.
type Response struct {
	ID string `json:"id,omitempty"` // echoes Request.ID
	OK bool   `json:"ok"`

	// Code classifies failures so clients can branch without parsing
	// Err: "shed", "timeout", "bad-request", "unsupported", "unknown-ticket",
	// "verification-failed" (a server's reply failed the owner's result
	// verification: a server lied), "backend", "closed", "too-large" (the
	// reply would pass MaxReplyFrame). Empty on success.
	Code string `json:"code,omitempty"`
	Err  string `json:"err,omitempty"`

	// Submit reply.
	Ticket string `json:"ticket,omitempty"`

	// Poll reply. Done=false means the query is still running (poll
	// again); the result fields are only meaningful when Done=true.
	Done    bool                         `json:"done,omitempty"`
	Cells   []uint64                     `json:"cells,omitempty"`
	Count   int                          `json:"count,omitempty"`
	Sums    map[string]map[uint64]uint64 `json:"sums,omitempty"`
	Counts  map[uint64]uint64            `json:"counts,omitempty"`
	Extreme map[uint64]uint64            `json:"extreme,omitempty"` // per-cell max/min/median value
	Global  *uint64                      `json:"global,omitempty"`  // query-global extreme

	// QueueMS is how long the query waited for its tenant's admission
	// token; ExecMS is the rest of the time from submit to the query
	// finishing, not to this poll: a result that sat waiting for its
	// poll does not count.
	QueueMS int64 `json:"queue_ms,omitempty"`
	ExecMS  int64 `json:"exec_ms,omitempty"`
}

// Failure codes (Response.Code).
const (
	CodeShed          = "shed"
	CodeTimeout       = "timeout"
	CodeBadRequest    = "bad-request"
	CodeUnsupported   = "unsupported"
	CodeUnknownTicket = "unknown-ticket"
	// CodeVerificationFailed: ownerengine.ErrVerificationFailed — a
	// server caught lying, not an outage.
	CodeVerificationFailed = "verification-failed"
	CodeBackend            = "backend"
	CodeClosed             = "closed"
	CodeTooLarge           = "too-large"
)

// ReadFrame reads one length-prefixed frame, allocating only after the
// announced length passes the cap — the property FuzzFrontProtocol
// holds the decoder to. A zero-length frame is an error (no JSON value
// is empty), which also keeps a stuck client from spinning the reader.
func ReadFrame(r io.Reader, max int) ([]byte, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n == 0 {
		return nil, errors.New("gateway: empty frame")
	}
	if int64(n) > int64(max) {
		return nil, fmt.Errorf("%w: %d bytes > %d", ErrFrameTooBig, n, max)
	}
	body := make([]byte, n)
	if _, err := io.ReadFull(r, body); err != nil {
		return nil, fmt.Errorf("gateway: truncated frame: %w", err)
	}
	return body, nil
}

// WriteFrame writes one length-prefixed frame.
func WriteFrame(w io.Writer, body []byte, max int) error {
	if len(body) > max {
		return fmt.Errorf("%w: %d bytes > %d", ErrFrameTooBig, len(body), max)
	}
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(len(body)))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(body)
	return err
}

// Request shape caps: a front request names an op and a handful of
// columns, so anything past these bounds is hostile or broken, not big.
const (
	maxIDLen     = 256
	maxTenantLen = 256
	maxTicketLen = 256
	maxQueryLen  = 64
	maxCols      = 64
	maxColLen    = 256
)

// DecodeRequest parses and validates one request frame. Every rejection
// is an error return — never a panic — regardless of input bytes; the
// fuzz harness drives junk, truncations and pathological JSON through
// here to hold that line.
func DecodeRequest(frame []byte) (*Request, error) {
	var req Request
	if err := json.Unmarshal(frame, &req); err != nil {
		return nil, fmt.Errorf("gateway: bad request frame: %w", err)
	}
	if req.V != 0 && req.V != 1 {
		return nil, fmt.Errorf("gateway: unsupported protocol version %d", req.V)
	}
	if len(req.ID) > maxIDLen {
		return nil, fmt.Errorf("gateway: id longer than %d bytes", maxIDLen)
	}
	switch req.Op {
	case OpPing:
	case OpSubmit:
		if len(req.Query) == 0 || len(req.Query) > maxQueryLen {
			return nil, errors.New("gateway: submit needs a query kind")
		}
		if len(req.Tenant) > maxTenantLen {
			return nil, fmt.Errorf("gateway: tenant longer than %d bytes", maxTenantLen)
		}
		if len(req.Cols) > maxCols {
			return nil, fmt.Errorf("gateway: more than %d columns", maxCols)
		}
		for _, c := range req.Cols {
			if len(c) == 0 || len(c) > maxColLen {
				return nil, errors.New("gateway: empty or oversized column name")
			}
		}
		if req.TimeoutMS < 0 {
			return nil, errors.New("gateway: negative timeout_ms")
		}
	case OpPoll:
		if len(req.Ticket) == 0 || len(req.Ticket) > maxTicketLen {
			return nil, errors.New("gateway: poll needs a ticket")
		}
		if req.WaitMS < 0 {
			return nil, errors.New("gateway: negative wait_ms")
		}
	default:
		return nil, fmt.Errorf("gateway: unknown op %q", req.Op)
	}
	return &req, nil
}
