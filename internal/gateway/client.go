package gateway

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"time"
)

// Client is a minimal front-protocol client: one TCP connection, one
// request in flight at a time (submit → poll loop). It exists for the
// test battery, the repo benchmark's gateway workload and operational
// smoke checks; production clients are expected to reimplement the trivial
// framing in their own language.
type Client struct {
	conn net.Conn
	br   *bufio.Reader
	seq  uint64
}

// Dial connects to a gateway's front listener.
func Dial(addr string) (*Client, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return &Client{conn: conn, br: bufio.NewReader(conn)}, nil
}

// Close tears the connection down (cancelling any in-flight queries
// submitted on it — tickets are connection-scoped).
func (c *Client) Close() error { return c.conn.Close() }

// replyGrace is how long past a poll's wait the client awaits any reply.
const replyGrace = 2 * time.Second

// roundTrip sends one request frame and reads one response frame. A
// read that times out leaves the connection mid-stream: close the client.
func (c *Client) roundTrip(req *Request) (*Response, error) {
	c.seq++
	req.ID = fmt.Sprintf("c%d", c.seq)
	body, err := json.Marshal(req)
	if err != nil {
		return nil, err
	}
	if err := WriteFrame(c.conn, body, MaxFrontFrame); err != nil {
		return nil, err
	}
	// A gateway that misses the poll's wait by the grace is gone, not slow.
	wait := time.Duration(req.WaitMS) * time.Millisecond
	if err := c.conn.SetReadDeadline(time.Now().Add(wait + replyGrace)); err != nil {
		return nil, err
	}
	frame, err := ReadFrame(c.br, MaxReplyFrame)
	if err != nil {
		return nil, err
	}
	resp, err := decodeResponse(frame)
	if err != nil {
		return nil, fmt.Errorf("gateway: bad reply frame: %w", err)
	}
	if resp.ID != req.ID {
		return nil, fmt.Errorf("gateway: reply id %q for request %q", resp.ID, req.ID)
	}
	return resp, nil
}

// Ping round-trips a liveness probe through the gateway.
func (c *Client) Ping() error {
	resp, err := c.roundTrip(&Request{Op: OpPing})
	if err != nil {
		return err
	}
	if !resp.OK {
		return fmt.Errorf("gateway: ping refused: %s", resp.Err)
	}
	return nil
}

// Submit enqueues one query and returns its ticket. A load-shed
// rejection comes back as an error wrapping ErrLoadShed, so callers
// (and the overload benchmark) can count sheds with errors.Is.
func (c *Client) Submit(kind string, cols []string, tenant string, timeout time.Duration) (string, error) {
	resp, err := c.roundTrip(&Request{
		Op: OpSubmit, Query: kind, Cols: cols, Tenant: tenant,
		TimeoutMS: timeout.Milliseconds(),
	})
	if err != nil {
		return "", err
	}
	if !resp.OK {
		if resp.Code == CodeShed {
			return "", fmt.Errorf("%w: %s", ErrLoadShed, resp.Err)
		}
		return "", errors.New(resp.Err)
	}
	return resp.Ticket, nil
}

// Poll fetches a submitted query's result, blocking server-side up to
// wait. Done=false means still running.
func (c *Client) Poll(ticket string, wait time.Duration) (*Response, error) {
	return c.roundTrip(&Request{Op: OpPoll, Ticket: ticket, WaitMS: wait.Milliseconds()})
}

// Query is the synchronous convenience: submit, then poll until the
// result lands or timeout passes end to end. A timeout ≤ 0 runs under
// the gateway's DefaultTimeout, which the client does not know, so it
// polls until the gateway answers — as it does by that deadline.
func (c *Client) Query(kind string, cols []string, tenant string, timeout time.Duration) (*Response, error) {
	ticket, err := c.Submit(kind, cols, tenant, timeout)
	if err != nil {
		return nil, err
	}
	deadline := time.Now().Add(timeout + replyGrace)
	for {
		wait := time.Until(deadline)
		if timeout <= 0 {
			wait = 30 * time.Second // one long poll; the loop re-polls
		} else if wait <= 0 {
			return nil, fmt.Errorf("gateway: query %s: client-side poll deadline exceeded", kind)
		}
		resp, err := c.Poll(ticket, wait)
		if err != nil {
			return nil, err
		}
		if !resp.Done {
			continue
		}
		if !resp.OK {
			if resp.Code == CodeShed {
				return resp, fmt.Errorf("%w: %s", ErrLoadShed, resp.Err)
			}
			return resp, fmt.Errorf("gateway: query %s failed (%s): %s", kind, resp.Code, resp.Err)
		}
		return resp, nil
	}
}
