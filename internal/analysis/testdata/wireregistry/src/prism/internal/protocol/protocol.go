// Fixture: the type table covers PingRequest/PingReply but the
// seeded OrphanRequest is missing, and non-message helpers are exempt.
package protocol

// PingRequest is listed — clean.
type PingRequest struct{ A int }

// PingReply is listed — clean.
type PingReply struct{ B string }

// OrphanRequest is a wire message the type table forgot.
type OrphanRequest struct{ C uint64 } // want "not in the Messages() type table"

// Helper is exported but not a *Request/*Reply message; it need not be
// listed.
type Helper struct{ D int }

// unexportedRequest never crosses the wire as a message.
type unexportedRequest struct{ E int }

// Messages is the type table the analyzer reads.
func Messages() []any {
	return []any{
		PingRequest{}, PingReply{},
	}
}
