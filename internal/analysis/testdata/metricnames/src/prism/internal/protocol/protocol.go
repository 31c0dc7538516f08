// Fixture protocol package: the request payload types whose handlers
// must time themselves.
package protocol

type PSIRequest struct{ Table string }

type CountRequest struct{ Table string }

type StoreDeltaRequest struct{ Table string }

type ListTablesReply struct{ Tables []string }
