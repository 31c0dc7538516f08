// Fixture protocol package: a wire struct whose literals must be keyed.
package protocol

type Range struct{ Offset, Count uint64 }
