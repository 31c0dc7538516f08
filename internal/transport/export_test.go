package transport

import "io"

// FrameVersion exports frameVersion to the external tests.
const FrameVersion = frameVersion

// readFrame reads one frame and decodes it by copy, handing its buffer
// back: a raw peer in a test reads what a server or client wrote.
func readFrame(r io.Reader) (*envelope, error) {
	body, err := readBody(r)
	if err != nil {
		return nil, err
	}
	env, _, err := openFrame(body, 0, false)
	return env, err
}
