package transport

// FrameVersion exports frameVersion to the external tests.
const FrameVersion = frameVersion
