package rdm

// The protocol's timers and limits, for the external tests that size
// their runs and loads by them.
const (
	InitialRTO = initialRTO
	MinRTO     = minRTO
	MaxRTO     = maxRTO
	ByteTime   = byteTime
	AckDelay   = ackDelay
	NakDelay   = nakDelay
	MaxRexmits = maxRexmits
	Window     = window
	SndBuf     = sndBuf
	MaxMessage = maxMessage
	StaleAfter = staleAfter
	SweepEvery = sweepEvery
)
