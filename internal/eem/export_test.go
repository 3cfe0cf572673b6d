package eem

// The supervisor's backoff bounds, for the external tests.
const (
	RedialBase = redialBase
	RedialMax  = redialMax
)

// CommaInboundSeeds are the server lines FuzzCommaInbound starts from.
var CommaInboundSeeds = commaInboundSeeds
