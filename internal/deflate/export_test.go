package deflate

// Helpers of the in-package tests shared with the external test package,
// which can import the compressor.
var (
	RequireSameStarved = requireSameStarved
	MatchStream        = matchStream
)
