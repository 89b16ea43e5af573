package faultsim

// RNG stream derivation. Every trial draws from its own math/rand stream,
// keyed by the trial's global index, so a run's result does not depend
// on how its trials are spread over workers. Deriving streams by adding
// small multiples of the base seed (the scheme this replaced) has two
// failure modes: distinct streams can collide exactly, and nearby
// additive seeds feed the generator visibly correlated streams. A
// splitmix64-style finalizer instead scatters every (base, stream) pair
// across the full 64-bit space.

// Stream-index spaces. Trial streams are dense indices from zero;
// checkpoint-chunk bases of durable campaigns (internal/jobs), the
// importance-sampling engine's trials and the splitting stages each get
// a space far above any plausible trial count, so no two overlap for the
// same base seed.
const (
	chunkStreamBase uint64 = 1 << 41
	rareStreamBase  uint64 = 1 << 42
	splitStreamBase uint64 = 1 << 43
)

const splitMixGamma = 0x9e3779b97f4a7c15 // 2^64 / golden ratio, odd

// mix64 is the splitmix64 finalizer (Steele, Lea & Flood, OOPSLA 2014).
func mix64(z uint64) uint64 {
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	return z ^ z>>31
}

// deriveSeed maps (base seed, stream index) to an RNG seed. Equal inputs
// give equal outputs, keeping seeded runs reproducible; distinct streams
// are decorrelated whatever their numeric distance.
func deriveSeed(base int64, stream uint64) int64 {
	return int64(mix64(uint64(base) + splitMixGamma*(stream+1)))
}

// trialSource is the RNG behind every trial: a splitmix64 counter stream
// implementing math/rand's Source64, reseeded per trial by one store.
// Every draw writes x, so it fills a cache line: two workers' sources
// sharing one cost ~30 ns a trial in false sharing.
type trialSource struct {
	x uint64
	_ [56]byte
}

func (s *trialSource) seedTrial(base int64, i uint64) { s.x = uint64(deriveSeed(base, i)) }
func (s *trialSource) Seed(seed int64)                { s.x = uint64(seed) }
func (s *trialSource) Int63() int64                   { return int64(s.Uint64() & (1<<63 - 1)) }

func (s *trialSource) Uint64() uint64 {
	s.x += splitMixGamma
	return mix64(s.x)
}

// ChunkSeed derives the base seed of checkpoint chunk i of a durable
// campaign (internal/jobs). Chunks are independent sub-runs merged with
// Merge; giving each its own decorrelated base makes a campaign's result
// a pure function of (base seed, chunk layout), so a resumed campaign
// reproduces an uninterrupted one bit for bit.
func ChunkSeed(base int64, chunk int) int64 {
	return deriveSeed(base, chunkStreamBase+uint64(chunk))
}

// SplitStreamSeed derives the RNG seed of one multilevel-splitting stage
// (internal/rare). Stages resample trajectory suffixes, so each needs
// its own stream, disjoint from every other seed space.
func SplitStreamSeed(base int64, stage int) int64 {
	return deriveSeed(base, splitStreamBase+uint64(stage))
}
