package mpi

// Stats accumulates per-rank communication and work counters. Ranks update
// their own entry without synchronization; read the aggregate only after
// Run returns (or inside a Barrier-delimited region).
type Stats struct {
	// BytesSent is always 0: the runtime has no point-to-point
	// messages. It stays until ROADMAP item 5's [benchmark] PR drops
	// the benchmark harness's read of it.
	BytesSent       int64
	Barriers        int64   // barrier entries
	Collectives     int64   // collective operations (excluding bare barriers)
	CollectiveBytes int64   // bytes contributed to collectives
	Ops             int64   // algorithm-defined work units (e.g. distance evaluations)
	ModeledCommSec  float64 // α-β modeled communication time, seconds
}

// Add accumulates other into s.
func (s *Stats) Add(other Stats) {
	s.BytesSent += other.BytesSent
	s.Barriers += other.Barriers
	s.Collectives += other.Collectives
	s.CollectiveBytes += other.CollectiveBytes
	s.Ops += other.Ops
	s.ModeledCommSec += other.ModeledCommSec
}

// AddOps records n units of rank-local work (used by the cost model to
// estimate the parallel computation time as max over ranks).
func (c *Comm) AddOps(n int64) { c.w.stats[c.rank].Ops += n }

// CostModel is a simple α-β (latency–bandwidth) communication model plus a
// per-work-unit compute cost. It converts the traffic counters into a
// modeled parallel execution time whose *shape* over p matches what the
// paper measured on SuperMUC (§5.3.2); absolute values depend on the
// constants and are not calibrated to that machine.
type CostModel struct {
	AlphaSec     float64 // latency per collective round
	BetaBytesSec float64 // bandwidth in bytes per second
	OpSec        float64 // seconds per work unit (distance evaluation etc.)
}

// DefaultCostModel returns constants loosely inspired by a fat-tree HPC
// interconnect (2 µs latency, 2 GB/s per-link effective bandwidth) and a
// 2 ns work unit.
func DefaultCostModel() CostModel {
	return CostModel{AlphaSec: 2e-6, BetaBytesSec: 2e9, OpSec: 2e-9}
}

// CollectiveLatency returns the latency of one tree-structured collective
// over p ranks: α·⌈log2 p⌉.
func (m CostModel) CollectiveLatency(p int) float64 {
	rounds := 0
	for v := p - 1; v > 0; v >>= 1 {
		rounds++
	}
	return m.AlphaSec * float64(rounds)
}

// CollectiveTime returns the modeled time for a collective where each rank
// contributes `bytes` bytes: tree latency plus bandwidth term.
func (m CostModel) CollectiveTime(p int, bytes int64) float64 {
	return m.CollectiveLatency(p) + float64(bytes)/m.BetaBytesSec
}

// ModeledTime summarizes a finished Run: computation is the maximum Ops
// over ranks times OpSec; communication is the maximum modeled
// communication time over ranks. The two maxima are summed — a slight
// overestimate (bulk-synchronous worst case), consistent across all
// partitioners compared in the experiments.
func (m CostModel) ModeledTime(stats []Stats) (compSec, commSec float64) {
	var maxOps int64
	for _, s := range stats {
		if s.Ops > maxOps {
			maxOps = s.Ops
		}
		if s.ModeledCommSec > commSec {
			commSec = s.ModeledCommSec
		}
	}
	return float64(maxOps) * m.OpSec, commSec
}
