// Package dsort implements a distributed sample sort over the simulated
// MPI runtime.
//
// Geographer's first phase globally sorts all points by their Hilbert
// index and redistributes them so that each process owns a contiguous,
// spatially compact chunk (paper §4.1, Algorithm 2 lines 4–6). The paper
// uses the scalable quicksort of Axtmann et al.; this package substitutes
// a classic sample sort with the same communication pattern — local sort,
// splitter selection from regular samples, one personalized all-to-all,
// local merge — and the same postconditions (globally sorted by key,
// approximately balanced; RebalanceCols makes the balance exact).
//
// The records travel as SoA column batches (Cols, cols.go) with a radix
// local sort (radix.go), flat-buffer exchanges and a p-way merge. The
// tests pin the pipeline to a sequential oracle: gather every record,
// sort by (Key, ID), cut into balanced rank chunks.
package dsort

// samplesPerRank controls splitter quality; p·samplesPerRank keys are
// gathered globally. 32 keeps the imbalance after SampleSortCols within
// a few percent for the sizes used in the experiments.
const samplesPerRank = 32
