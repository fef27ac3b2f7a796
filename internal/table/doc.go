// Package table implements the columnar in-memory dataframe engine that
// underpins DataLab: SQL cells execute against it, Python-cell data
// operations run on it, and the profiling/insight modules read statistics
// from it. It plays the role pandas plus the warehouse storage layer play
// in the paper's deployment.
//
// # Storage model
//
// A [Table] is a named list of equal-length [Column] values. Each column
// stores its cells in one typed Go slice selected by the column's [Kind]
// plus a parallel null bitmap; row-oriented callers go through the boxed
// [Value] view (Value, Append, Set), hot paths read the typed slices
// directly (Ints, Floats, Strings, Bools, Times). Appending a cell of a
// mismatched kind degrades the column to boxed []Value storage, which
// preserves heterogeneous data exactly at the cost of the typed fast
// paths.
//
// # Row sets and bulk movement
//
// [Selection] is the engine's description of which rows of a relation
// survive a filter: either a list of [Span] ranges (long runs cost two
// ints regardless of length) or a dense ascending index vector, chosen by
// density at construction. The bulk gather primitives move cells by the
// container that describes them: [Column.View] is a zero-copy window,
// [Column.GatherSel] copies a Selection span-at-a-time,
// [Column.Gather] materializes an arbitrary index list, and
// [Column.GatherPairs] is the join primitive — an index list plus an
// explicit null mask for outer-join padding.
//
// The SQL engine's hash join (package sqlengine) is built from this
// package's pieces: [NewHashProbe] indexes the build side, [JoinPairs]
// records matches and outer-join padding for each [JoinKind], and
// [Column.GatherPairs] assembles the output columns.
//
// See docs/ENGINE.md at the repository root for how these pieces compose
// into the full query lifecycle.
package table
