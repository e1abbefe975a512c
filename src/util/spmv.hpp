#pragma once
/// \file spmv.hpp
/// CSR sparse matrix-vector row kernel. rowRangeReference fixes the
/// accumulation order:
///  * narrow rows (< kWideRowMinEntries entries) use the 4-accumulator
///    stride-4 pattern the solver stack has always used (lane i accumulates
///    entries k, k+4, k+8, ...; lanes reduce as (a0+a1)+(a2+a3); remaining
///    entries fold into the reduced sum one by one) -- bit-identical to the
///    original kernel, which keeps the tracked experiment baselines intact,
///  * wide rows (>= kWideRowMinEntries, i.e. the dense-ish 27-point Galerkin
///    coarse rows and the full-weighting restriction rows) are routed
///    through a register-blocked 8-accumulator path (two 4-lane blocks per
///    step, reduced as ((a0+a1)+(a2+a3)) + ((a4+a5)+(a6+a7))).

#include <cstddef>

namespace nh::util::spmv {

/// Row width at/above which a row takes the register-blocked 8-accumulator
/// path. 16 keeps every FV stencil row (7-point fine operators, <= 8-entry
/// trilinear prolongation rows) on the baseline-compatible 4-wide pattern
/// while catching the 27-point Galerkin coarse rows and the restriction rows.
constexpr std::size_t kWideRowMinEntries = 16;

/// For every row r in [begin, end), y[r] = sum_k val[k] * x[colIdx[k]] over
/// the row's CSR range, accumulated in the blocked order above. Rows outside
/// [begin, end) are not touched, so disjoint ranges may run on different
/// threads.
void rowRangeReference(const std::size_t* rowPtr, const std::size_t* colIdx,
                       const double* val, const double* x, double* y,
                       std::size_t begin, std::size_t end);

/// Always "scalar" (the only kernel); recorded in the perf-bench context.
const char* activeKernelName();

}  // namespace nh::util::spmv
