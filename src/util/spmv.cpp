#include "util/spmv.hpp"

namespace nh::util::spmv {

void rowRangeReference(const std::size_t* rowPtr, const std::size_t* colIdx,
                       const double* val, const double* x, double* y,
                       std::size_t begin, std::size_t end) {
  for (std::size_t r = begin; r < end; ++r) {
    std::size_t k = rowPtr[r];
    const std::size_t kEnd = rowPtr[r + 1];
    double acc;
    if (kEnd - k >= kWideRowMinEntries) {
      // Register-blocked path for the dense-ish rows (27-point Galerkin
      // coarse operators, full-weighting restriction): eight independent
      // accumulators keep the gather/multiply pipeline full where the
      // 4-wide block stalls on the add latency chain.
      double a0 = 0.0, a1 = 0.0, a2 = 0.0, a3 = 0.0;
      double a4 = 0.0, a5 = 0.0, a6 = 0.0, a7 = 0.0;
      for (; k + 8 <= kEnd; k += 8) {
        a0 += val[k] * x[colIdx[k]];
        a1 += val[k + 1] * x[colIdx[k + 1]];
        a2 += val[k + 2] * x[colIdx[k + 2]];
        a3 += val[k + 3] * x[colIdx[k + 3]];
        a4 += val[k + 4] * x[colIdx[k + 4]];
        a5 += val[k + 5] * x[colIdx[k + 5]];
        a6 += val[k + 6] * x[colIdx[k + 6]];
        a7 += val[k + 7] * x[colIdx[k + 7]];
      }
      acc = ((a0 + a1) + (a2 + a3)) + ((a4 + a5) + (a6 + a7));
    } else {
      // Narrow rows keep the historical 4-wide pattern bit-for-bit: every
      // FV stencil row (7-point fine operators, trilinear prolongation)
      // lands here, so default solver results are unchanged.
      double a0 = 0.0, a1 = 0.0, a2 = 0.0, a3 = 0.0;
      for (; k + 4 <= kEnd; k += 4) {
        a0 += val[k] * x[colIdx[k]];
        a1 += val[k + 1] * x[colIdx[k + 1]];
        a2 += val[k + 2] * x[colIdx[k + 2]];
        a3 += val[k + 3] * x[colIdx[k + 3]];
      }
      acc = (a0 + a1) + (a2 + a3);
    }
    for (; k < kEnd; ++k) acc += val[k] * x[colIdx[k]];
    y[r] = acc;
  }
}

const char* activeKernelName() { return "scalar"; }

}  // namespace nh::util::spmv
