// SIMD hint layer for the kernels' element and lane loops. Every loop under
// XFLOW_SIMD is either element-wise independent or a fixed-lane
// accumulation, so vectorization never changes the arithmetic, only the
// speed; without the hint the loops run scalar with bitwise-identical
// results.
//
// GCC gets `#pragma GCC ivdep` (drop the aliasing checks), not
// `omp simd`: under `omp simd` GCC privatizes each addressable temporary
// of the loop body into a per-lane array before inlining, so a Half
// temporary -- the `T(v)` of every fp16 row loop -- reaches the vectorizer
// as a struct copy it cannot handle, and the loop runs scalar through
// memory, slower than with no hint at all. Clang lowers `omp simd` to
// loop metadata, and gets it when the toolchain has -fopenmp-simd (no
// OpenMP runtime).
#pragma once

#define XFLOW_PRAGMA(x) _Pragma(#x)
#if defined(__clang__) && defined(XFLOW_HAVE_OPENMP_SIMD)
#define XFLOW_SIMD XFLOW_PRAGMA(omp simd)
#elif defined(__GNUC__) && !defined(__clang__)
#define XFLOW_SIMD XFLOW_PRAGMA(GCC ivdep)
#else
#define XFLOW_SIMD
#endif
