#pragma once

/// \file exp_batch.h
/// `std::exp` over an array, four lanes at a time where the CPU allows it,
/// with the bits of `std::exp` in every lane.
///
/// glibc (2.28 and later) runs one `exp` on x86-64: a 128-entry
/// table-and-polynomial routine with no branch on its main path, compiled
/// with FMA contractions for CPUs with AVX2 and FMA.  On such a CPU
/// `exp_batch` runs the same IEEE operations in the same order on four
/// lanes at once, so each lane rounds exactly like the scalar call.  Lanes
/// outside glibc's main path (|x| < 2^-54, |x| >= 512, inf and NaN) take
/// `std::exp` of their saved argument.  On any other CPU, or a build for
/// another architecture or C library, it is a plain scalar loop.  The
/// three entry points differ only in how a lane's argument is formed (and
/// which lanes are settled without an exp); they share one kernel body.
/// The path is chosen once per process; tests/util/exp_batch_test.cpp
/// checks the bits against `std::exp`.

#include <cstddef>

namespace ash::util {

/// y[i] = std::exp(x[i]) for i < n, bit for bit.  `y == x` (in place) is
/// allowed; other overlaps are not.
void exp_batch(const double* x, double* y, std::size_t n);

/// y[i] = std::exp(a[i] * s) for i < n, bit for bit (the product rounded
/// once, as the scalar expression).  `y == a` is allowed; other overlaps
/// are not.
void exp_scaled_batch(const double* a, double s, double* y, std::size_t n);

/// The decay factors of a first-order relaxation over an interval t:
/// y[i] = 1 where lambda[i] <= 0, 0 where lambda[i] * t > 700 (exp
/// underflows there anyway), otherwise std::exp(-(lambda[i] * t)), bit
/// for bit.  `y == lambda` is allowed; other overlaps are not.
void decay_batch(const double* lambda, double t, double* y, std::size_t n);

/// The path these take in this process: "avx2+fma" or "std::exp".
const char* exp_batch_path();

namespace detail {
/// exp_batch's 4-lane kernel itself, tail included.  Callable only when
/// exp_batch_path() is "avx2+fma"; exposed for the tests.
void exp_batch_avx2_fma(const double* x, double* y, std::size_t n);
}  // namespace detail

}  // namespace ash::util
