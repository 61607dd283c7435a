// The OpenMP team size for one scope, for tests that pin results across
// team sizes. The pipelined executor sizes its kernel streams from the
// calling thread's team (DESIGN.md §9), so a one-thread team there means
// as many streams as the buffers allow.
#pragma once

#include <omp.h>

namespace idg::test {

/// Sets the calling thread's OpenMP team size for one scope.
class ScopedThreads {
 public:
  explicit ScopedThreads(int threads) : saved_(omp_get_max_threads()) {
    omp_set_num_threads(threads);
  }
  ~ScopedThreads() { omp_set_num_threads(saved_); }
  ScopedThreads(const ScopedThreads&) = delete;
  ScopedThreads& operator=(const ScopedThreads&) = delete;

 private:
  int saved_;
};

}  // namespace idg::test
