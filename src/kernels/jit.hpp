// Runtime compilation of the optimized loops (paper §V-B: "we aid compiler
// assisted vectorization in the remainder of the kernel by using runtime
// compilation, i.e. we only compile the kernel when the parameters are
// known at runtime").
//
// On first use of a (subgrid_size, nr_channels) shape, the text of
// kernels/loops.hpp (embedded at build time) is compiled with the shape's
// pixel and channel counts as compile-time constants, -march=native and the
// polynomial sincos inlined, into a shared object that is dlopened. The
// "jit" kernel set (kernels/optimized.hpp) runs those loops; a shape whose
// compilation fails runs the static ones.
#pragma once

#include <cstddef>
#include <string>

#include "kernels/loops.hpp"

namespace idg::kernels {

/// The entry points of one compiled shape; null when it has none.
struct CompiledLoops {
  void (*grid)(const loops::GridArgs*) = nullptr;
  void (*degrid)(const loops::DegridArgs*) = nullptr;
};

/// The loops of one shape, compiled on first use. Thread-safe; compilation
/// happens at most once per shape per process, and compiled objects are
/// reused across processes via the persistent cache directory.
const CompiledLoops& jit_loops(std::size_t subgrid_size,
                               std::size_t nr_channels);

/// True if a toolchain is available and a probe compilation succeeded.
/// When false, jit_kernels() runs the static loops, like optimized_kernels().
bool jit_available();

/// The persistent object cache: $TMPDIR/idg-jit-<hash>, where the hash
/// covers the compiler version and flags. Objects are named by shape and a
/// hash of their source, so repeated runs and the autotuner reuse them,
/// while a compiler, flag or loop change compiles afresh. Publishing a
/// shape's object removes that shape's objects of other source hashes.
std::string jit_cache_directory();

}  // namespace idg::kernels
