// idg-shard-worker: standalone shard worker binary (DESIGN.md §16).
//
// The coordinator normally re-execs its own binary (/proc/self/exe) in
// worker mode; this tool exists for coordinators that cannot — point
// ShardConfig::worker_path at it. It speaks IDGSHRD1 on stdin/stdout and
// nothing else.
#include "idg/backend.hpp"
#include "kernels/optimized.hpp"
#include "shard/worker.hpp"

int main() {
  // The kernel registry installs its resolver from a static initializer in
  // the object that defines kernels::kernel_set. Nothing else here calls
  // into that object, so without this reference the linker would leave it
  // out of the binary and every set but "reference" would fail to resolve.
  idg::set_kernel_set_resolver(&idg::kernels::kernel_set);
  return idg::shard::worker_entry();
}
