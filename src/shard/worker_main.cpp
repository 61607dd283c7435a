// idg-shard-worker: standalone shard worker binary (DESIGN.md §16).
//
// The coordinator normally re-execs its own binary (/proc/self/exe) in
// worker mode; this tool exists for coordinators that cannot — point
// ShardConfig::worker_path at it. It speaks IDGSHRD1 on stdin/stdout and
// nothing else.
#include "shard/worker.hpp"

int main() { return idg::shard::worker_entry(); }
