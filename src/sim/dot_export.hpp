#pragma once
// Graphviz export: space-time diagrams of runs.
//
// `run_to_dot` renders a recorded run as the classic space-time diagram
// (one horizontal lane per process, one node per step, message arrows
// between steps, decision/crash annotations) -- the picture one draws by
// hand when walking through a partitioning argument.
//
//   dot -Tsvg run.dot -o run.svg

#include <iosfwd>
#include <string>

#include "sim/run.hpp"

namespace ksa {

/// Options for the space-time rendering.
struct DotOptions {
    bool show_digests = false;   ///< annotate nodes with state digests
    bool show_payloads = true;   ///< label message arrows with payloads
    std::size_t max_steps = 400;  ///< truncate very long runs
};

/// Writes the space-time diagram of `run` to `out`.
void run_to_dot(std::ostream& out, const Run& run, const DotOptions& options = {});

/// The same, as a string.
std::string run_to_dot(const Run& run, const DotOptions& options = {});

}  // namespace ksa
