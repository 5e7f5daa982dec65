#pragma once
// Source components on at most 64 vertices, bit-parallel.
//
// The Section VI decision rule asks one question of a small heard-from
// graph: which source component, of those from which a given vertex is
// reachable, has the smallest member?  The Digraph path answers it with
// an induced subgraph, Tarjan's decomposition (scc.hpp) and a
// reachability search.  Here a vertex set is one 64-bit word, the graph
// is one in-neighbour word per vertex, and the answer comes from a
// transitive closure on those words -- no allocation at all, which
// matters because the explorer evaluates the rule once per deciding
// candidate.  The test suite checks it against the Digraph path.

#include <cstdint>
#include <span>

namespace ksa::graph {

/// A set of vertices 0..63: bit v is vertex v.
using VertexMask = std::uint64_t;

/// Vertex capacity of a VertexMask.
inline constexpr int kMaskVertices = 64;

/// In the subgraph induced by `vertices`, the smallest member of the
/// smallest-member source component from which `target` is reachable
/// (equivalently: the smallest vertex that lies in a source component
/// and reaches `target`).  `in[v]` is the set of in-neighbours of v; it
/// is read only for v in `vertices`, and its bits outside `vertices`
/// and bit v itself are ignored.  Returns -1 when `target` is not a
/// vertex of `vertices` (every vertex of a finite digraph is reachable
/// from some source component, so this is the only -1 case).
int smallest_source_reaching(std::span<const VertexMask, kMaskVertices> in,
                             VertexMask vertices, int target);

}  // namespace ksa::graph
