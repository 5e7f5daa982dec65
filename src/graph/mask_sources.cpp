#include "graph/mask_sources.hpp"

#include <array>
#include <bit>

namespace ksa::graph {

namespace {

VertexMask bit(int v) { return VertexMask{1} << v; }

}  // namespace

int smallest_source_reaching(std::span<const VertexMask, kMaskVertices> in,
                             VertexMask vertices, int target) {
    if (target < 0 || target >= kMaskVertices || (vertices & bit(target)) == 0)
        return -1;

    // anc[v]: the vertices with a path of length >= 1 to v.  Warshall's
    // closure, one word per row: after the round for k, anc[v] holds
    // every u with a path to v whose inner vertices are all <= k.
    std::array<VertexMask, kMaskVertices> anc{};
    for (VertexMask m = vertices; m != 0; m &= m - 1) {
        const int v = std::countr_zero(m);
        anc[v] = in[v] & vertices & ~bit(v);
    }
    for (VertexMask km = vertices; km != 0; km &= km - 1) {
        const int k = std::countr_zero(km);
        for (VertexMask vm = vertices; vm != 0; vm &= vm - 1) {
            const int v = std::countr_zero(vm);
            if ((anc[v] & bit(k)) != 0) anc[v] |= anc[k];
        }
    }

    // v lies in a source component iff every ancestor of v is also a
    // descendant of v.  Candidates are target and its ancestors, in
    // ascending order, so the first hit is the smallest.
    for (VertexMask cm = anc[target] | bit(target); cm != 0; cm &= cm - 1) {
        const int v = std::countr_zero(cm);
        bool source = true;
        for (VertexMask um = anc[v]; um != 0 && source; um &= um - 1)
            source = (anc[std::countr_zero(um)] & bit(v)) != 0;
        if (source) return v;
    }
    return -1;
}

}  // namespace ksa::graph
