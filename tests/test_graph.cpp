// Unit and property tests for the graph library: digraphs, SCCs,
// condensation, source components (Lemmas 6 and 7), the bit-parallel
// source-component rule.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <ostream>

#include "graph/digraph.hpp"
#include "graph/generators.hpp"
#include "graph/mask_sources.hpp"
#include "graph/scc.hpp"

namespace ksa::graph {
namespace {

Digraph cycle(int n) {
    Digraph g(n);
    for (int i = 0; i < n; ++i) g.add_edge(i, (i + 1) % n);
    return g;
}

/// Vertices reachable from any vertex in `from` (including `from`
/// itself), sorted: a plain search, the oracle for the Lemma 7 sweep
/// and for the bit-parallel rule below.
std::vector<int> reachable_from(const Digraph& g, const std::vector<int>& from) {
    std::vector<bool> seen(g.num_vertices(), false);
    std::vector<int> stack;
    for (int v : from)
        if (!seen[v]) seen[v] = true, stack.push_back(v);
    while (!stack.empty()) {
        int u = stack.back();
        stack.pop_back();
        for (int w : g.successors(u))
            if (!seen[w]) seen[w] = true, stack.push_back(w);
    }
    std::vector<int> out;
    for (int v = 0; v < g.num_vertices(); ++v)
        if (seen[v]) out.push_back(v);
    return out;
}

TEST(Digraph, EdgesAndDegrees) {
    Digraph g(4);
    g.add_edge(0, 1);
    g.add_edge(0, 2);
    g.add_edge(3, 1);
    g.add_edge(0, 1);  // idempotent
    EXPECT_EQ(g.num_edges(), 3u);
    EXPECT_TRUE(g.has_edge(0, 1));
    EXPECT_FALSE(g.has_edge(1, 0));
    EXPECT_EQ(g.in_degree(1), 2);
    EXPECT_EQ(g.out_degree(0), 2);
    EXPECT_EQ(g.min_in_degree(), 0);
    EXPECT_EQ(g.successors(0), (std::vector<int>{1, 2}));
    EXPECT_EQ(g.predecessors(1), (std::vector<int>{0, 3}));
}

TEST(Digraph, RejectsSelfLoopsAndBadVertices) {
    Digraph g(3);
    EXPECT_THROW(g.add_edge(1, 1), UsageError);
    EXPECT_THROW(g.add_edge(0, 5), UsageError);
    EXPECT_THROW(g.has_edge(-1, 0), UsageError);
}

TEST(Digraph, ReverseAndInduced) {
    Digraph g(4);
    g.add_edge(0, 1);
    g.add_edge(1, 2);
    g.add_edge(2, 3);
    Digraph r = g.reversed();
    EXPECT_TRUE(r.has_edge(1, 0));
    EXPECT_TRUE(r.has_edge(3, 2));
    EXPECT_EQ(r.num_edges(), 3u);

    std::vector<int> labels;
    Digraph sub = g.induced({1, 2, 3}, &labels);
    EXPECT_EQ(sub.num_vertices(), 3);
    EXPECT_EQ(sub.num_edges(), 2u);  // 1->2, 2->3 survive as 0->1, 1->2
    EXPECT_TRUE(sub.has_edge(0, 1));
    EXPECT_EQ(labels, (std::vector<int>{1, 2, 3}));
}

TEST(Digraph, WeaklyConnectedComponents) {
    Digraph g(5);
    g.add_edge(0, 1);
    g.add_edge(3, 2);
    auto wccs = weakly_connected_components(g);
    ASSERT_EQ(wccs.size(), 3u);
    EXPECT_EQ(wccs[0], (std::vector<int>{0, 1}));
    EXPECT_EQ(wccs[1], (std::vector<int>{2, 3}));
    EXPECT_EQ(wccs[2], (std::vector<int>{4}));
}

TEST(Scc, CycleIsOneComponent) {
    SccDecomposition dec(cycle(5));
    EXPECT_EQ(dec.num_components(), 1);
    EXPECT_EQ(dec.members(0).size(), 5u);
    EXPECT_EQ(dec.source_components().size(), 1u);
}

TEST(Scc, ChainDecomposesIntoSingletons) {
    Digraph g(4);
    g.add_edge(0, 1);
    g.add_edge(1, 2);
    g.add_edge(2, 3);
    SccDecomposition dec(g);
    EXPECT_EQ(dec.num_components(), 4);
    Digraph dag = dec.condensation();
    EXPECT_EQ(dag.num_edges(), 3u);
    auto sources = dec.source_components();
    ASSERT_EQ(sources.size(), 1u);
    EXPECT_EQ(sources[0], (std::vector<int>{0}));
}

TEST(Scc, TwoCyclesWithBridge) {
    // cycle {0,1,2} -> cycle {3,4}: the first is the only source.
    Digraph g(5);
    g.add_edge(0, 1);
    g.add_edge(1, 2);
    g.add_edge(2, 0);
    g.add_edge(3, 4);
    g.add_edge(4, 3);
    g.add_edge(2, 3);
    SccDecomposition dec(g);
    EXPECT_EQ(dec.num_components(), 2);
    auto sources = dec.source_components();
    ASSERT_EQ(sources.size(), 1u);
    EXPECT_EQ(sources[0], (std::vector<int>{0, 1, 2}));
}

TEST(Scc, DeepChainDoesNotOverflow) {
    const int n = 200000;
    Digraph g(n);
    for (int i = 0; i + 1 < n; ++i) g.add_edge(i, i + 1);
    SccDecomposition dec(g);  // iterative Tarjan: no stack overflow
    EXPECT_EQ(dec.num_components(), n);
}

// ------------------------------------------- Lemma 6 / 7 property sweeps

struct LemmaParam {
    int n;
    int delta;
    std::uint64_t seed;
};

class SourceComponentProperty : public ::testing::TestWithParam<LemmaParam> {};

TEST_P(SourceComponentProperty, Lemma6SizeAndCountBounds) {
    const auto [n, delta, seed] = GetParam();
    Digraph g = random_min_indegree(n, delta, seed);
    ASSERT_GE(g.min_in_degree(), delta);
    auto sources = source_components(g);
    ASSERT_FALSE(sources.empty());
    for (const auto& sc : sources)
        EXPECT_GE(static_cast<int>(sc.size()), delta + 1)
            << "source component smaller than delta+1";
    EXPECT_LE(static_cast<int>(sources.size()), n / (delta + 1));
    // 2*delta >= n  =>  unique source component.
    if (2 * delta >= n) {
        EXPECT_EQ(sources.size(), 1u);
    }
}

TEST_P(SourceComponentProperty, Lemma7PerWeaklyConnectedComponent) {
    const auto [n, delta, seed] = GetParam();
    Digraph g = random_min_indegree(n, delta, seed);
    auto per_wcc = source_components_per_wcc(g);
    for (const auto& sources : per_wcc) {
        ASSERT_FALSE(sources.empty());
        for (const auto& sc : sources)
            EXPECT_GE(static_cast<int>(sc.size()), delta + 1);
    }
}

TEST_P(SourceComponentProperty, EveryVertexReachesFromSomeSource) {
    const auto [n, delta, seed] = GetParam();
    if (delta == 0) return;  // the claim needs positive in-degree
    Digraph g = random_min_indegree(n, delta, seed);
    std::vector<bool> reached(n, false);
    for (const auto& sc : source_components(g))
        for (int v : reachable_from(g, sc)) reached[v] = true;
    for (int v = 0; v < n; ++v)
        EXPECT_TRUE(reached[v]) << "vertex " << v << " unreachable";
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, SourceComponentProperty,
    ::testing::Values(LemmaParam{4, 1, 1}, LemmaParam{6, 2, 2},
                      LemmaParam{8, 3, 3}, LemmaParam{10, 2, 4},
                      LemmaParam{12, 5, 5}, LemmaParam{16, 7, 6},
                      LemmaParam{20, 4, 7}, LemmaParam{24, 11, 8},
                      LemmaParam{30, 9, 9}, LemmaParam{40, 19, 10},
                      LemmaParam{9, 1, 11}, LemmaParam{15, 6, 12}));

// The FLP stage graph: every live vertex has in-degree exactly L-1.
struct StageParam {
    int n;
    int l_minus_1;
    int dead;
    std::uint64_t seed;
};

// Names each instance by its fields, so the test names do not depend on
// the struct's padding bytes (gtest's default prints the raw object).
void PrintTo(const StageParam& p, std::ostream* os) {
    *os << "n" << p.n << "_lminus1_" << p.l_minus_1 << "_dead" << p.dead
        << "_seed" << p.seed;
}

class StageGraphProperty : public ::testing::TestWithParam<StageParam> {};

TEST_P(StageGraphProperty, SourceComponentBoundMatchesTheorem8Arithmetic) {
    const auto [n, l1, dead_count, seed] = GetParam();
    std::vector<int> dead;
    for (int i = 0; i < dead_count; ++i) dead.push_back(i);
    Digraph g = random_stage_graph(n, l1, dead, seed);

    // Restrict attention to live vertices (dead ones are isolated).
    std::vector<int> live;
    for (int v = dead_count; v < n; ++v) live.push_back(v);
    Digraph sub = g.induced(live);
    auto sources = source_components(sub);
    const int live_n = n - dead_count;
    EXPECT_LE(static_cast<int>(sources.size()), live_n / (l1 + 1));
    for (const auto& sc : sources)
        EXPECT_GE(static_cast<int>(sc.size()), l1 + 1);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, StageGraphProperty,
    ::testing::Values(StageParam{6, 1, 2, 21}, StageParam{8, 3, 2, 22},
                      StageParam{10, 4, 3, 23}, StageParam{12, 3, 4, 24},
                      StageParam{15, 7, 0, 25}, StageParam{20, 9, 5, 26}));

// ------------------------------ the bit-parallel source-component rule
//
// smallest_source_reaching must give, for every target vertex of every
// induced subgraph, what the Digraph path gives: the smallest member of
// the smallest-member source component from which the target is
// reachable.

using InMasks = std::array<VertexMask, kMaskVertices>;

/// Checks smallest_source_reaching(in, vertices, t) against the Digraph
/// rule -- source_components of the subgraph induced by `vertices`,
/// then reachable_from each of them -- for the largest vertex t and
/// every `stride`-th one below it, and for one t outside `vertices`.
void expect_matches_digraph_rule(const InMasks& in, VertexMask vertices,
                                 int stride = 1) {
    std::vector<int> ids;  // ascending, so local order is global order
    for (VertexMask m = vertices; m != 0; m &= m - 1)
        ids.push_back(std::countr_zero(m));
    const int k = static_cast<int>(ids.size());
    Digraph sub(k);
    for (int w = 0; w < k; ++w)
        for (int u = 0; u < k; ++u)
            if (u != w && ((in[ids[w]] >> ids[u]) & 1) != 0) sub.add_edge(u, w);
    const std::vector<std::vector<int>> sources = source_components(sub);
    std::vector<std::vector<int>> reach;
    for (const auto& sc : sources) reach.push_back(reachable_from(sub, sc));
    for (int t = k - 1; t >= 0; t -= stride) {
        int expected = -1;
        for (std::size_t i = 0; i < sources.size(); ++i)
            if (std::binary_search(reach[i].begin(), reach[i].end(), t)) {
                const int member = ids[sources[i].front()];
                if (expected == -1 || member < expected) expected = member;
            }
        ASSERT_GE(expected, 0);
        ASSERT_EQ(smallest_source_reaching(in, vertices, ids[t]), expected)
                << "target " << ids[t] << " in " << sub.to_string();
    }
    if (vertices != ~VertexMask{0}) {
        EXPECT_EQ(smallest_source_reaching(in, vertices,
                                           std::countr_one(vertices)),
                  -1);
    }
}

TEST(MaskSources, MatchesDigraphRuleOnEveryGraphUpToFourVertices) {
    for (int n = 1; n <= 4; ++n) {
        std::vector<std::pair<int, int>> pairs;
        for (int u = 0; u < n; ++u)
            for (int v = 0; v < n; ++v)
                if (u != v) pairs.emplace_back(u, v);
        for (unsigned edges = 0; edges < (1u << pairs.size()); ++edges) {
            InMasks in{};
            for (std::size_t i = 0; i < pairs.size(); ++i)
                if (((edges >> i) & 1u) != 0)
                    in[pairs[i].second] |= VertexMask{1} << pairs[i].first;
            for (VertexMask subset = 1; subset < (VertexMask{1} << n); ++subset) {
                expect_matches_digraph_rule(in, subset);
                if (HasFatalFailure()) return;
            }
        }
    }
}

TEST(MaskSources, MatchesDigraphRuleOnRandomGraphsUpTo64Vertices) {
    // splitmix64: the sweep draws about 4k words per graph.
    std::uint64_t state = 0x5eed;
    auto rng = [&state] {
        std::uint64_t z = (state += 0x9e3779b97f4a7c15ull);
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
        return z ^ (z >> 31);
    };
    // Density as expected in-degree: low degrees leave many source
    // components, high ones a single strongly connected graph.
    const double degrees[] = {0.3, 1.0, 2.0, 4.0, 8.0, 16.0};
    const double keep[] = {0.3, 0.7, 1.0};
    for (int trial = 0; trial < 20000; ++trial) {
        // Every fourth graph is full-width, and the last vertex is always
        // kept: vertex 63 (the top bit) is a vertex and a target.
        const int n = trial % 4 == 0 ? 64 : 5 + static_cast<int>(rng() % 60);
        const double p = std::min(1.0, degrees[rng() % 6] / (n - 1));
        const auto edge_cut = static_cast<std::uint64_t>(p * 0x1p64);
        InMasks in{};
        for (int v = 0; v < n; ++v)
            for (int u = 0; u < n; ++u)
                if (u != v && rng() < edge_cut) in[v] |= VertexMask{1} << u;
        const auto vertex_cut = static_cast<std::uint64_t>(
                std::min(keep[rng() % 3] * 0x1p64, 0x1p64 - 2048));
        VertexMask vertices = VertexMask{1} << (n - 1);
        for (int v = 0; v < n - 1; ++v)
            if (rng() < vertex_cut) vertices |= VertexMask{1} << v;
        // About eight targets per graph: each query redoes the closure.
        const int stride = (std::popcount(vertices) + 7) / 8;
        expect_matches_digraph_rule(in, vertices, stride);
        if (HasFatalFailure()) return;
    }
}

TEST(Generators, GnpRespectsBounds) {
    Digraph empty = random_gnp(10, 0.0, 1);
    EXPECT_EQ(empty.num_edges(), 0u);
    Digraph full = random_gnp(10, 1.0, 1);
    EXPECT_EQ(full.num_edges(), 90u);
    EXPECT_THROW(random_gnp(5, 1.5, 1), UsageError);
}

TEST(Generators, MinIndegreeValidation) {
    EXPECT_THROW(random_min_indegree(4, 4, 1), UsageError);
    EXPECT_THROW(random_stage_graph(4, 3, {0}, 1), UsageError);
}

}  // namespace
}  // namespace ksa::graph
