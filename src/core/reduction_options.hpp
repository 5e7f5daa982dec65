#pragma once
// ReductionOptions -- the public switchboard of the reduced exploration
// mode (ExploreMode::kReduced), split out of core/reduction.hpp so that
// configuration surfaces (core/explorer.hpp's ExploreConfig, tools,
// tests) can select reductions WITHOUT seeing the reduction engine's
// internals.  core/reduction.hpp (message digest, renamed hashing,
// absorption machinery) is a PRIVATE layer: ksa_analyze admits only
// core/reduction.cpp and core/explorer.cpp as importers
// (src/lint/layers.def).  This header is an ordinary `core` header.
//
// doc/performance.md carries the soundness argument for each switch.

namespace ksa::core {

/// Sub-config of ExploreConfig selecting which reductions kReduced
/// applies (kFast ignores it).  All default on; switching all off makes
/// kReduced run exactly as kFast does (the equivalence suite checks
/// bit-identical results and store counters for that configuration).
struct ReductionOptions {
    bool symmetry = true;  ///< canonicalize states under the symmetry group
    bool por = true;       ///< persistent-set partial-order reduction
    /// Observational absorption quotient: key decided processes on
    /// their decision alone when Algorithm::decided_is_final, and strip
    /// maximal inert buffer suffixes (Behavior::message_inert).
    bool absorption = true;
};

}  // namespace ksa::core
