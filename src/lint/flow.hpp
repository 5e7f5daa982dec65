#pragma once
// lint::flow -- the flow-sensitive whole-program passes built on the
// declaration model (decls.hpp).  Four rules, all about keeping the
// parallel engine's executions deterministic and race-free:
//
//   parallel-capture-mutation      a lambda handed to a parallel entry
//                                  point (parallel_map_grained,
//                                  TaskScheduler::run_chunked)
//                                  writes a by-reference capture that
//                                  is not an atomic, not under a lock
//                                  and not a per-index element slot.
//   nondet-iteration-reaches-output
//                                  a range-for over an unordered
//                                  container whose body reaches digest
//                                  folds / JSON emission / KSARUN
//                                  trace writing, directly or through
//                                  the name-matched call graph.
//   lock-discipline                `ksa: guarded_by(mu)` members are
//                                  touched only in functions whose
//                                  body locks `mu` (or that opt out
//                                  with `ksa: thread_safe`); public
//                                  src/exec/ header entry points must
//                                  carry an annotation.
//   blocking-in-task               a `ksa: wait_free` body must not
//                                  lock, wait, do stream IO or call
//                                  allocation-heavy vocabulary.
//
// Soundness stance (doc/analysis.md §3): token-level flow analysis is
// deliberately tuned so imprecision surfaces as MISSED findings on
// exotic code, never as noise on idiomatic code -- the rules gate CI,
// so false positives would train people to sprinkle suppressions.

#include <vector>

#include "lint/decls.hpp"
#include "lint/rules.hpp"
#include "lint/source_file.hpp"

namespace ksa::lint {

std::vector<Finding> check_parallel_capture_mutation(
    const std::vector<SourceFile>& files, const DeclModel& decls);

std::vector<Finding> check_nondet_iteration(
    const std::vector<SourceFile>& files, const DeclModel& decls);

std::vector<Finding> check_lock_discipline(
    const std::vector<SourceFile>& files, const DeclModel& decls);

std::vector<Finding> check_blocking_in_task(
    const std::vector<SourceFile>& files, const DeclModel& decls);

/// All four passes in rule-table order, concatenated (convenience for
/// the analyzer and the fixture tests).
std::vector<Finding> run_flow_passes(const std::vector<SourceFile>& files,
                                     const DeclModel& decls);

}  // namespace ksa::lint
