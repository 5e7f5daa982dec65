#pragma once
// The fault-injection adversary: a Scheduler decorator.
//
// A FaultInjector wraps any base Scheduler (round-robin, random,
// partition, lockstep, ...) and perturbs its choices with the channel
// and process faults described by a ChaosProfile:
//
//   * drop      -- a buffered message is removed permanently
//                  (FaultAction::kDropMessage);
//   * duplicate -- a buffered message is cloned into its destination
//                  buffer (FaultAction::kDuplicateMessage), to be
//                  re-delivered stale at some later step;
//   * delay     -- a message the base scheduler wanted delivered now is
//                  withheld for a bounded number of steps (no fault
//                  event: withholding is ordinary asynchrony);
//   * burst     -- for a few consecutive steps nothing is delivered at
//                  all (a transient partition of everyone);
//   * crash     -- a staggered mid-run crash of a so-far-correct
//                  process, with per-destination send omissions on its
//                  final step (FaultAction::kCrashProcess extends the
//                  effective FailurePlan);
//   * corrupt   -- a buffered message is rewritten in place through the
//                  seeded Byzantine mutator (FaultAction::kCorruptMessage)
//                  and delivered as its forged self;
//   * equivocate - a buffered broadcast is forked into per-receiver
//                  divergent variants (FaultAction::kEquivocate): the
//                  sender becomes a Byzantine equivocator.
//
// Byzantine injection is budgeted per victim *sender*: the profile caps
// the number of distinct Byzantine senders (max_byzantine, the f of the
// Bouzid-Imbs-Raynal grid; -1 = n-1 so at least one process stays
// honest) and the fault events charged to each (max_faults_per_victim).
//
// All decisions derive from the profile's seed; iteration is over
// buffer order and process-id order only.  The injected fault events
// ride inside the StepChoice, are recorded into the Run and are
// serialized by sim/serialize.cpp, so a chaos run replays bit-
// identically through the ordinary ksa-verify DeterminismAuditor.
//
// In guard mode (ChaosProfile::Mode::kAdmissible) the injector promises
// an admissible run: drops aimed at correct destinations are converted
// into bounded delays, and once the base scheduler stops, a fair
// round-robin drain delivers everything still buffered and realizes
// every pending planned crash.  In havoc mode the drops are real; the
// resulting run violates eventual delivery and check_admissibility
// reports exactly that.

#include <cstdint>
#include <map>
#include <random>
#include <set>
#include <string>

#include "chaos/profile.hpp"
#include "sim/scheduler.hpp"
#include "sim/schedulers.hpp"

namespace ksa::chaos {

/// What the injector actually did; reported next to sweep results and
/// used by tests to confirm the dice were live.
struct ChaosStats {
    int drops = 0;          ///< kDropMessage faults issued
    int duplicates = 0;     ///< kDuplicateMessage faults issued
    int delays = 0;         ///< messages withheld (incl. guard-converted drops)
    int bursts = 0;         ///< delay bursts started
    int crashes = 0;        ///< kCrashProcess faults issued
    int corruptions = 0;    ///< kCorruptMessage faults issued
    int equivocations = 0;  ///< kEquivocate faults issued

    int total_faults() const {
        return drops + duplicates + crashes + corruptions + equivocations;
    }
    std::string to_string() const;
};

/// See file comment.
class FaultInjector final : public Scheduler {
public:
    /// Wraps `inner` (borrowed; must outlive the injector).  Validates
    /// the profile.
    FaultInjector(Scheduler& inner, ChaosProfile profile);

    std::optional<StepChoice> next(const SystemView& view) override;

    /// `<inner>+chaos(<profile>)`, so archived runs name their chaos
    /// configuration.
    std::string name() const override;

    const ChaosStats& stats() const { return stats_; }
    const ChaosProfile& profile() const { return profile_; }

private:
    /// Rolls a per-mille chance deterministically.
    bool chance(int per_mille);
    /// A uniform draw in [0, bound); bound >= 1.
    std::uint64_t draw(std::uint64_t bound);

    /// Perturbs one base-scheduler choice (see file comment).
    void perturb(StepChoice& choice, const SystemView& view);
    /// Possibly appends a staggered-crash fault to `choice`.
    void maybe_inject_crash(StepChoice& choice, const SystemView& view);
    /// True iff `sender` may be charged another Byzantine fault event
    /// under the victim-cap and per-victim budgets.
    bool may_victimize(ProcessId sender, int n) const;
    /// Clones issued of source message `id` so far (a lookup: a
    /// candidate that draws no clone leaves no map entry behind).
    int clones_of(MessageId id) const;

    Scheduler* inner_;
    ChaosProfile profile_;
    std::mt19937_64 rng_;

    std::set<MessageId> dropped_;        ///< ids removed permanently
    std::map<MessageId, Time> held_;     ///< id -> earliest delivery time
    std::map<MessageId, int> dup_done_;  ///< clones issued per source id
    std::map<ProcessId, int> byz_victims_;  ///< Byzantine events per victim
    int burst_left_ = 0;                 ///< steps left in the active burst
    bool draining_ = false;              ///< base scheduler has stopped
    ChaosStats stats_;
    RoundRobinScheduler drain_;  ///< guard-mode completion schedule
};

}  // namespace ksa::chaos
