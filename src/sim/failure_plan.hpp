#pragma once
// Crash-failure plans.
//
// In the paper's model the failure pattern F(t) of a run is *derived*
// from the run: p is in F(t) iff p takes no step at any time >= t.  An
// adversary in the simulator fixes failures ahead of time with a
// FailurePlan: for each faulty process, after how many of its *own* steps
// it crashes (0 = initially dead, i.e. it never takes a step), and to
// which receivers its final step's messages are omitted (the model lets a
// crashing process omit sending to a subset of receivers in its very last
// step).  Planning by own-step count rather than global time makes plans
// composable with any scheduler.
//
// The System enforces the plan (a crashed process is never stepped) and
// records the *realized* failure pattern F(t) into the Run, which is what
// admissibility checking and failure-detector validation use.

#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "check/contract.hpp"
#include "sim/types.hpp"

namespace ksa {

/// Crash specification for one faulty process.
struct CrashSpec {
    /// The process executes exactly this many steps, then crashes.
    /// 0 means initially dead: the process never takes a step.
    int after_own_steps = 0;
    /// Receivers to which the sends of the final step are omitted.  Only
    /// meaningful when after_own_steps > 0.
    std::set<ProcessId> omit_to;

    friend bool operator==(const CrashSpec&, const CrashSpec&) = default;

    /// Builds the spec of a crash whose final step's sends are omitted to
    /// *every* receiver 1..n (a "crash between receive and send": the
    /// process performs its last state transition but nothing it sends
    /// survives).  Requires after_own_steps > 0.
    static CrashSpec omitting_all(int after_own_steps, int n) {
        KSA_REQUIRE(after_own_steps > 0,
                    "CrashSpec::omitting_all: an initially dead process has "
                    "no final step whose sends could be omitted");
        KSA_REQUIRE(n >= 1, "CrashSpec::omitting_all: n must be >= 1");
        CrashSpec spec;
        spec.after_own_steps = after_own_steps;
        for (ProcessId q = 1; q <= n; ++q) spec.omit_to.insert(q);
        return spec;
    }

    /// Canonical rendering for traces and reports: "initially-dead" or
    /// "after <s> steps" with the omission set, e.g.
    /// "after 2 steps omit{1,4}".
    std::string to_string() const {
        if (after_own_steps == 0) return "initially-dead";
        std::ostringstream out;
        out << "after " << after_own_steps
            << (after_own_steps == 1 ? " step" : " steps");
        if (!omit_to.empty()) {
            out << " omit{";
            bool first = true;
            for (ProcessId q : omit_to) {
                if (!first) out << ',';
                first = false;
                out << q;
            }
            out << '}';
        }
        return out.str();
    }
};

/// Byzantine specification for one process: how many corruption and
/// equivocation fault events its channels realized.  Unlike CrashSpec
/// this is pure bookkeeping of *realized* misbehavior -- Byzantine specs
/// are only ever injected by fault events (System::apply_fault), never
/// planned statically, so Run::static_plan() strips them and replay
/// rebuilds the identical counts from the recorded fault stream.
struct ByzantineSpec {
    int corruptions = 0;    ///< kCorruptMessage events charged to this sender
    int equivocations = 0;  ///< kEquivocate events charged to this sender

    friend bool operator==(const ByzantineSpec&, const ByzantineSpec&) = default;

    /// Canonical rendering, e.g. "byzantine(corrupt=2,equiv=1)".
    std::string to_string() const {
        std::ostringstream out;
        out << "byzantine(corrupt=" << corruptions << ",equiv=" << equivocations
            << ')';
        return out.str();
    }
};

/// A complete crash plan for a run: which processes fail, and how.
/// Processes not mentioned are correct.
class FailurePlan {
public:
    FailurePlan() = default;

    /// Declares `p` faulty with the given spec.  Re-declaring replaces.
    void set_crash(ProcessId p, CrashSpec spec) {
        KSA_REQUIRE(p >= 1, "FailurePlan::set_crash: invalid process id p" +
                                    std::to_string(p));
        KSA_REQUIRE(spec.after_own_steps >= 0,
                    "FailurePlan::set_crash: negative step count");
        KSA_REQUIRE(spec.after_own_steps > 0 || spec.omit_to.empty(),
                    "FailurePlan::set_crash: an initially dead process takes "
                    "no final step whose sends could be omitted");
        KSA_REQUIRE(spec.omit_to.empty() || *spec.omit_to.begin() >= 1,
                    "FailurePlan::set_crash: omission set contains an "
                    "invalid process id p" +
                            std::to_string(*spec.omit_to.begin()));
        crashes_[p] = std::move(spec);
    }

    /// Declares `p` faulty, crashing after `after_own_steps` own steps
    /// with the sends of its final step omitted to *all* n receivers --
    /// the convenience for "crash between the receive and the send phase
    /// of a step" that per-receiver omit_to sets spell out by hand.
    void set_crash_omit_all(ProcessId p, int after_own_steps, int n) {
        set_crash(p, CrashSpec::omitting_all(after_own_steps, n));
    }

    /// Declares `p` initially dead (never takes a step).
    void set_initially_dead(ProcessId p) { set_crash(p, CrashSpec{}); }

    /// Declares every process in `ps` initially dead.
    void set_initially_dead(const std::vector<ProcessId>& ps) {
        for (ProcessId p : ps) set_initially_dead(p);
    }

    /// True iff `p` is faulty in this plan (the set F of the paper).
    bool is_faulty(ProcessId p) const { return crashes_.count(p) != 0; }

    /// True iff `p` never takes a step.
    bool is_initially_dead(ProcessId p) const {
        auto it = crashes_.find(p);
        return it != crashes_.end() && it->second.after_own_steps == 0;
    }

    /// Number of own steps `p` may take (kNever-like large value if
    /// correct).
    int allowed_steps(ProcessId p) const {
        auto it = crashes_.find(p);
        if (it == crashes_.end()) return -1;  // unbounded
        return it->second.after_own_steps;
    }

    /// The crash spec of `p`; `p` must be faulty.
    const CrashSpec& spec(ProcessId p) const {
        auto it = crashes_.find(p);
        KSA_REQUIRE(it != crashes_.end(),
                    "FailurePlan::spec: process is correct");
        if (it == crashes_.end()) {
            // Reached only under check::Policy::kCount: stay memory-safe.
            static const CrashSpec kCorrect{};
            return kCorrect;
        }
        return it->second;
    }

    /// The planned faulty set F.
    std::set<ProcessId> faulty() const {
        std::set<ProcessId> out;
        for (const auto& [p, _] : crashes_) out.insert(p);
        return out;
    }

    /// The correct processes among 1..n.
    std::vector<ProcessId> correct(int n) const {
        std::vector<ProcessId> out;
        for (ProcessId p = 1; p <= n; ++p)
            if (!is_faulty(p)) out.push_back(p);
        return out;
    }

    /// Number of faulty processes.
    int num_faulty() const { return static_cast<int>(crashes_.size()); }

    // -- Byzantine bookkeeping (realized corruption/equivocation) ------

    /// Charges one realized Byzantine fault event to sender `p`:
    /// `corruptions` / `equivocations` are added to p's ByzantineSpec
    /// (created on first use).  Called by System::apply_fault for both
    /// live injection and replay, so the effective plan converges to the
    /// same counts either way.
    void note_byzantine(ProcessId p, int corruptions, int equivocations) {
        KSA_REQUIRE(p >= 1, "FailurePlan::note_byzantine: invalid process id");
        KSA_REQUIRE(corruptions >= 0 && equivocations >= 0,
                    "FailurePlan::note_byzantine: negative event count");
        ByzantineSpec& spec = byzantine_[p];
        spec.corruptions += corruptions;
        spec.equivocations += equivocations;
    }

    /// True iff `p` realized at least one Byzantine fault event.
    bool is_byzantine(ProcessId p) const { return byzantine_.count(p) != 0; }

    /// The Byzantine spec of `p`; `p` must be Byzantine.
    const ByzantineSpec& byzantine_spec(ProcessId p) const {
        auto it = byzantine_.find(p);
        KSA_REQUIRE(it != byzantine_.end(),
                    "FailurePlan::byzantine_spec: process is not Byzantine");
        if (it == byzantine_.end()) {
            // Reached only under check::Policy::kCount: stay memory-safe.
            static const ByzantineSpec kNone{};
            return kNone;
        }
        return it->second;
    }

    /// The realized Byzantine sender set.
    std::set<ProcessId> byzantine() const {
        std::set<ProcessId> out;
        for (const auto& [p, _] : byzantine_) out.insert(p);
        return out;
    }

    /// Number of Byzantine senders.
    int num_byzantine() const { return static_cast<int>(byzantine_.size()); }

    /// Canonical rendering for traces: "none" for the empty plan, else
    /// "p2 after 1 step omit{3}; p4 initially-dead; p3
    /// byzantine(corrupt=2,equiv=0)".
    std::string to_string() const {
        if (crashes_.empty() && byzantine_.empty()) return "none";
        std::ostringstream out;
        bool first = true;
        for (const auto& [p, spec] : crashes_) {
            if (!first) out << "; ";
            first = false;
            out << 'p' << p << ' ' << spec.to_string();
        }
        for (const auto& [p, spec] : byzantine_) {
            if (!first) out << "; ";
            first = false;
            out << 'p' << p << ' ' << spec.to_string();
        }
        return out.str();
    }

    friend bool operator==(const FailurePlan&, const FailurePlan&) = default;

private:
    std::map<ProcessId, CrashSpec> crashes_;
    std::map<ProcessId, ByzantineSpec> byzantine_;
};

}  // namespace ksa
