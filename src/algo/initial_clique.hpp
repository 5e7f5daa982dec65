#pragma once
// The two-stage initial-crash protocol of FLP, generalized to k-set
// agreement exactly as in Section VI of the paper.
//
// Stage 1: every process broadcasts a stage-1 message carrying its id,
// then waits until it has received stage-1 messages from L-1 distinct
// other processes (its in-neighbours in the "heard-from" graph G).
//
// Stage 2: every process broadcasts (id, proposal, heard-list) and waits
// for a stage-2 message from every process in its heard-list and,
// transitively, from every process mentioned in any received list.  The
// knowledge a process ends up with is therefore *in-closed*: it knows
// every in-edge of every vertex it knows.  Consequently the source
// components it computes locally are true source components of G, and
// the source component(s) reaching it are known completely.
//
// Decision rule: among the source components of the known subgraph from
// which the process is reachable, pick the one with the smallest member
// id and decide the proposal of that smallest member.  Since G has min
// in-degree L-1 on the live processes, G has at most floor(n_live / L)
// source components (Lemmas 6 and 7), which bounds the number of
// distinct decisions; with L-1 >= a majority the source component is
// unique and the protocol solves consensus -- this is the FLP protocol.
//
// The protocol tolerates up to f = n - L *initial* crashes: every live
// process finds L-1 live senders to hear from, and every process
// mentioned in a list is live (it sent a stage-1 message).  It is not
// resilient to crashes at arbitrary times -- exactly the gap that
// Theorem 2 proves is unavoidable.
//
// Representation.  A process keeps its local state flat, for n <= 64
// (make_behavior rejects larger n): the heard-from set, the required
// set and the set of known stage-2 senders are 64-bit masks (bit q-1 is
// process q), and each known sender's proposal and heard-list mask sit
// in fixed arrays indexed by id.  The decision is a bit-parallel
// transitive closure over those masks (graph/mask_sources.hpp): with P
// = self plus the known senders, a vertex v of P lies in a source
// component iff every vertex reaching v is reached by v, and the
// representative is the smallest such v that is self or reaches self.
// That is the smallest member of the smallest-member source component
// reaching self, as above.  So cloning a behavior copies one object and
// neither ingesting a message nor deciding allocates.  fold_state and
// state_digest walk the masks in ascending id order, which reproduces
// the sorted id vectors an honest run would hold.
//
// Forged messages.  A stage-1 or stage-2 message that names the
// receiver itself, or any id outside 1..n, is discarded on delivery --
// it never throws and never changes the state.  A forged heard-list
// with repeated or unsorted ids is stored as the id set it names; the
// decision always read a heard-list as an edge set, so only the digest
// of such a state differs from a list-keeping representation.

#include <memory>

#include "algo/common.hpp"
#include "sim/behavior.hpp"

namespace ksa::algo {

/// The Section VI protocol, parameterized by the stage-1 threshold L.
class InitialCliqueKSet final : public Algorithm {
public:
    /// `l` is the paper's L: a process waits for L-1 stage-1 messages.
    /// Requires 1 <= l <= n <= 64 (checked when behaviors are created).
    explicit InitialCliqueKSet(int l) : l_(l) {}

    std::unique_ptr<Behavior> make_behavior(ProcessId id, int n,
                                            Value input) const override;
    std::string name() const override;

    /// The decision rule breaks ties by smallest member *id*, so the
    /// protocol is value-equivariant only under renamings that keep
    /// every equal-input class a contiguous id block (the reduction
    /// layer enforces the block condition; doc/extending.md has the
    /// argument).
    SymmetryKind symmetry() const override {
        return SymmetryKind::kBlockSymmetric;
    }
    bool rename_payload_ids(Payload& payload,
                            const ProcessRenaming& ren) const override;

    /// A decided behavior returns from on_step before any broadcast or
    /// decide (phase_ == 3 is absorbing): decisions are final and
    /// silent.
    bool decided_is_final() const override { return true; }

    int l() const { return l_; }

    /// Upper bound floor(n/L) on the number of distinct decisions when
    /// all processes are live; with d initial deaths the live count
    /// drops to n-d and the bound becomes floor((n-d)/L).
    static int max_decisions(int live, int l) { return live / l; }

private:
    int l_;
};

/// The FLP consensus instance: L = ceil((n+1)/2), tolerating f < n/2
/// initial crashes.
std::unique_ptr<Algorithm> make_flp_consensus(int n);

/// The Theorem 8 instance: L = n - f, solving k-set agreement with up to
/// f initial crashes whenever k*n > (k+1)*f.
std::unique_ptr<Algorithm> make_flp_kset(int n, int f);

}  // namespace ksa::algo
