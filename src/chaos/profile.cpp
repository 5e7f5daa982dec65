#include "chaos/profile.hpp"

#include <sstream>

#include "check/contract.hpp"
#include "sim/text_writer.hpp"

namespace ksa::chaos {

namespace {

void check_per_mille(int v, const char* what) {
    if (v < 0 || v > 1000) {
        std::ostringstream out;
        out << "ChaosProfile: " << what << " = " << v
            << " is not a per-mille value in [0, 1000]";
        throw UsageError(out.str());
    }
}

}  // namespace

void ChaosProfile::validate() const {
    check_per_mille(drop_per_mille, "drop_per_mille");
    check_per_mille(duplicate_per_mille, "duplicate_per_mille");
    check_per_mille(delay_per_mille, "delay_per_mille");
    check_per_mille(corrupt_per_mille, "corrupt_per_mille");
    check_per_mille(equivocate_per_mille, "equivocate_per_mille");
    check_per_mille(burst_per_mille, "burst_per_mille");
    check_per_mille(crash_per_mille, "crash_per_mille");
    check_per_mille(crash_omission_per_mille, "crash_omission_per_mille");
    require(max_delay >= 1, "ChaosProfile: max_delay must be >= 1");
    require(burst_len >= 1, "ChaosProfile: burst_len must be >= 1");
    require(max_drops >= 0, "ChaosProfile: max_drops must be >= 0");
    require(max_duplicates >= 0, "ChaosProfile: max_duplicates must be >= 0");
    require(max_injected_crashes >= 0,
            "ChaosProfile: max_injected_crashes must be >= 0");
    require(max_total_faulty >= -1,
            "ChaosProfile: max_total_faulty must be >= -1");
    require(crash_per_mille == 0 || max_injected_crashes > 0,
            "ChaosProfile: crash_per_mille > 0 needs max_injected_crashes > 0");
    require(max_corruptions >= 0, "ChaosProfile: max_corruptions must be >= 0");
    require(max_equivocations >= 0,
            "ChaosProfile: max_equivocations must be >= 0");
    require(max_byzantine >= -1, "ChaosProfile: max_byzantine must be >= -1");
    require(max_faults_per_victim >= 1,
            "ChaosProfile: max_faults_per_victim must be >= 1");
    require(corrupt_per_mille == 0 || max_corruptions > 0,
            "ChaosProfile: corrupt_per_mille > 0 needs max_corruptions > 0");
    require(equivocate_per_mille == 0 || max_equivocations > 0,
            "ChaosProfile: equivocate_per_mille > 0 needs "
            "max_equivocations > 0");
    require((corrupt_per_mille == 0 && equivocate_per_mille == 0) ||
                max_byzantine != 0,
            "ChaosProfile: Byzantine rates > 0 need max_byzantine != 0");
}

std::string to_string(ChaosProfile::Mode mode) {
    return mode == ChaosProfile::Mode::kAdmissible ? "guard" : "havoc";
}

std::string ChaosProfile::describe() const {
    std::string label;
    TextWriter out(label);
    out << "seed=" << seed << ",mode=" << to_string(mode) << ",drop=" << drop_per_mille << ",dup=" << duplicate_per_mille
        << ",delay=" << delay_per_mille;
    if (burst_per_mille > 0) out << ",burst=" << burst_per_mille;
    if (crash_per_mille > 0)
        out << ",crash=" << crash_per_mille << 'x' << max_injected_crashes;
    if (corrupt_per_mille > 0 || equivocate_per_mille > 0)
        out << ",corrupt=" << corrupt_per_mille
            << ",equiv=" << equivocate_per_mille << ",byz=" << max_byzantine;
    return label;
}

ChaosProfile guarded_profile(std::uint64_t seed) {
    ChaosProfile p;
    p.seed = seed;
    p.mode = ChaosProfile::Mode::kAdmissible;
    p.drop_per_mille = 60;
    p.duplicate_per_mille = 60;
    p.delay_per_mille = 150;
    p.burst_per_mille = 15;
    return p;
}

ChaosProfile havoc_profile(std::uint64_t seed) {
    ChaosProfile p;
    p.seed = seed;
    p.mode = ChaosProfile::Mode::kHavoc;
    p.drop_per_mille = 250;
    p.duplicate_per_mille = 60;
    p.delay_per_mille = 100;
    p.burst_per_mille = 10;
    return p;
}

ChaosProfile byzantine_profile(std::uint64_t seed, int max_victims) {
    ChaosProfile p;
    p.seed = seed;
    p.mode = ChaosProfile::Mode::kAdmissible;
    p.drop_per_mille = 0;
    p.duplicate_per_mille = 40;
    p.delay_per_mille = 120;
    p.burst_per_mille = 10;
    p.max_byzantine = max_victims;
    if (max_victims != 0) {
        p.corrupt_per_mille = 180;
        p.equivocate_per_mille = 120;
        p.max_corruptions = 12;
        p.max_equivocations = 8;
    }
    return p;
}

}  // namespace ksa::chaos
