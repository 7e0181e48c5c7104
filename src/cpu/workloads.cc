/**
 * @file
 * Benchmark profiles and mix definitions.
 *
 * The numeric profiles are calibrated to the qualitative memory
 * behaviour reported in published SPEC CPU2000/2006 characterisation
 * studies: mcf is a huge-footprint pointer chaser, libquantum / swim /
 * lbm / leslie3d are streaming codes with strong next-line locality,
 * sjeng / calculix / mesa / h264ref are largely cache-resident, and so
 * on.  Absolute IPCs are not the reproduction target -- the normalised
 * deltas of Figures 7.1-7.5 are.
 */

#include "cpu/workloads.hh"

#include <map>

#include "common/logging.hh"
#include "common/units.hh"

namespace arcc
{

namespace
{

std::vector<BenchmarkProfile>
buildProfiles()
{
    // name, baseIpc, apki, footprintMiB, spatial, writeFrac
    return {
        {"mesa", 1.6, 1.7, 4.0, 0.55, 0.35},
        {"leslie3d", 1.1, 12.1, 80.0, 0.85, 0.25},
        {"GemsFDTD", 0.9, 15.4, 128.0, 0.80, 0.25},
        {"fma3d", 1.2, 5.5, 32.0, 0.65, 0.30},
        {"omnetpp", 0.8, 9.9, 96.0, 0.15, 0.30},
        {"soplex", 0.9, 13.8, 64.0, 0.30, 0.25},
        {"apsi", 1.3, 6.6, 48.0, 0.40, 0.30},
        {"sphinx3", 1.0, 13.2, 64.0, 0.45, 0.15},
        {"calculix", 1.7, 2.2, 6.0, 0.50, 0.25},
        {"wupwise", 1.4, 4.4, 40.0, 0.60, 0.25},
        {"lucas", 1.1, 7.7, 64.0, 0.70, 0.25},
        {"gromacs", 1.6, 2.8, 8.0, 0.45, 0.30},
        {"swim", 0.8, 16.5, 96.0, 0.88, 0.35},
        {"sjeng", 1.5, 1.1, 3.0, 0.20, 0.25},
        {"facerec", 1.2, 6.6, 48.0, 0.70, 0.25},
        {"ammp", 1.0, 5.5, 32.0, 0.25, 0.30},
        {"milc", 0.9, 14.3, 128.0, 0.75, 0.30},
        {"mgrid", 1.2, 8.8, 64.0, 0.80, 0.30},
        {"applu", 1.1, 9.9, 80.0, 0.75, 0.30},
        {"mcf2006", 0.5, 24.8, 256.0, 0.12, 0.25},
        {"libquantum", 0.9, 19.2, 128.0, 0.95, 0.20},
        {"astar", 0.9, 6.6, 48.0, 0.18, 0.30},
        {"art110", 0.9, 15.4, 24.0, 0.35, 0.20},
        {"lbm", 0.8, 17.6, 192.0, 0.90, 0.45},
        {"h264ref", 1.5, 2.2, 8.0, 0.55, 0.30},
    };
}

} // anonymous namespace

const std::vector<BenchmarkProfile> &
allBenchmarkProfiles()
{
    static const std::vector<BenchmarkProfile> profiles =
        buildProfiles();
    return profiles;
}

const BenchmarkProfile &
benchmarkProfile(const std::string &name)
{
    // "fma3di" appears in the thesis's Table 7.3; it is a typo for
    // fma3d and is aliased accordingly.
    std::string wanted = name == "fma3di" ? "fma3d" : name;
    for (const auto &p : allBenchmarkProfiles()) {
        if (p.name == wanted)
            return p;
    }
    fatal("unknown benchmark '%s'", name.c_str());
}

const std::vector<WorkloadMix> &
table73Mixes()
{
    static const std::vector<WorkloadMix> mixes = {
        {"Mix1",  {"mesa", "leslie3d", "GemsFDTD", "fma3d"}},
        {"Mix2",  {"omnetpp", "soplex", "apsi", "mesa"}},
        {"Mix3",  {"sphinx3", "calculix", "omnetpp", "wupwise"}},
        {"Mix4",  {"lucas", "gromacs", "swim", "fma3d"}},
        {"Mix5",  {"mesa", "swim", "apsi", "sphinx3"}},
        {"Mix6",  {"sjeng", "swim", "facerec", "ammp"}},
        {"Mix7",  {"milc", "GemsFDTD", "leslie3d", "omnetpp"}},
        {"Mix8",  {"facerec", "leslie3d", "ammp", "mgrid"}},
        {"Mix9",  {"applu", "soplex", "mcf2006", "GemsFDTD"}},
        {"Mix10", {"mcf2006", "libquantum", "omnetpp", "astar"}},
        {"Mix11", {"calculix", "swim", "art110", "omnetpp"}},
        {"Mix12", {"lbm", "facerec", "h264ref", "ammp"}},
    };
    return mixes;
}

const WorkloadMix *
mixByName(std::string_view name)
{
    for (const WorkloadMix &m : table73Mixes())
        if (m.name == name)
            return &m;
    return nullptr;
}

CoreWorkload::CoreWorkload(const BenchmarkProfile &profile,
                           std::uint64_t mem_bytes, int core_id,
                           std::uint64_t seed)
    : profile_(profile), rng_(seed ^ (0x1234567ULL * (core_id + 1)))
{
    std::uint64_t quarter = mem_bytes / 4;
    regionBase_ = static_cast<std::uint64_t>(core_id) * quarter;
    std::uint64_t fp_bytes = static_cast<std::uint64_t>(
        profile.footprintMiB * static_cast<double>(kMiB));
    if (fp_bytes > quarter)
        fp_bytes = quarter;
    if (fp_bytes < 64 * kLineBytes)
        fp_bytes = 64 * kLineBytes;
    regionLines_ = fp_bytes / kLineBytes;
    lastLine_ = 0;
    meanGap_ = 1000.0 / profile.apki;
    if (meanGap_ > 1.0)
        gapLogKeep_ = Rng::geometricLogKeep(meanGap_);
}

CoreWorkload::Access
CoreWorkload::next()
{
    Access a;
    if (rng_.chance(profile_.spatial)) {
        if (++lastLine_ == regionLines_)
            lastLine_ = 0;
    } else {
        lastLine_ = rng_.below(regionLines_);
    }
    a.addr = regionBase_ + lastLine_ * kLineBytes;
    a.isWrite = rng_.chance(profile_.writeFrac);
    // Rng::geometric(meanGap_) with its logarithm hoisted.
    a.instrGap =
        meanGap_ > 1.0 ? rng_.geometricFromLog(gapLogKeep_) : 1;
    return a;
}

} // namespace arcc
