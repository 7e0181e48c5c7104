/**
 * @file
 * Chapter 3 motivation: halving the rank size (36 -> 18 devices, same
 * 12.5% storage overhead, 2 check symbols instead of 4) cuts memory
 * power by ~36.7% on quad-core multiprogrammed SPEC workloads -- at
 * the cost of single instead of double symbol detection.  This bench
 * regenerates the motivational comparison plus the per-access energy
 * decomposition behind it.
 */

#include <cmath>
#include <cstdio>

#include "bench_common.hh"
#include "common/stats.hh"
#include "common/table.hh"

using namespace arcc;

int
main()
{
    bench::reportHost();
    printBanner("Chapter 3 Motivation: rank size 18 vs 36");

    // Per-access dynamic energy decomposition.
    MemoryConfig base = baselineConfig();
    MemoryConfig ar = arccConfig();
    auto per_access = [](const MemoryConfig &c) {
        return c.devicesPerAccess * (c.device.actPreEnergy() +
                                     c.device.readBurstEnergy());
    };
    TextTable e;
    e.header({"Config", "Devices/access", "ACT+PRE nJ/dev",
              "RD burst nJ/dev", "nJ per 64B read"});
    e.row({"36-device rank (x4)", "36",
           TextTable::num(base.device.actPreEnergy(), 2),
           TextTable::num(base.device.readBurstEnergy(), 2),
           TextTable::num(per_access(base), 1)});
    e.row({"18-device rank (x8)", "18",
           TextTable::num(ar.device.actPreEnergy(), 2),
           TextTable::num(ar.device.readBurstEnergy(), 2),
           TextTable::num(per_access(ar), 1)});
    e.print();
    std::printf("\nDynamic energy ratio per access: %.2f\n",
                per_access(ar) / per_access(base));

    // Whole-system measurement across the 12 mixes.
    SystemConfig bc = bench::systemConfig(base);
    SystemConfig ac = bench::systemConfig(ar);
    RunningStat saving;
    for (const WorkloadMix &mix : table73Mixes()) {
        SimResult rb = simulateMix(mix, bc, {});
        SimResult ra = simulateMix(mix, ac, {});
        saving.add(1.0 - ra.avgPowerMw / rb.avgPowerMw);
    }
    std::printf("\nMeasured average memory power reduction across the "
                "12 mixes: %.1f%%\n"
                "(paper's motivational experiment: 36.7%%)\n",
                saving.mean() * 100.0);
    bench::shapeRow("motivation",
                    "power cut within 5 points of the paper's 36.7%",
                    std::fabs(saving.mean() - 0.367) <= 0.05,
                    TextTable::pct(saving.mean()));
    std::printf("\nThe price: 2 check symbols only guarantee single "
                "bad symbol detection -- which is\nexactly the gap "
                "ARCC closes adaptively (Chapters 4 and 6).\n");
    return bench::exitStatus();
}
