/**
 * @file
 * Figure 7.1: fault-free DRAM power and performance of ARCC applied to
 * commercial chipkill correct, relative to the 36-device baseline,
 * for the 12 mixes of Table 7.3.  Paper: -36.7% power, +5.9%
 * performance on average.
 */

#include <cstdio>

#include "bench_common.hh"
#include "common/stats.hh"
#include "common/table.hh"

using namespace arcc;

int
main()
{
    bench::reportHost();
    printBanner("Figure 7.1: Power and Performance Improvements");
    std::printf("ARCC (2ch x 2rk x 18dev x8) vs Baseline "
                "(2ch x 1rk x 36dev x4), no faults.\n"
                "Performance = sum of per-core IPCs (the paper's "
                "metric).  %llu instrs/core.\n\n",
                static_cast<unsigned long long>(bench::instrBudget()));

    TextTable t;
    t.header({"Mix", "Base mW", "ARCC mW", "Power reduction",
              "Base IPC", "ARCC IPC", "Perf improvement"});

    const std::vector<bench::FaultFreePair> pairs =
        bench::runFaultFreeGrid();
    RunningStat power_red;
    RunningStat perf_imp;
    for (std::size_t m = 0; m < table73Mixes().size(); ++m) {
        const WorkloadMix &mix = table73Mixes()[m];
        const SimResult &rb = pairs[m].base;
        const SimResult &ra = pairs[m].arcc;
        double red = pairs[m].powerSaving();
        double imp = pairs[m].perfGain();
        power_red.add(red);
        perf_imp.add(imp);
        t.row({mix.name, TextTable::num(rb.avgPowerMw, 0),
               TextTable::num(ra.avgPowerMw, 0), TextTable::pct(red),
               TextTable::num(rb.ipcSum, 2),
               TextTable::num(ra.ipcSum, 2), TextTable::pct(imp)});
        bench::jsonRow("fig7_1",
                       {{"mix", "\"" + mix.name + "\""},
                        {"base_mw", bench::jsonNum(rb.avgPowerMw)},
                        {"arcc_mw", bench::jsonNum(ra.avgPowerMw)},
                        {"base_ipc", bench::jsonNum(rb.ipcSum)},
                        {"arcc_ipc", bench::jsonNum(ra.ipcSum)}});
    }
    t.row({"Average", "", "", TextTable::pct(power_red.mean()), "", "",
           TextTable::pct(perf_imp.mean())});
    t.print();
    bench::jsonRow("fig7_1_avg",
                   {{"power_reduction",
                     bench::jsonNum(power_red.mean())},
                    {"perf_improvement",
                     bench::jsonNum(perf_imp.mean())}});

    std::printf("\nPaper: power -36.7%% avg (uniform across mixes), "
                "performance +5.9%% avg (varies by mix).\n"
                "Measured: power %s avg, performance %s avg.\n",
                TextTable::pct(power_red.mean()).c_str(),
                TextTable::pct(perf_imp.mean()).c_str());
    std::printf("\nShape checks:\n");
    bench::shapeRow("fig7_1", "every mix saves >25% power",
                    power_red.min() > 0.25,
                    "min " + TextTable::pct(power_red.min()) +
                        ", stddev " +
                        TextTable::pct(power_red.stddev()));
    return bench::exitStatus();
}
