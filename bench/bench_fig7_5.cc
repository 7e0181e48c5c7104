/**
 * @file
 * Figure 7.5: average decrease in ARCC performance as a function of
 * time compared to fault-free memory, for 1x / 2x / 4x fault rates,
 * with the no-spatial-locality worst-case estimate.
 */

#include <cstdio>

#include "bench_common.hh"
#include "common/table.hh"
#include "faults/lifetime_mc.hh"

using namespace arcc;

int
main()
{
    bench::reportHost();
    printBanner("Figure 7.5: Performance Overhead of Error Correction");

    std::printf("Measuring per-fault-type performance overheads "
                "(Figure 7.3 methodology)...\n");
    bench::ScenarioOverheads ov = bench::measureScenarioOverheads();
    std::printf("  lane %.2f%%  device %.2f%%  subbank %.2f%%  "
                "column %.2f%%  (negative = the paired prefetch "
                "helps)\n\n",
                ov.perf[0] * 100, ov.perf[1] * 100, ov.perf[2] * 100,
                ov.perf[3] * 100);

    PerTypeOverhead measured = bench::toPerTypeOverhead(ov.perf);
    DomainGeometry geom = bench::defaultGeometry();
    // Worst case: an upgraded access takes two bus slots, so a fault
    // type that upgrades a fraction f of the pages costs f/(1+f) of
    // the throughput.  Fault types add, and cumulativeOverheadByYear
    // caps the sum at 1/2 (every access upgraded).
    PerTypeOverhead worst{};
    for (FaultType t : allFaultTypes()) {
        double f = geom.pageFraction(t);
        worst[static_cast<int>(t)] = f / (1.0 + f);
    }

    TextTable t;
    t.header({"Year", "1x", "2x", "4x", "1x worst est.",
              "4x worst est."});

    std::vector<std::vector<double>> meas, wc;
    for (double factor : {1.0, 2.0, 4.0}) {
        LifetimeMcConfig cfg;
        cfg.geom = geom;
        cfg.rates = FaultRates::fieldStudy().scaled(factor);
        cfg.channels = 10000;
        LifetimeMc mc(cfg);
        // Measured per-fault perf deltas may be negative (prefetch
        // wins); the cap only binds the positive direction.
        meas.push_back(mc.cumulativeOverheadByYear(
            measured, std::max(0.5, ov.perf[0])));
        wc.push_back(mc.cumulativeOverheadByYear(worst, 0.5));

        std::vector<std::pair<std::string, std::string>> fields = {
            {"factor", bench::jsonNum(factor)}};
        for (std::size_t y = 0; y < meas.back().size(); ++y)
            fields.emplace_back("year" + std::to_string(y + 1),
                                bench::jsonNum(meas.back()[y]));
        for (std::size_t y = 0; y < wc.back().size(); ++y)
            fields.emplace_back("worst_year" + std::to_string(y + 1),
                                bench::jsonNum(wc.back()[y]));
        bench::jsonRow("fig7_5", fields);
    }
    for (int y = 0; y < 7; ++y) {
        t.row({std::to_string(y + 1), TextTable::pct(meas[0][y], 3),
               TextTable::pct(meas[1][y], 3),
               TextTable::pct(meas[2][y], 3),
               TextTable::pct(wc[0][y], 3),
               TextTable::pct(wc[2][y], 3)});
    }
    t.print();

    std::printf("\nShape checks (paper: 'the degradation both in terms "
                "of the worst case estimate\nand measured overheads is "
                "small'):\n");
    bench::shapeRow("fig7_5", "4x year-7 worst-case degradation < 4%",
                    wc[2][6] < 0.04,
                    "worst case " + TextTable::pct(wc[2][6], 2) +
                        ", measured " + TextTable::pct(meas[2][6], 3));
    return bench::exitStatus();
}
