/**
 * @file
 * Figure 7.4: average increase in ARCC power consumption as a function
 * of time, compared to fault-free memory, for 1x / 2x / 4x fault
 * rates; measured overheads and the worst-case estimate.
 *
 * Methodology (Section 7.1): the per-fault-type overheads are measured
 * with the Figure 7.2 experiments, then a 10000-channel Monte Carlo
 * injects fault arrivals over 7 years and accumulates each channel's
 * overhead from the arrival time onward; year X reports the fleet
 * average of the time-average through year X.
 *
 * The paper's closing claim -- ARCC still saves at least 30% power
 * after 7 years at 4x the fault rate -- is checked against the
 * Figure 7.1 saving this model measures on the same budget, not the
 * paper's 36.7%.
 */

#include <cstdio>

#include "bench_common.hh"
#include "common/stats.hh"
#include "common/table.hh"
#include "faults/lifetime_mc.hh"

using namespace arcc;

int
main()
{
    bench::reportHost();
    printBanner("Figure 7.4: Power Overhead of Error Correction");

    std::printf("Measuring per-fault-type power overheads "
                "(Figure 7.2 methodology)...\n");
    bench::ScenarioOverheads ov = bench::measureScenarioOverheads();
    std::printf("  lane %.1f%%  device %.1f%%  subbank %.2f%%  "
                "column %.2f%%\n\n",
                ov.power[0] * 100, ov.power[1] * 100,
                ov.power[2] * 100, ov.power[3] * 100);

    PerTypeOverhead measured = bench::toPerTypeOverhead(ov.power);
    DomainGeometry geom = bench::defaultGeometry();
    PerTypeOverhead worst = bench::worstCaseOverhead(geom, 1.0);

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
        meas.push_back(
            mc.cumulativeOverheadByYear(measured, ov.power[0]));
        wc.push_back(mc.cumulativeOverheadByYear(worst, 1.0));

        std::vector<std::pair<std::string, std::string>> fields = {
            {"factor", bench::jsonNum(factor)}};
        for (std::size_t y = 0; y < meas.back().size(); ++y)
            fields.emplace_back("year" + std::to_string(y + 1),
                                bench::jsonNum(meas.back()[y]));
        for (std::size_t y = 0; y < wc.back().size(); ++y)
            fields.emplace_back("worst_year" + std::to_string(y + 1),
                                bench::jsonNum(wc.back()[y]));
        bench::jsonRow("fig7_4", fields);
    }
    for (int y = 0; y < 7; ++y) {
        t.row({std::to_string(y + 1), TextTable::pct(meas[0][y], 3),
               TextTable::pct(meas[1][y], 3),
               TextTable::pct(meas[2][y], 3),
               TextTable::pct(wc[0][y], 3),
               TextTable::pct(wc[2][y], 3)});
    }
    t.print();

    // The fault-free saving s is Figure 7.1's, measured on the same
    // budget.  The overhead o is on ARCC's own power, so the saving
    // left over the baseline is 1 - (1 - s)(1 + o).
    std::printf("\nMeasuring the fault-free power saving "
                "(Figure 7.1 methodology)...\n");
    RunningStat saving;
    for (const bench::FaultFreePair &p : bench::runFaultFreeGrid())
        saving.add(p.powerSaving());
    const double s = saving.mean();
    const double o = wc[2][6];
    const double left = 1.0 - (1.0 - s) * (1.0 + o);

    std::printf("\nShape checks (paper: 'power benefits from ARCC "
                "even at the end of 7 years for 4X the\nfault rate is "
                "no less than 30%%'):\n");
    bench::shapeRow("fig7_4", "4x year-7 measured overhead < 4%",
                    meas[2][6] < 0.04,
                    TextTable::pct(meas[2][6], 2));
    bench::shapeRow("fig7_4",
                    "power saving at 4x after 7 years >= 30%",
                    left >= 0.30,
                    "1 - (1 - " + TextTable::pct(s) + ")(1 + " +
                        TextTable::pct(o, 2) + ") = " +
                        TextTable::pct(left));
    return bench::exitStatus();
}
