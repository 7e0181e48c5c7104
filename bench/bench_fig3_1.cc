/**
 * @file
 * Figure 3.1: average fraction of 4KB pages in a memory channel that
 * has been affected by faults, vs operational lifespan, for 1x / 2x /
 * 4x the field-study fault rate.  10000-channel Monte Carlo plus the
 * analytic cross-check.
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
    printBanner("Figure 3.1: Faulty Memory vs Time");
    std::printf("Average fraction of 4KB pages affected by faults "
                "(worst-case corruption footprints),\n"
                "10000 channels of 2 ranks x 36 devices, "
                "7-year horizon.\n\n");

    const double factors[] = {1.0, 2.0, 4.0};
    std::vector<AffectedCurve> curves;
    std::vector<double> analytic7;
    for (double f : factors) {
        LifetimeMcConfig cfg;
        cfg.geom = bench::defaultGeometry();
        cfg.rates = FaultRates::fieldStudy().scaled(f);
        cfg.channels = 10000;
        cfg.years = 7.0;
        cfg.gridPerYear = 4;
        LifetimeMc mc(cfg);
        curves.push_back(mc.affectedFraction());
        analytic7.push_back(mc.analyticAffectedFraction(7.0));
    }

    TextTable t;
    t.header({"Years", "1x rate", "2x rate", "4x rate"});
    for (std::size_t i = 0; i < curves[0].timeYears.size(); ++i) {
        if ((i + 1) % 2 != 0)
            continue; // print half-year steps.
        t.row({TextTable::num(curves[0].timeYears[i], 2),
               TextTable::pct(curves[0].avgFraction[i], 3),
               TextTable::pct(curves[1].avgFraction[i], 3),
               TextTable::pct(curves[2].avgFraction[i], 3)});
    }
    t.print();

    std::printf("\nAnalytic cross-check at 7 years: "
                "1x %.3f%%  2x %.3f%%  4x %.3f%%\n",
                analytic7[0] * 100, analytic7[1] * 100,
                analytic7[2] * 100);
    std::printf("\nPaper's shape: 'the fraction of pages with fault is "
                "just a few percent during most\nof the lifetime of "
                "the memory channel, even for a worst case failure "
                "rate that is 4X as high'.\n");
    const double worst7 = curves[2].avgFraction.back();
    bench::shapeRow("fig3_1", "pages affected at 4x after 7 years < 6%",
                    worst7 < 0.06, TextTable::pct(worst7, 3));
    return bench::exitStatus();
}
