/**
 * @file
 * Figure 6.1: SDCs per 1000 machine-years -- simultaneous double error
 * detection (commercial SCCDCD) vs the reduced double error detection
 * of ARCC (ARCC DED), across intended lifespans and fault-rate
 * factors.  Analytic models with a boosted-rate Monte Carlo validation
 * and an empirically measured aliasing refinement.
 */

#include <algorithm>
#include <cstdio>
#include <string>

#include "bench_common.hh"
#include "common/table.hh"
#include "reliability/sdc_model.hh"

using namespace arcc;

int
main()
{
    bench::reportHost();
    printBanner("Figure 6.1: Reliability Comparison (SDC rates)");
    std::printf("SDC events per 1000 machine-years; machine = one "
                "72-device channel pair; 4h scrub period.\n"
                "'DED' = commercial SCCDCD (detects 2 bad symbols "
                "always);\n"
                "'ARCC DED' = reduced detection (2nd overlapping fault "
                "inside one scrub window escapes).\n\n");

    TextTable t;
    t.header({"Lifespan", "Rate", "DED (SCCDCD)", "ARCC DED",
              "ARCC DED (alias-adjusted)"});

    double alias = measureMiscorrectionRate(18, 16, 1, 2, 20000, 613);

    // The largest rate of each column, for the paper's claim below.
    double max_ded = 0.0;
    double max_arcc_ded = 0.0;
    int points = 0;

    for (double years : {5.0, 6.0, 7.0}) {
        for (double factor : {1.0, 2.0, 4.0}) {
            SdcModelConfig base = SdcModelConfig::sccdcdMachine();
            base.rates = FaultRates::fieldStudy().scaled(factor);
            SdcModelConfig ar = SdcModelConfig::arccMachine();
            ar.rates = base.rates;

            SdcModel mbase(base);
            SdcModel mar(ar);
            double ded = mbase.sccdcdSdcPer1000MachineYears(years);
            double arcc_ded = mar.arccSdcPer1000MachineYears(years);
            max_ded = std::max(max_ded, ded);
            max_arcc_ded = std::max(max_arcc_ded, arcc_ded);
            ++points;
            t.row({TextTable::num(years, 0) + "y",
                   TextTable::num(factor, 0) + "x",
                   TextTable::sci(ded, 2), TextTable::sci(arcc_ded, 2),
                   TextTable::sci(arcc_ded * alias, 2)});
        }
    }
    t.print();

    std::printf("\nMeasured RS(18,16) double-error miscorrection "
                "(aliasing) probability: %.1f%%\n", alias * 100.0);

    // Boosted-rate Monte Carlo validation of the ARCC model.
    SdcModelConfig cfg = SdcModelConfig::arccMachine();
    SdcModel model(cfg);
    const double boost = 2000.0;
    double mc = model.mcArccSdcEvents(7.0, boost, 500, 601);
    SdcModelConfig boosted = cfg;
    boosted.rates = cfg.rates.scaled(boost);
    double analytic = SdcModel(boosted).arccSdcEvents(7.0);
    std::printf("\nMonte Carlo validation at %gx boosted rates "
                "(events/machine over 7y):\n"
                "  simulated %.3f vs analytic %.3f  (ratio %.2f)\n",
                boost, mc, analytic, mc / analytic);

    std::printf("\nPaper's shape: 'the increase to the SDC rate of "
                "SCCDCD+ARCC over SCCDCD alone is\ninsignificant' -- "
                "both rates are tiny in absolute terms (well below one "
                "SDC per 1000\nmachine-years at every point).\n");
    bench::shapeRow("fig6_1",
                    "SCCDCD and ARCC DED < 1 SDC per 1000 machine-years "
                    "at all " +
                        std::to_string(points) + " points",
                    max_ded < 1.0 && max_arcc_ded < 1.0,
                    "max " + TextTable::sci(max_arcc_ded, 2) +
                        " ARCC DED, " + TextTable::sci(max_ded, 2) +
                        " SCCDCD");
    return bench::exitStatus();
}
