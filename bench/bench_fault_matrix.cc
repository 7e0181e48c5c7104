/**
 * @file
 * Codec-zoo fault-injection matrix bench: every registered line codec
 * swept through the none/random/burst x error-count campaign of
 * faults/fault_matrix.hh, printed as one human table plus one
 * bench_common jsonRow per cell and a final matrix-hash row.
 *
 * Every count in the output is a pure function of (codec list, trials
 * per cell, exhaustive limit, seed) -- never of the thread count or
 * the SIMD tier -- so CI diffs the whole stdout across 1-vs-N-thread
 * and scalar-vs-SIMD legs.
 *
 * ARCC_BENCH_FAULT_TRIALS overrides the stratified trials-per-cell
 * budget (default 96, the golden-pinned configuration).
 */

#include <algorithm>
#include <cstdio>
#include <string>

#include "bench_common.hh"
#include "common/table.hh"
#include "faults/fault_matrix.hh"

using namespace arcc;
using namespace arcc::bench;

int
main()
{
    bench::reportHost();
    FaultMatrixConfig cfg;
    cfg.codecs = codecs::names(); // The whole zoo, sorted by key.
    cfg.trialsPerCell =
        std::max<std::uint64_t>(1, envU64("ARCC_BENCH_FAULT_TRIALS", 96));
    cfg.exhaustiveLimit = 640;
    cfg.seed = 20130223; // HPCA 2013.

    printBanner("Codec-zoo fault-injection matrix");
    std::printf("codecs: %zu, trials/cell: %llu (stratified), "
                "exhaustive limit: %llu\n\n",
                cfg.codecs.size(),
                static_cast<unsigned long long>(cfg.trialsPerCell),
                static_cast<unsigned long long>(cfg.exhaustiveLimit));

    const FaultMatrixResult result = runFaultMatrix(cfg);

    TextTable table;
    table.header({"codec", "mode", "err", "gran", "trials", "exh",
                  "clean", "corrected", "miscorrect", "due", "sdc"});
    for (const FaultCell &c : result.cells) {
        table.row({c.codec, toString(c.mode), std::to_string(c.errors),
                   c.symbolBits == 1 ? "bit" : "byte",
                   std::to_string(c.trials), c.exhaustive ? "y" : "n",
                   std::to_string(c.clean), std::to_string(c.corrected),
                   std::to_string(c.miscorrected),
                   std::to_string(c.due), std::to_string(c.sdc)});
        jsonRow("fault_matrix",
                {
                    {"codec", "\"" + c.codec + "\""},
                    {"family", "\"" + c.family + "\""},
                    {"mode", std::string("\"") + toString(c.mode) +
                                 "\""},
                    {"errors", jsonNum(
                                   static_cast<std::uint64_t>(
                                       c.errors))},
                    {"symbol_bits",
                     jsonNum(static_cast<std::uint64_t>(c.symbolBits))},
                    {"exhaustive", c.exhaustive ? "true" : "false"},
                    {"trials", jsonNum(c.trials)},
                    {"clean", jsonNum(c.clean)},
                    {"corrected", jsonNum(c.corrected)},
                    {"miscorrected", jsonNum(c.miscorrected)},
                    {"due", jsonNum(c.due)},
                    {"sdc", jsonNum(c.sdc)},
                });
    }
    table.print();

    std::printf("\nmatrix hash: %016llx\n",
                static_cast<unsigned long long>(result.hash()));
    jsonRow("fault_matrix_hash",
            {
                {"trials_per_cell", jsonNum(cfg.trialsPerCell)},
                {"exhaustive_limit", jsonNum(cfg.exhaustiveLimit)},
                {"seed", jsonNum(cfg.seed)},
                {"hash", jsonNum(result.hash())},
            });
    return 0;
}
