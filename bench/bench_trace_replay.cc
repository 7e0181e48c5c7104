/**
 * @file
 * Trace-replay bench: stream binary trace workloads through the
 * system simulator at 2, 4, and 8 channels.
 *
 * Captures the Table 7.3 Mix9 streams once into binary trace files
 * (deterministic: fixed seed), then replays them via TraceStream --
 * O(chunk) resident memory -- through simulateStreams on each channel
 * width.  The JSON rows track the IPC / power / traffic of each width,
 * and CI's 1-vs-N-thread diff requires them to be bit-identical.
 * Replay throughput is measured by perfbench, not here.
 */

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <unistd.h>
#include <vector>

#include "bench_common.hh"
#include "common/table.hh"
#include "cpu/trace.hh"

using namespace arcc;

namespace
{

/** Capture one synthetic core straight into a binary trace file. */
std::string
captureCore(const std::filesystem::path &dir, const SystemConfig &cfg,
            const std::string &bench, int core)
{
    AddressMap map(cfg.mem, cfg.mapPolicy);
    std::string path =
        (dir / (bench + "." + std::to_string(core) + ".bin")).string();
    captureSyntheticTrace(bench, map.capacity(), core,
                          mixCoreSeed(cfg.seed, core),
                          cfg.instrsPerCore, path);
    return path;
}

} // namespace

int
main()
{
    printBanner("Trace replay at 2, 4 and 8 channels");

    SystemConfig cfg;
    cfg.mem = arccConfig();
    cfg.instrsPerCore = bench::instrBudget();
    cfg.seed = 20130223;
    const WorkloadMix &mix = table73Mixes()[8];

    const std::filesystem::path dir =
        std::filesystem::temp_directory_path() /
        ("arcc_bench_trace." + std::to_string(::getpid()));
    std::filesystem::create_directories(dir);

    std::vector<std::string> bins;
    std::uint64_t total_records = 0;
    for (int core = 0; core < cfg.cores; ++core) {
        bins.push_back(
            captureCore(dir, cfg, mix.benchmarks[core], core));
        total_records +=
            (std::filesystem::file_size(bins.back()) -
             sizeof kTraceMagic) / kTraceRecordBytes;
    }
    std::printf("captured %s: %llu accesses over %d binary traces, "
                "%llu instrs/core\n\n",
                mix.name.c_str(),
                static_cast<unsigned long long>(total_records),
                cfg.cores,
                static_cast<unsigned long long>(cfg.instrsPerCore));

    TextTable t;
    t.header({"Channels", "IPC sum", "DRAM mW", "Mem reads"});
    for (int channels : {2, 4, 8}) {
        SystemConfig ccfg = cfg;
        ccfg.mem = withChannels(cfg.mem, channels);

        std::vector<StreamSpec> streams;
        for (int core = 0; core < ccfg.cores; ++core)
            streams.push_back(traceStreamSpec(
                bins[core],
                benchmarkProfile(mix.benchmarks[core]).baseIpc));

        SimResult r = simulateStreams(std::move(streams), ccfg, {});
        std::uint64_t laps = 0;
        for (const CoreResult &core : r.cores)
            laps += core.traceLaps;

        t.row({std::to_string(channels), TextTable::num(r.ipcSum, 3),
               TextTable::num(r.avgPowerMw, 0),
               std::to_string(r.memReads)});
        bench::jsonRow(
            "trace_replay",
            {{"channels", bench::jsonNum(
                              static_cast<std::uint64_t>(channels))},
             {"ipc_sum", bench::jsonNum(r.ipcSum)},
             {"avg_mw", bench::jsonNum(r.avgPowerMw)},
             {"elapsed_ns", bench::jsonNum(r.elapsedNs)},
             {"mem_reads", bench::jsonNum(r.memReads)},
             {"mem_writes", bench::jsonNum(r.memWrites)},
             {"trace_laps", bench::jsonNum(laps)}});
    }
    t.print();

    std::filesystem::remove_all(dir);
    return 0;
}
