/**
 * @file
 * Fleet-scale campaign runner with checkpoint/resume and
 * multi-process scale-out.
 *
 * Runs a CampaignSpec to completion, sealing a checkpoint record
 * after every epoch when --checkpoint is given.  SIGTERM / SIGINT
 * request a graceful stop: the driver finishes the epoch in flight,
 * seals it, and exits with status 3 so a supervisor knows to re-run
 * the same command line -- which resumes from the last sealed epoch
 * and produces a final digest bit-identical to an uninterrupted run
 * (SIGKILL mid-epoch recovers the same way; the CI smoke test proves
 * it).
 *
 * Scale-out modes (all derive the same WorkerPlan from the spec, so
 * the merged digest is bit-identical to a single-process run):
 *
 *   --workers N --worker-id K   run only worker K's slice; with
 *                               --checkpoint B the log goes to B.wK
 *   --workers N --merge         load the N finished worker logs
 *                               B.w0..B.w(N-1) and print the merged
 *                               campaign digest (requires --checkpoint)
 *   --workers N                 one-machine fan-out: fork N children,
 *                               one per worker, wait, then merge
 *                               (requires --checkpoint)
 *
 * Usage:
 *   arcc_campaign [--channels N] [--years Y] [--boost B] [--seed S]
 *                 [--epoch-trials N] [--group-devices N]
 *                 [--max-epochs N] [--checkpoint PATH] [--quiet]
 *                 [--workers N] [--worker-id K] [--merge]
 *
 * Exit status: 0 campaign complete, 1 bad usage or fatal error (with
 * --workers, also when any worker fails), 3 interrupted by signal
 * (resume by re-running).
 */

#include <cerrno>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include "campaign/campaign.hh"
#include "common/parse_num.hh"
#include "engine/sim_engine.hh"

using namespace arcc;

namespace
{

/** Set from the signal handler; polled between epochs. */
volatile std::sig_atomic_t g_stop = 0;

void
onSignal(int)
{
    g_stop = 1;
}

[[noreturn]] void
usage(const char *argv0)
{
    std::fprintf(stderr,
                 "usage: %s [--channels N] [--years Y] [--boost B] "
                 "[--seed S]\n"
                 "          [--epoch-trials N] [--group-devices N] "
                 "[--max-epochs N]\n"
                 "          [--checkpoint PATH] [--quiet]\n"
                 "          [--workers N] [--worker-id K] [--merge]\n",
                 argv0);
    std::exit(1);
}

/** The stats + digest block every completing mode prints.  The
 *  "campaign_digest" line is the one CI and the resume tests grep. */
void
printResult(const CampaignSpec &spec, const CampaignRunResult &result,
            bool quiet)
{
    const CampaignAggregate &agg = result.aggregate;
    if (!quiet) {
        if (result.resumedFromTrial > 0)
            std::printf("resumed from trial %llu\n",
                        static_cast<unsigned long long>(
                            result.resumedFromTrial));
        std::printf("trials %llu  faults %llu  with-fault %llu  "
                    "sdc-cand %llu  due-cand %llu\n",
                    static_cast<unsigned long long>(agg.trials),
                    static_cast<unsigned long long>(agg.faultsSampled),
                    static_cast<unsigned long long>(
                        agg.trialsWithFault),
                    static_cast<unsigned long long>(
                        agg.sdcCandidates),
                    static_cast<unsigned long long>(
                        agg.dueCandidates));
        std::printf("affected mean %.6f  p50 %.6f  p99 %.6f  "
                    "max %.6f\n",
                    agg.meanAffected(), agg.affectedHist.quantile(0.5),
                    agg.affectedHist.quantile(0.99),
                    agg.trials ? agg.affectedHist.max() : 0.0);
    }
    std::printf("campaign_digest %016llx over %llu/%llu trials%s\n",
                static_cast<unsigned long long>(result.digest(spec)),
                static_cast<unsigned long long>(agg.trials),
                static_cast<unsigned long long>(spec.channels),
                result.interrupted ? " (interrupted)" : "");
}

/** Run worker `id`'s slice in this process (the --worker-id mode and
 *  the body of every fan-out child). */
CampaignRunResult
runOneWorker(const CampaignSpec &spec, const WorkerPlan &plan,
             std::uint32_t id, const std::string &checkpointBase,
             std::uint64_t maxEpochs, bool quiet)
{
    CampaignRunOptions options;
    options.maxEpochs = maxEpochs;
    options.stopRequested = [] { return g_stop != 0; };
    if (!checkpointBase.empty())
        options.checkpointPath =
            workerCheckpointPath(checkpointBase, id);

    CampaignDriver driver(spec);
    CampaignRunResult result = driver.runWorker(plan, id, options);
    const WorkerRange range = plan.range(id);
    if (!quiet)
        std::printf("worker %u/%u trials [%llu, %llu): ran %llu "
                    "epochs, %llu/%llu trials done%s\n",
                    id, plan.workers(),
                    static_cast<unsigned long long>(range.begin),
                    static_cast<unsigned long long>(range.end),
                    static_cast<unsigned long long>(result.epochsRun),
                    static_cast<unsigned long long>(
                        result.aggregate.trials),
                    static_cast<unsigned long long>(range.trials()),
                    result.interrupted ? " (interrupted)" : "");
    return result;
}

/** Load all finished worker logs and print the merged campaign. */
int
mergeWorkers(const CampaignSpec &spec, const WorkerPlan &plan,
             const std::string &checkpointBase, bool quiet)
{
    std::vector<CampaignWorkerSlice> slices;
    slices.reserve(plan.workers());
    for (std::uint32_t id = 0; id < plan.workers(); ++id)
        slices.push_back(
            loadWorkerSlice(workerCheckpointPath(checkpointBase, id),
                            spec, plan, id));
    printResult(spec, mergeCampaigns(spec, std::move(slices)), quiet);
    return 0;
}

/**
 * One-machine fan-out: fork one child per worker and merge when all
 * succeed.  The parent never touches SimEngine::global() -- each
 * child starts its own engine workers after the fork, so no worker
 * threads or locks are duplicated into the children.
 */
int
fanOut(const CampaignSpec &spec, const WorkerPlan &plan,
       const std::string &checkpointBase, std::uint64_t maxEpochs,
       bool quiet)
{
    // Children inherit stdio buffers: flush so each line prints once.
    std::fflush(stdout);
    std::vector<pid_t> children(plan.workers(), -1);
    for (std::uint32_t id = 0; id < plan.workers(); ++id) {
        const pid_t pid = fork();
        if (pid < 0) {
            std::perror("fork");
            for (pid_t c : children)
                if (c > 0)
                    kill(c, SIGTERM);
            return 1;
        }
        if (pid == 0) {
            const CampaignRunResult result = runOneWorker(
                spec, plan, id, checkpointBase, maxEpochs, quiet);
            std::fflush(stdout);
            _exit(result.interrupted ? 3 : 0);
        }
        children[id] = pid;
    }

    // Reap every child.  One that exited 3 or died by a signal left a
    // log the same command resumes; any other nonzero exit is a
    // failure that re-running would only repeat.
    bool interrupted = false, failed = false;
    for (std::uint32_t id = 0; id < plan.workers(); ++id) {
        int status = 0;
        while (waitpid(children[id], &status, 0) < 0) {
            if (errno != EINTR) {
                std::perror("waitpid");
                return 1;
            }
            if (g_stop)
                for (pid_t c : children)
                    if (c > 0)
                        kill(c, SIGTERM);
        }
        if (!WIFEXITED(status) || WEXITSTATUS(status) == 3) {
            interrupted = true;
        } else if (WEXITSTATUS(status) != 0) {
            std::fprintf(stderr, "worker %u/%u failed (exit status %d)\n",
                         id, plan.workers(), WEXITSTATUS(status));
            failed = true;
        }
    }
    if (failed)
        return 1;
    if (interrupted) {
        std::fprintf(stderr,
                     "fan-out interrupted; re-run the same command "
                     "to resume the unfinished workers and merge\n");
        return 3;
    }
    return mergeWorkers(spec, plan, checkpointBase, quiet);
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    CampaignSpec spec;
    spec.channels = 1 << 14;
    std::string checkpointBase;
    std::uint64_t maxEpochs = 0;
    std::uint32_t workers = 0; // 0 = classic single-process mode
    long workerId = -1;
    bool merge = false;
    bool quiet = false;

    for (int i = 1; i < argc; ++i) {
        auto value = [&]() -> const char * {
            if (i + 1 >= argc)
                usage(argv[0]);
            return argv[++i];
        };
        if (std::strcmp(argv[i], "--channels") == 0)
            spec.channels = parseU64("--channels", value());
        else if (std::strcmp(argv[i], "--years") == 0)
            spec.years = parseDouble("--years", value());
        else if (std::strcmp(argv[i], "--boost") == 0)
            spec.rateBoost = parseDouble("--boost", value());
        else if (std::strcmp(argv[i], "--seed") == 0)
            spec.seed = parseU64("--seed", value());
        else if (std::strcmp(argv[i], "--epoch-trials") == 0)
            spec.epochTrials = parseU64("--epoch-trials", value());
        else if (std::strcmp(argv[i], "--group-devices") == 0)
            spec.devicesPerGroup =
                parseInt("--group-devices", value());
        else if (std::strcmp(argv[i], "--max-epochs") == 0)
            maxEpochs = parseU64("--max-epochs", value());
        else if (std::strcmp(argv[i], "--checkpoint") == 0)
            checkpointBase = value();
        else if (std::strcmp(argv[i], "--workers") == 0)
            workers = parseU32("--workers", value());
        else if (std::strcmp(argv[i], "--worker-id") == 0)
            workerId = parseI64("--worker-id", value());
        else if (std::strcmp(argv[i], "--merge") == 0)
            merge = true;
        else if (std::strcmp(argv[i], "--quiet") == 0)
            quiet = true;
        else
            usage(argv[0]);
    }
    if (spec.channels == 0 || spec.years <= 0 || spec.rateBoost <= 0)
        usage(argv[0]);
    if ((workerId >= 0 || merge) && workers == 0) {
        std::fprintf(stderr, "%s: --worker-id and --merge require "
                             "--workers\n", argv[0]);
        return 1;
    }
    if (workerId >= 0 && merge) {
        std::fprintf(stderr, "%s: --worker-id and --merge are "
                             "mutually exclusive\n", argv[0]);
        return 1;
    }
    if (workers > 0 && workerId < 0 && checkpointBase.empty()) {
        std::fprintf(stderr, "%s: fan-out and --merge need "
                             "--checkpoint (per-worker logs are what "
                             "gets merged)\n", argv[0]);
        return 1;
    }
    if (workerId >= 0 &&
        static_cast<std::uint64_t>(workerId) >= workers) {
        std::fprintf(stderr, "%s: --worker-id %ld out of range for "
                             "--workers %u\n",
                     argv[0], workerId, workers);
        return 1;
    }

    std::signal(SIGTERM, onSignal);
    std::signal(SIGINT, onSignal);

    if (!quiet)
        std::printf("campaign: %llu channels x %.1f years, boost "
                    "%.0fx, %d-device groups, epoch %llu, config "
                    "%016llx, %u workers\n",
                    static_cast<unsigned long long>(spec.channels),
                    spec.years, spec.rateBoost, spec.devicesPerGroup,
                    static_cast<unsigned long long>(spec.epochTrials),
                    static_cast<unsigned long long>(spec.configHash()),
                    workers > 0 ? workers : 1u);

    if (workers > 0) {
        const WorkerPlan plan(spec, workers);
        if (merge)
            return mergeWorkers(spec, plan, checkpointBase, quiet);
        if (workerId >= 0) {
            const CampaignRunResult result = runOneWorker(
                spec, plan, static_cast<std::uint32_t>(workerId),
                checkpointBase, maxEpochs, quiet);
            return result.interrupted ? 3 : 0;
        }
        return fanOut(spec, plan, checkpointBase, maxEpochs, quiet);
    }

    CampaignRunOptions options;
    options.checkpointPath = checkpointBase;
    options.maxEpochs = maxEpochs;
    options.stopRequested = [] { return g_stop != 0; };

    CampaignDriver driver(spec);
    const CampaignRunResult result = driver.run(options);
    printResult(spec, result, quiet);
    return result.interrupted ? 3 : 0;
}
