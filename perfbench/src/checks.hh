/**
 * @file
 * Output checks.  Each workload verifies what the library returned
 * before a result counts: a wrong output makes the run fail (nonzero
 * exit), a refused or undecodable operation counts as a failed one.
 */

#ifndef PERFBENCH_CHECKS_HH
#define PERFBENCH_CHECKS_HH

#include <cstdint>
#include <map>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "arcc/arcc_memory.hh"
#include "cpu/system_sim.hh"

namespace perfbench
{

/** Every field of a SimResult as bytes (doubles bit for bit). */
std::string simResultBytes(const arcc::SimResult &r);

/**
 * "Every repeat equals the first": remembers the first value seen per
 * key and compares later ones byte for byte.  Thread-safe.  Serves
 * figsweep (job -> SimResult bytes) and arccd (canonical request ->
 * response line).
 */
class FirstSeenCheck
{
  public:
    /** @return false when `value` differs from the key's first one. */
    bool check(const std::string &key, const std::string &value);

  private:
    mutable std::mutex mutex_;
    std::map<std::string, std::string> first_;
};

/** What a read returned relative to the shadow copy. */
enum class ReadVerdict
{
    Ok,       ///< data equals the last write.
    Due,      ///< detected-uncorrectable: a failed operation.
    Mismatch, ///< wrong data reported as good: an error.
};

/** Byte-for-byte copy of what was last written to an ArccMemory. */
class ShadowMemory
{
  public:
    explicit ShadowMemory(std::uint64_t bytes) : bytes_(bytes, 0) {}

    void write(std::uint64_t addr, std::span<const std::uint8_t> data);
    ReadVerdict check(std::uint64_t addr,
                      const arcc::ReadResult &read) const;

  private:
    std::vector<std::uint8_t> bytes_;
};

/**
 * fleet: every checkpointed run's digest must equal the digest of a
 * plain run() of the same spec.
 */
class DigestCheck
{
  public:
    void addCheckpointed(std::uint64_t digest)
    {
        seen_.push_back(digest);
    }
    /** @return false when any recorded digest differs from `plain`. */
    bool verify(std::uint64_t plain) const;

  private:
    std::vector<std::uint64_t> seen_;
};

/** arccd: a response must be ok:true to count as served. */
bool responseOk(const std::string &response);

/**
 * Latency fixed-point passes a job takes, measured from outside: the
 * smallest latencyPasses k in [1, job.config.latencyPasses] whose
 * SimResult equals `reference` (the default run) bit for bit.  The
 * predicate is monotone in k -- once the loop has converged, a larger
 * budget replays the identical passes -- so a bisection finds it.
 */
int latencyPasses(const arcc::MixJob &job, const std::string &reference);

} // namespace perfbench

#endif // PERFBENCH_CHECKS_HH
