/**
 * @file
 * Fault-injection matrix implementation.
 *
 * The campaign flattens every (codec, mode, error count) cell into one
 * global trial space and runs it through SimEngine::reduceShards; see
 * the header for the determinism contract this preserves.
 */

#include "faults/fault_matrix.hh"

#include <algorithm>
#include <array>
#include <limits>

#include "common/logging.hh"
#include "common/rng.hh"
#include "engine/sim_engine.hh"

namespace arcc
{

const char *
toString(FailMode m)
{
    switch (m) {
      case FailMode::None:   return "none";
      case FailMode::Random: return "random";
      case FailMode::Burst:  return "burst";
    }
    return "?";
}

namespace
{

/** Saturation cap for combination counting (far above any real cell). */
constexpr std::uint64_t kComboCap = std::uint64_t(1) << 62;

/** C(n, k), saturating at kComboCap. */
std::uint64_t
binomial(std::uint64_t n, std::uint64_t k)
{
    if (k > n)
        return 0;
    if (k > n - k)
        k = n - k;
    std::uint64_t c = 1;
    for (std::uint64_t i = 1; i <= k; ++i) {
        // c * (n - k + i) / i is always integral at this point.
        if (c > kComboCap / (n - k + i))
            return kComboCap;
        c = c * (n - k + i) / i;
    }
    return std::min(c, kComboCap);
}

/**
 * Lexicographic unranking: the `rank`-th (0-based) ascending
 * k-combination of [0, n), appended to `out`.
 */
void
unrankCombination(std::uint64_t rank, int n, int k, int offset,
                  std::vector<int> &out)
{
    int x = 0;
    for (int i = 0; i < k; ++i) {
        for (;; ++x) {
            const std::uint64_t below = binomial(n - 1 - x, k - 1 - i);
            if (rank < below)
                break;
            rank -= below;
        }
        out.push_back(offset + x);
        ++x;
    }
}

/** Sample k distinct positions from [0, n), appended with `offset`. */
void
samplePositions(Rng &rng, int n, int k, int offset,
                std::vector<int> &out)
{
    const std::size_t base = out.size();
    while (out.size() < base + static_cast<std::size_t>(k)) {
        const int p =
            offset + static_cast<int>(rng.below(
                         static_cast<std::uint64_t>(n)));
        bool dup = false;
        for (std::size_t i = base; i < out.size(); ++i)
            dup = dup || out[i] == p;
        if (!dup)
            out.push_back(p);
    }
    std::sort(out.begin() + base, out.end());
}

/** Execution plan for one cell. */
struct CellPlan
{
    int codecIndex = 0;
    FailMode mode = FailMode::None;
    int errors = 0;
    bool exhaustive = false;
    std::uint64_t trials = 0;
    /** Wire positions per device slice (symbols or bits). */
    int slotPositions = 0;
    /** Total wire positions (devices x slotPositions). */
    int totalPositions = 0;
    /** Burst only: position combinations per device. */
    std::uint64_t combosPerDevice = 0;
};

/** Per-shard outcome counters for one cell. */
struct CellCounts
{
    std::array<std::uint64_t, 5> v{}; // clean, corr, misc, due, sdc.
};

/** FNV-ish string digest folded into the matrix hash. */
std::uint64_t
hashString(std::uint64_t h, const std::string &s)
{
    for (unsigned char c : s)
        h = Rng::mix64(h ^ c);
    return Rng::mix64(h ^ s.size());
}

std::uint64_t
hashValue(std::uint64_t h, std::uint64_t v)
{
    return Rng::mix64(h ^ v);
}

/**
 * Inject corruption at one wire position: the line buffer's byte index
 * for symbol codecs, its bit index for bit codecs (device-major, so
 * device d's positions are [d * slotPositions, (d + 1) * slotPositions)).
 */
void
applyError(DeviceSlices &line, int pos, int symbolBits, Rng &rng)
{
    if (symbolBits == 1) {
        line[pos / 8] ^= static_cast<std::uint8_t>(1 << (pos % 8));
    } else {
        // Whole-symbol corruption: any non-zero XOR mask.
        line[pos] ^= static_cast<std::uint8_t>(1 + rng.below(255));
    }
}

} // anonymous namespace

std::uint64_t
FaultMatrixResult::hash() const
{
    std::uint64_t h = 0x41524343ULL; // "ARCC"
    h = hashValue(h, cells.size());
    for (const FaultCell &c : cells) {
        h = hashString(h, c.codec);
        h = hashString(h, toString(c.mode));
        h = hashValue(h, static_cast<std::uint64_t>(c.errors));
        h = hashValue(h, static_cast<std::uint64_t>(c.symbolBits));
        h = hashValue(h, c.exhaustive ? 1 : 0);
        h = hashValue(h, c.trials);
        h = hashValue(h, c.clean);
        h = hashValue(h, c.corrected);
        h = hashValue(h, c.miscorrected);
        h = hashValue(h, c.due);
        h = hashValue(h, c.sdc);
    }
    return h;
}

FaultMatrixResult
runFaultMatrix(const FaultMatrixConfig &config, SimEngine *engine)
{
    SimEngine &eng = engine ? *engine : SimEngine::global();

    FaultMatrixResult result;
    result.config = config;

    // ------------------------------------------------------------------
    // Plan: instantiate each codec once (instances are immutable and
    // shared across shards; all scratch lives in per-shard workspaces)
    // and lay the cells out in a deterministic order.
    // ------------------------------------------------------------------
    std::vector<std::unique_ptr<LineCodec>> zoo;
    zoo.reserve(config.codecs.size());
    for (const std::string &key : config.codecs)
        zoo.push_back(codecs::make(key));

    std::vector<CellPlan> plans;
    for (std::size_t ci = 0; ci < zoo.size(); ++ci) {
        const LineCodec &codec = *zoo[ci];
        const CodecTraits traits = codec.traits();
        const int perByte = traits.symbolBits == 1 ? 8 : 1;
        const int slot = codec.sliceBytes() * perByte;
        const int total = codec.devices() * slot;

        auto addCell = [&](FailMode mode, int errors) {
            CellPlan p;
            p.codecIndex = static_cast<int>(ci);
            p.mode = mode;
            p.errors = errors;
            p.slotPositions = slot;
            p.totalPositions = total;

            std::uint64_t combos = 1;
            if (mode == FailMode::Random) {
                combos = binomial(total, errors);
            } else if (mode == FailMode::Burst) {
                if (errors > slot)
                    return; // No such burst pattern exists.
                p.combosPerDevice = binomial(slot, errors);
                if (p.combosPerDevice >
                    kComboCap / codec.devices())
                    combos = kComboCap;
                else
                    combos = p.combosPerDevice * codec.devices();
            }
            p.exhaustive =
                errors > 0 && combos <= config.exhaustiveLimit;
            p.trials = p.exhaustive ? combos : config.trialsPerCell;
            plans.push_back(p);

            FaultCell cell;
            cell.codec = config.codecs[ci];
            cell.name = codec.name();
            cell.family = traits.family;
            cell.mode = mode;
            cell.errors = errors;
            cell.symbolBits = traits.symbolBits;
            cell.exhaustive = p.exhaustive;
            cell.trials = p.trials;
            result.cells.push_back(cell);
        };

        addCell(FailMode::None, 0);
        const int maxErrors = traits.correct + config.extraErrors;
        for (int e = 1; e <= maxErrors; ++e)
            addCell(FailMode::Random, e);
        for (int e = 1; e <= maxErrors; ++e)
            addCell(FailMode::Burst, e);
    }

    // Global trial space: prefix sums over the cells.
    std::vector<std::uint64_t> first(plans.size() + 1, 0);
    for (std::size_t i = 0; i < plans.size(); ++i)
        first[i + 1] = first[i] + plans[i].trials;
    const std::uint64_t totalTrials = first.back();

    // ------------------------------------------------------------------
    // Sweep: one reduceShards over the whole trial space.  Every trial
    // draws from Rng::stream(seed, globalIndex) -- a pure function --
    // so shard scheduling cannot perturb any outcome.
    // ------------------------------------------------------------------
    using Partial = std::vector<CellCounts>;
    Partial counts = eng.reduceShards(
        totalTrials, SimEngine::kDefaultShard,
        [&](const ShardRange &shard) {
            Partial local(plans.size());
            LineWorkspace ws;
            std::vector<std::uint8_t> data;
            std::vector<std::uint8_t> decoded;
            std::vector<int> positions;
            DeviceSlices slices;

            // Shards are contiguous, so resolve the starting cell
            // once and walk forward.
            std::size_t cell =
                static_cast<std::size_t>(
                    std::upper_bound(first.begin(), first.end(),
                                     shard.begin) -
                    first.begin()) -
                1;
            for (std::uint64_t g = shard.begin; g < shard.end; ++g) {
                while (g >= first[cell + 1])
                    ++cell;
                const CellPlan &plan = plans[cell];
                const std::uint64_t trial = g - first[cell];
                const LineCodec &codec = *zoo[plan.codecIndex];
                Rng rng = Rng::stream(config.seed, g);

                data.resize(codec.dataBytes());
                for (std::uint8_t &b : data)
                    b = static_cast<std::uint8_t>(rng.below(256));
                codec.encodeInto(data, slices, ws);

                positions.clear();
                if (plan.mode == FailMode::Random) {
                    if (plan.exhaustive)
                        unrankCombination(trial, plan.totalPositions,
                                          plan.errors, 0, positions);
                    else
                        samplePositions(rng, plan.totalPositions,
                                        plan.errors, 0, positions);
                } else if (plan.mode == FailMode::Burst) {
                    int device;
                    std::uint64_t rank;
                    if (plan.exhaustive) {
                        device = static_cast<int>(
                            trial / plan.combosPerDevice);
                        rank = trial % plan.combosPerDevice;
                        unrankCombination(
                            rank, plan.slotPositions, plan.errors,
                            device * plan.slotPositions, positions);
                    } else {
                        device = static_cast<int>(
                            rng.below(codec.devices()));
                        samplePositions(rng, plan.slotPositions,
                                        plan.errors,
                                        device * plan.slotPositions,
                                        positions);
                    }
                }
                for (int p : positions)
                    applyError(slices, p, codec.traits().symbolBits, rng);

                decoded.resize(codec.dataBytes());
                codec.decodeInto(slices, decoded, {}, ws, ws.dec);

                CellCounts &c = local[cell];
                if (ws.dec.status == DecodeStatus::Detected) {
                    c.v[3] += 1; // DUE.
                } else {
                    const bool intact =
                        std::equal(data.begin(), data.end(),
                                   decoded.begin());
                    if (ws.dec.status == DecodeStatus::Corrected)
                        c.v[intact ? 1 : 2] += 1;
                    else
                        c.v[intact ? 0 : 4] += 1;
                }
            }
            return local;
        },
        [&](std::vector<Partial> &&partials) {
            Partial sum(plans.size());
            for (const Partial &p : partials)
                for (std::size_t i = 0; i < p.size(); ++i)
                    for (int j = 0; j < 5; ++j)
                        sum[i].v[j] += p[i].v[j];
            return sum;
        });

    for (std::size_t i = 0; i < plans.size(); ++i) {
        FaultCell &cell = result.cells[i];
        cell.clean = counts[i].v[0];
        cell.corrected = counts[i].v[1];
        cell.miscorrected = counts[i].v[2];
        cell.due = counts[i].v[3];
        cell.sdc = counts[i].v[4];
        ARCC_ASSERT(cell.clean + cell.corrected + cell.miscorrected +
                        cell.due + cell.sdc ==
                    cell.trials);
    }
    return result;
}

} // namespace arcc
