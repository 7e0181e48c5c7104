/**
 * @file
 * VECC functional model implementation.
 */

#include "arcc/vecc.hh"

#include <algorithm>

#include "common/logging.hh"

namespace arcc
{

VeccGeometry
VeccGeometry::vecc18()
{
    VeccGeometry g;
    g.devices = 18;
    g.dataDevices = 16;
    g.tier2Symbols = 2;
    return g;
}

VeccGeometry
VeccGeometry::vecc9()
{
    VeccGeometry g;
    g.devices = 9;
    g.dataDevices = 8;
    g.tier2Symbols = 1;
    return g;
}

VeccMemory::VeccMemory(const VeccGeometry &geometry,
                       std::uint64_t lines, double t2HitRate,
                       std::uint64_t seed)
    : geom_(geometry),
      rs_(geometry.devices, geometry.dataDevices),
      lines_(lines),
      t2HitRate_(t2HitRate),
      rng_(seed),
      inline_(lines * geometry.devices, 0),
      tier2_(lines * geometry.tier2Symbols, 0)
{
    if (geometry.tier2Symbols < 1)
        fatal("VeccMemory: tier-2 needs at least one symbol");
}

void
VeccMemory::write(std::uint64_t line,
                  std::span<const std::uint8_t> data)
{
    ARCC_ASSERT(line < lines_);
    ARCC_ASSERT(data.size() ==
                static_cast<std::size_t>(geom_.dataDevices));
    ++stats_.writes;

    const std::span<std::uint8_t> word(
        ws_.word.data(), static_cast<std::size_t>(geom_.devices));
    std::copy(data.begin(), data.end(), word.begin());
    rs_.encode(word);
    std::copy(word.begin(), word.end(),
              inline_.begin() + line * geom_.devices);
    stats_.deviceAccesses += geom_.devices;

    // Tier-2: the virtualised symbols are the codeword's evaluations
    // at the extension roots alpha^(r), alpha^(r+1), ...
    for (int j = 0; j < geom_.tier2Symbols; ++j) {
        tier2_[line * geom_.tier2Symbols + j] =
            rs_.evalAt(word, geom_.inlineChecks() + j);
    }
    // The tier-2 line lives in another rank's data space; updating it
    // costs a second memory write unless it is resident in the LLC.
    if (!rng_.chance(t2HitRate_)) {
        ++stats_.tier2Writebacks;
        stats_.deviceAccesses += geom_.devices;
    }
}

void
VeccMemory::corrupt(std::uint64_t line,
                    std::span<std::uint8_t> word) const
{
    for (int d : deadDevices_) {
        // Deterministic wrong value per (line, device).
        std::uint64_t z = line * 0x9e3779b97f4a7c15ULL + d;
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
        word[d] ^= static_cast<std::uint8_t>((z >> 56) | 1);
    }
}

std::span<std::uint8_t>
VeccMemory::gather(std::uint64_t line)
{
    const std::span<std::uint8_t> word(
        ws_.word.data(), static_cast<std::size_t>(geom_.devices));
    std::copy(inline_.begin() + line * geom_.devices,
              inline_.begin() + (line + 1) * geom_.devices,
              word.begin());
    corrupt(line, word);
    return word;
}

void
VeccMemory::tier2Decode(std::uint64_t line,
                        std::span<std::uint8_t> word,
                        VeccReadResult &res)
{
    // Error detected: fetch the tier-2 symbols (a second access, to a
    // different rank -> 2x the devices) and decode with the extended
    // syndrome set.
    res.tier2Fetched = true;
    ++stats_.tier2Fetches;
    res.deviceAccesses += geom_.devices;

    std::uint8_t synd[RsWorkspace::kMaxChecks];
    for (int j = 0; j < geom_.inlineChecks(); ++j)
        synd[j] = rs_.evalAt(word, j);
    for (int j = 0; j < geom_.tier2Symbols; ++j) {
        int jj = geom_.inlineChecks() + j;
        synd[jj] = GF256::add(
            rs_.evalAt(word, jj),
            tier2_[line * geom_.tier2Symbols + j]);
    }

    int max_correct = geom_.totalChecks() / 2;
    RsDecodeView full = rs_.decodeWithSyndromes(
        word,
        std::span<const std::uint8_t>(
            synd, static_cast<std::size_t>(geom_.totalChecks())),
        ws_, max_correct);
    res.status = full.status;
    if (full.status == DecodeStatus::Corrected)
        stats_.corrected += full.symbolsCorrected;
    if (full.status == DecodeStatus::Detected)
        ++stats_.dues;
    res.data.assign(word.begin(), word.begin() + geom_.dataDevices);
    stats_.deviceAccesses += res.deviceAccesses;
}

void
VeccMemory::readInto(std::uint64_t line, VeccReadResult &res)
{
    ARCC_ASSERT(line < lines_);
    ++stats_.reads;

    const std::span<std::uint8_t> word = gather(line);
    res.deviceAccesses = geom_.devices;
    res.tier2Fetched = false;

    // Tier-1 fast path: detection only (a zero syndrome screen; with
    // maxCorrect = 0 the decoder flags every non-zero pattern, so the
    // screen and the old detection-only decode are the same test).
    if (!rs_.computeSyndromes(
            word, std::span<std::uint8_t>(
                      ws_.synd.data(),
                      static_cast<std::size_t>(geom_.inlineChecks())))) {
        res.status = DecodeStatus::Clean;
        res.data.assign(word.begin(),
                        word.begin() + geom_.dataDevices);
        stats_.deviceAccesses += res.deviceAccesses;
        return;
    }

    tier2Decode(line, word, res);
}

VeccReadResult
VeccMemory::read(std::uint64_t line)
{
    VeccReadResult res;
    readInto(line, res);
    return res;
}

void
VeccMemory::readBatch(std::span<const std::uint64_t> lines,
                      std::vector<VeccReadResult> &out)
{
    out.resize(lines.size());
    for (std::size_t i = 0; i < lines.size(); ++i)
        readInto(lines[i], out[i]);
}

void
VeccMemory::killDevice(int device)
{
    ARCC_ASSERT(device >= 0 && device < geom_.devices);
    for (int d : deadDevices_)
        if (d == device)
            return;
    deadDevices_.push_back(device);
}

} // namespace arcc
