/**
 * @file
 * Service requests: the typed, canonicalized unit of work arccd
 * serves.
 *
 * A request arrives as one line of JSON naming a simulation the
 * client wants run: a synthetic Table 7.3 mix, a captured-trace
 * replay, or a campaign slice.  Parsing is strict -- unknown keys,
 * duplicate keys, wrong types, negative values for unsigned fields,
 * and out-of-policy sizes are all rejected with a message instead of
 * being coerced (the same silent-zero holes the CLI parsers were
 * hardened against, closed at the wire).
 *
 * ## Canonical form and the cache key
 *
 * canonical() re-serializes the *typed* request with every default
 * materialized, keys in one fixed order, and doubles in the bench
 * jsonRow "%.17g" rendering.  Two spellings of the same request --
 * reordered keys, extra whitespace, "5.0" vs "5" -- canonicalize to
 * the same bytes; two different requests never do.  The canonical
 * string is the memoization key (so cache correctness never rests on
 * a 64-bit hash not colliding), and hash() folds it through the same
 * splitmix64 chain as CampaignSpec::configHash() -- which is itself
 * mixed in for campaign requests, so everything the spec hashes
 * (geometry, rates, sketch shapes) is part of request identity.
 *
 * Trace requests fold the CRC-32C of every trace file's *content*
 * into the canonical form: memoizing by path alone would serve stale
 * results after the file changed.
 *
 * tests/test_property_service.cc fuzzes near-identical request pairs
 * against both guarantees (differing specs never share a canonical
 * hash; hash-equal requests byte-compare equal responses).
 */

#ifndef ARCC_SERVICE_REQUEST_HH
#define ARCC_SERVICE_REQUEST_HH

#include <cstdint>
#include <string>
#include <vector>

#include "campaign/campaign.hh"

namespace arcc
{

/** What one request asks the daemon to do. */
enum class ServiceRequestKind
{
    /** Synthetic Table 7.3 mix through the system simulator. */
    Mix,
    /** Captured-trace replay through the system simulator. */
    Trace,
    /** A reliability campaign slice (campaign/campaign.hh). */
    Campaign,
    /** Cache / scheduler counters (not memoized, not deterministic). */
    Stats,
    /** Ask the daemon to exit after answering. */
    Shutdown,
};

/** One parsed and validated request. */
struct ServiceRequest
{
    ServiceRequestKind kind = ServiceRequestKind::Mix;

    // -- Mix / Trace: system-simulator knobs. -------------------------
    /** Memory configuration: baseline | arcc | arcc4 | arcc8. */
    std::string config = "arcc";
    std::string mix = "Mix1";
    /** none | lane | device | bank | column (ignored when fraction
     *  is set). */
    std::string fault = "none";
    /** Upgraded-page fraction in [0, 1]; -1 = use `fault`. */
    double fraction = -1.0;
    std::uint64_t instrs = 1'000'000;
    std::uint64_t seed = 42;
    bool sectored = false;
    /** Trace: exactly 4 files (text or ARCCTRC1), one per core. */
    std::vector<std::string> tracePaths;
    /** CRC-32C of each trace file's bytes, filled at parse time. */
    std::vector<std::uint32_t> traceCrcs;

    // -- Campaign. ----------------------------------------------------
    /** The campaign slice; only the wire-exposed fields differ from
     *  the defaults (channels, years, boost, seed, scrub_hours,
     *  group_devices, epoch_trials, shard_trials). */
    CampaignSpec campaign;

    /**
     * Parse and validate one request line.
     * @return true on success; false sets `error` (the daemon turns
     *         it into an error response -- never fatal()).
     */
    static bool parse(const std::string &line, ServiceRequest &out,
                      std::string &error);

    /**
     * The canonical serialization: fixed key order, defaults
     * materialized, "%.17g" doubles.  A canonical string is itself a
     * valid request line and re-parses to an identical request.
     */
    std::string canonical() const;

    /** Stable 64-bit digest of the canonical form (the wire
     *  "request_hash"); campaign requests also fold
     *  CampaignSpec::configHash(). */
    std::uint64_t hash() const;
};

/**
 * The deterministic mixed request set the stress tooling shares:
 * Table 7.3 mixes across configs and fault scenarios plus small
 * campaign slices.  arcc_load fires it concurrently from every
 * client, and the determinism test pins its responses across thread
 * counts and cache states -- one set, two harnesses, so the goldens
 * all talk about the same bytes.
 *
 * @param instrs           per-core instruction budget of the sim
 *                         requests.
 * @param campaignChannels fleet size of the campaign requests.
 */
std::vector<ServiceRequest>
standardServiceRequests(std::uint64_t instrs,
                        std::uint64_t campaignChannels);

} // namespace arcc

#endif // ARCC_SERVICE_REQUEST_HH
