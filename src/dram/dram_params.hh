/**
 * @file
 * DDR2 device parameters and the memory configurations of Table 7.1.
 *
 * Timing and current (IDD) values follow the Micron 512Mb DDR2-667
 * datasheet family the paper cites [13].  The power formulation is the
 * Micron power-calculator method that DRAMsim also implements, so the
 * *ratios* the paper reports (the only quantities it reports) are
 * preserved even though our absolute milliwatts are approximations.
 */

#ifndef ARCC_DRAM_DRAM_PARAMS_HH
#define ARCC_DRAM_DRAM_PARAMS_HH

#include <cstdint>
#include <string>
#include <string_view>

namespace arcc
{

/** Device data-bus width. */
enum class DeviceWidth
{
    X4,
    X8,
    X16,
};

/** @return "x4" / "x8" / "x16". */
const char *toString(DeviceWidth w);

/**
 * Electrical and timing parameters of one DRAM device.
 * Currents are in mA, voltages in V, times in ns.
 */
struct DeviceParams
{
    std::string name;
    DeviceWidth width = DeviceWidth::X4;

    /** Device density in megabits. */
    int densityMbit = 512;
    /** Internal banks. */
    int banks = 8;
    /** Rows per bank. */
    int rowsPerBank = 8192;
    /** Row size in bytes contributed by this device. */
    int rowBytes = 1024;

    // --- Timing (ns); DDR2-667 grade (tCK = 3 ns, CL = 5). ---
    double tCK = 3.0;
    int clCycles = 5;     ///< CAS latency, cycles.
    int tRCD = 5;         ///< ACT-to-CAS, cycles.
    int tRP = 5;          ///< Precharge, cycles.
    int tRAS = 15;        ///< ACT-to-PRE minimum, cycles.
    int tRC = 20;         ///< ACT-to-ACT same bank, cycles.
    int tRRD = 3;         ///< ACT-to-ACT different bank, cycles.
    int tWR = 5;          ///< Write recovery, cycles.
    int tWTR = 3;         ///< Write-to-read turnaround, cycles.
    int burstLength = 4;  ///< Beats per access (DDR: BL/2 cycles).

    // --- Currents (mA) at VDD. ---
    double vdd = 1.8;
    double idd0 = 90.0;   ///< One-bank ACT-PRE average.
    double idd2p = 7.0;   ///< Precharge power-down standby.
    double idd2n = 30.0;  ///< Precharge standby.
    double idd3n = 35.0;  ///< Active standby.
    double idd3p = 12.0;  ///< Active power-down standby.
    double idd4r = 150.0; ///< Burst read.
    double idd4w = 155.0; ///< Burst write.
    double idd5 = 200.0;  ///< Refresh.

    /** Termination / IO energy per data beat (nJ), both directions. */
    double ioEnergyPerBeat = 0.15;

    /** Refresh interval (ns) and refresh command period tRFC (ns). */
    double tREFI = 7800.0;
    double tRFC = 105.0;

    /** Burst duration in clock cycles (DDR moves 2 beats/cycle). */
    int burstCycles() const { return burstLength / 2; }

    /** Derived per-event energies (nJ per device). */
    double actPreEnergy() const;
    double readBurstEnergy() const;
    double writeBurstEnergy() const;
    /** Background power (mW per device) by state. */
    double pPrechargeStandby() const { return idd2n * vdd; }
    double pPowerDown() const { return idd2p * vdd; }
    double pActiveStandby() const { return idd3n * vdd; }
    double refreshEnergy() const;
};

/** @return Micron-style 512Mb DDR2-667 x4 part. */
DeviceParams ddr2_667_x4();

/** @return Micron-style 512Mb DDR2-667 x8 part. */
DeviceParams ddr2_667_x8();

/**
 * A full memory-system configuration (one row of Table 7.1).
 */
struct MemoryConfig
{
    std::string name;
    DeviceParams device;
    int channels = 2;
    int ranksPerChannel = 1;
    int devicesPerRank = 36;
    int dataDevicesPerRank = 32;

    /**
     * Devices touched by one 64B access under this scheme (36 for the
     * commercial baseline, 18 for an ARCC relaxed access).
     */
    int devicesPerAccess = 36;

    /**
     * The paper's Section 7.1 assumption: 4KB pages per logical row.
     * Drives the address map and the fault-to-page geometry.
     */
    int pagesPerRow = 2;

    /** Rank data-bus width in bits (data devices only). */
    int dataBusBits() const;
    /** Total devices in the system. */
    int totalDevices() const
    {
        return channels * ranksPerChannel * devicesPerRank;
    }
    /** Data capacity in bytes (check devices excluded). */
    std::uint64_t dataBytes() const;
    /** 4KB data pages in the system. */
    std::uint64_t pages() const;
};

/** Table 7.1 "Baseline": 2 channels x 1 rank x 36 DDR2 x4 devices. */
MemoryConfig baselineConfig();

/** Table 7.1 "ARCC": 2 channels x 2 ranks x 18 DDR2 x8 devices. */
MemoryConfig arccConfig();

/** LOT-ECC nine-device configuration (2 channels x 4 ranks x 9 x8). */
MemoryConfig lotEcc9Config();

/**
 * Re-provision a configuration with a different channel count,
 * scaling the capacity with it (per-channel geometry is unchanged).
 * The paper's machine has 2 channels; the wider variants exercise the
 * system simulator and ChannelShardPlan past 2 channels.
 * fatal() when the paper's 2-pages-per-row row (Section 7.1) cannot
 * split evenly over the requested channels.
 */
MemoryConfig withChannels(MemoryConfig base, int channels);

/** arccConfig() widened to 4 channels (4 ChannelShardPlan groups
 *  unpairable, 2 pairable). */
MemoryConfig arccConfig4();

/** arccConfig() widened to 8 channels (8 ChannelShardPlan groups
 *  unpairable, 4 pairable). */
MemoryConfig arccConfig8();

/** A preset's builder, e.g. &arccConfig. */
using MemoryConfigPreset = MemoryConfig (*)();

/**
 * The preset a CLI flag or service request names: one of
 * kMemoryConfigNames.  Returns the builder, so a caller can check a
 * name without building the configuration; nullptr for any other
 * name.
 */
MemoryConfigPreset memoryConfigPreset(std::string_view name);

/** The names memoryConfigPreset accepts, for usage and errors. */
inline constexpr const char *kMemoryConfigNames =
    "baseline|arcc|arcc4|arcc8";

} // namespace arcc

#endif // ARCC_DRAM_DRAM_PARAMS_HH
