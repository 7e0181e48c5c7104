/**
 * @file
 * DDR2 parameter sets and Table 7.1 configurations.
 */

#include "dram/dram_params.hh"

#include "common/logging.hh"
#include "common/units.hh"

namespace arcc
{

const char *
toString(DeviceWidth w)
{
    switch (w) {
      case DeviceWidth::X4:  return "x4";
      case DeviceWidth::X8:  return "x8";
      case DeviceWidth::X16: return "x16";
    }
    return "?";
}

double
DeviceParams::actPreEnergy() const
{
    // Micron power-calc: the ACT/PRE pair costs IDD0 over tRC minus the
    // standby current that would have flowed anyway (IDD3N while the
    // row is open, IDD2N while precharged).
    double t_rc_ns = tRC * tCK;
    double t_ras_ns = tRAS * tCK;
    double e = idd0 * vdd * t_rc_ns -
               (idd3n * vdd * t_ras_ns +
                idd2n * vdd * (t_rc_ns - t_ras_ns));
    return e * 1e-3; // mA*V*ns = pJ*1e... (mA * V = mW; mW * ns = pJ)
}

double
DeviceParams::readBurstEnergy() const
{
    double t_burst_ns = burstCycles() * tCK;
    double e = (idd4r - idd3n) * vdd * t_burst_ns * 1e-3; // nJ
    return e + ioEnergyPerBeat * burstLength;
}

double
DeviceParams::writeBurstEnergy() const
{
    double t_burst_ns = burstCycles() * tCK;
    double e = (idd4w - idd3n) * vdd * t_burst_ns * 1e-3; // nJ
    return e + ioEnergyPerBeat * burstLength;
}

double
DeviceParams::refreshEnergy() const
{
    double e = (idd5 - idd2n) * vdd * tRFC * 1e-3; // nJ per REF command
    return e;
}

DeviceParams
ddr2_667_x4()
{
    DeviceParams p;
    p.name = "MT47H128M4-3 (512Mb DDR2-667 x4)";
    p.width = DeviceWidth::X4;
    p.densityMbit = 512;
    // The paper's fault model (Table 7.4) assumes 8 banks per device;
    // 8 banks x 8192 rows x 1 KB rows = 512 Mb.
    p.banks = 8;
    p.rowsPerBank = 8192;
    p.rowBytes = 1024; // 2K columns x 4 bits
    // DDR2-667 grade timing (tCK = 3 ns, 5-5-5).
    p.tCK = 3.0;
    p.clCycles = 5;
    p.tRCD = 5;
    p.tRP = 5;
    p.tRAS = 15;
    p.tRC = 20;
    p.tRRD = 3;
    p.tWR = 5;
    p.tWTR = 3;
    p.burstLength = 4;
    // Datasheet-approximate currents.
    p.vdd = 1.8;
    p.idd0 = 90.0;
    p.idd2p = 7.0;
    p.idd2n = 24.0;
    p.idd3n = 30.0;
    p.idd3p = 12.0;
    p.idd4r = 150.0;
    p.idd4w = 155.0;
    p.idd5 = 200.0;
    p.ioEnergyPerBeat = 0.10;
    return p;
}

DeviceParams
ddr2_667_x8()
{
    DeviceParams p = ddr2_667_x4();
    p.name = "MT47H64M8-3 (512Mb DDR2-667 x8)";
    p.width = DeviceWidth::X8;
    p.banks = 8;
    p.rowsPerBank = 8192;
    p.rowBytes = 1024; // 1K columns x 8 bits
    // A x8 part drives twice the DQ pins: slightly higher burst and IO
    // currents, same core timing.
    p.idd4r = 155.0;
    p.idd4w = 160.0;
    p.ioEnergyPerBeat = 0.14;
    return p;
}

int
MemoryConfig::dataBusBits() const
{
    int bits_per_dev = 0;
    switch (device.width) {
      case DeviceWidth::X4:  bits_per_dev = 4;  break;
      case DeviceWidth::X8:  bits_per_dev = 8;  break;
      case DeviceWidth::X16: bits_per_dev = 16; break;
    }
    return dataDevicesPerRank * bits_per_dev;
}

std::uint64_t
MemoryConfig::dataBytes() const
{
    std::uint64_t per_dev =
        static_cast<std::uint64_t>(device.densityMbit) * kMiB / 8;
    return per_dev * static_cast<std::uint64_t>(dataDevicesPerRank) *
           ranksPerChannel * channels;
}

std::uint64_t
MemoryConfig::pages() const
{
    return dataBytes() / kPageBytes;
}

MemoryConfig
baselineConfig()
{
    MemoryConfig c;
    c.name = "Baseline (commercial SCCDCD)";
    c.device = ddr2_667_x4();
    c.channels = 2;
    c.ranksPerChannel = 1;
    c.devicesPerRank = 36;
    c.dataDevicesPerRank = 32;
    c.devicesPerAccess = 36;
    return c;
}

MemoryConfig
arccConfig()
{
    MemoryConfig c;
    c.name = "ARCC (relaxed chipkill)";
    c.device = ddr2_667_x8();
    c.channels = 2;
    c.ranksPerChannel = 2;
    c.devicesPerRank = 18;
    c.dataDevicesPerRank = 16;
    c.devicesPerAccess = 18;
    return c;
}

MemoryConfig
lotEcc9Config()
{
    MemoryConfig c;
    c.name = "LOT-ECC nine-device";
    c.device = ddr2_667_x8();
    c.channels = 2;
    c.ranksPerChannel = 4;
    c.devicesPerRank = 9;
    c.dataDevicesPerRank = 8;
    c.devicesPerAccess = 9;
    return c;
}

MemoryConfig
withChannels(MemoryConfig base, int channels)
{
    if (channels < 1)
        fatal("withChannels: need >= 1 channel, got %d", channels);
    std::uint64_t row_lines =
        static_cast<std::uint64_t>(base.pagesPerRow) * kLinesPerPage;
    if (row_lines % static_cast<std::uint64_t>(channels) != 0)
        fatal("withChannels: %d pages/row (%llu lines) does not "
              "split over %d channels",
              base.pagesPerRow,
              static_cast<unsigned long long>(row_lines), channels);
    base.channels = channels;
    base.name += " @" + std::to_string(channels) + "ch";
    return base;
}

MemoryConfig
arccConfig4()
{
    return withChannels(arccConfig(), 4);
}

MemoryConfig
arccConfig8()
{
    return withChannels(arccConfig(), 8);
}

MemoryConfigPreset
memoryConfigPreset(std::string_view name)
{
    if (name == "baseline")
        return baselineConfig;
    if (name == "arcc")
        return arccConfig;
    if (name == "arcc4")
        return arccConfig4;
    if (name == "arcc8")
        return arccConfig8;
    return nullptr;
}

} // namespace arcc
