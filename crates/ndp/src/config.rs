//! NDP-DIMM configuration (Table II of the paper).

use serde::{Deserialize, Serialize};

use hermes_model::{positive_finite, GIB};

/// DDR4 timing parameters in memory-clock cycles (Table II, "DIMM Timing").
///
/// The memory clock of DDR4-3200 runs at 1600 MHz (3200 MT/s double data
/// rate); all parameters below are expressed in those cycles.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct DramTiming {
    /// Row cycle time.
    pub t_rc: u32,
    /// RAS-to-CAS delay.
    pub t_rcd: u32,
    /// CAS latency.
    pub t_cl: u32,
    /// Row precharge time.
    pub t_rp: u32,
    /// Burst length (cycles of data transfer per column access).
    pub t_bl: u32,
    /// Column-to-column delay, different bank group.
    pub t_ccd_s: u32,
    /// Column-to-column delay, same bank group.
    pub t_ccd_l: u32,
    /// Row-to-row activation delay, different bank group.
    pub t_rrd_s: u32,
    /// Row-to-row activation delay, same bank group.
    pub t_rrd_l: u32,
    /// Four-activation window.
    pub t_faw: u32,
}

impl DramTiming {
    /// DDR4-3200 timing used throughout the paper (Table II).
    pub fn ddr4_3200() -> Self {
        DramTiming {
            t_rc: 76,
            t_rcd: 24,
            t_cl: 24,
            t_rp: 24,
            t_bl: 4,
            t_ccd_s: 4,
            t_ccd_l: 8,
            t_rrd_s: 4,
            t_rrd_l: 6,
            t_faw: 26,
        }
    }
}

impl Default for DramTiming {
    fn default() -> Self {
        Self::ddr4_3200()
    }
}

/// Full configuration of one NDP-DIMM (Table II).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DimmConfig {
    /// DRAM capacity per DIMM in bytes (32 GB in the paper).
    pub capacity_bytes: u64,
    /// Memory-clock frequency in Hz (1600 MHz for DDR4-3200).
    pub memory_clock_hz: f64,
    /// Data-bus width in bytes (64-bit DIMM channel = 8 bytes).
    pub bus_width_bytes: u32,
    /// Ranks per DIMM.
    pub ranks: u32,
    /// Bank groups per rank.
    pub bank_groups: u32,
    /// Banks per bank group.
    pub banks_per_group: u32,
    /// DRAM row-buffer (page) size per bank in bytes.
    pub row_bytes: u32,
    /// Effective access parallelism the center-buffer NDP core achieves over
    /// the single DIMM data path (> 1.0 reflects overlapping rank switches
    /// with transfers; the NDP core still funnels data through the buffer
    /// chip at roughly channel rate, which is what makes the DIMMs the
    /// "computation-limited" side of the system in the paper).
    pub ndp_access_parallelism: f64,
    /// Timing parameters.
    pub timing: DramTiming,
    /// Number of FP16 multipliers in the GEMV unit (paper default: 256).
    pub gemv_multipliers: u32,
    /// NDP-core clock frequency in Hz (1 GHz).
    pub ndp_clock_hz: f64,
    /// Center-buffer size in bytes (256 KB).
    pub buffer_bytes: u64,
    /// NDP core area overhead in mm² (1.23 mm² in TSMC 7 nm).
    pub ndp_core_area_mm2: f64,
    /// DIMM-link bandwidth in bytes/s (25 GB/s per link).
    pub link_bandwidth: f64,
    /// DIMM-link energy per bit in pJ.
    pub link_energy_pj_per_bit: f64,
    /// Number of lanes per DIMM-link.
    pub link_lanes: u32,
}

impl DimmConfig {
    /// The configuration of Table II: DDR4-3200, 32 GB/DIMM, 4 ranks,
    /// 2 bank groups/rank, 4 banks/group, 256-multiplier GEMV unit @ 1 GHz,
    /// 256 KB buffer, 25 GB/s DIMM-link.
    pub fn ddr4_3200() -> Self {
        DimmConfig {
            capacity_bytes: 32 * GIB,
            memory_clock_hz: 1.6e9,
            bus_width_bytes: 8,
            ranks: 4,
            bank_groups: 2,
            banks_per_group: 4,
            row_bytes: 8192,
            ndp_access_parallelism: 1.2,
            timing: DramTiming::ddr4_3200(),
            gemv_multipliers: 256,
            ndp_clock_hz: 1.0e9,
            buffer_bytes: 256 * 1024,
            ndp_core_area_mm2: 1.23,
            link_bandwidth: 25.0e9,
            link_energy_pj_per_bit: 1.17,
            link_lanes: 8,
        }
    }

    /// Same DIMM with a different number of GEMV multipliers (the design
    /// space swept in Fig. 16).
    pub fn with_multipliers(mut self, multipliers: u32) -> Self {
        self.gemv_multipliers = multipliers;
        self
    }

    /// Peak external (channel) bandwidth of the DIMM in bytes/s.
    pub fn channel_bandwidth(&self) -> f64 {
        // Double data rate: two transfers per memory-clock cycle.
        2.0 * self.memory_clock_hz * self.bus_width_bytes as f64
    }

    /// Total banks per DIMM.
    pub fn total_banks(&self) -> u32 {
        self.ranks * self.bank_groups * self.banks_per_group
    }

    /// Validate physical plausibility of the configuration.
    ///
    /// # Errors
    ///
    /// Returns a message describing the first invalid field.
    pub fn validate(&self) -> Result<(), String> {
        if self.capacity_bytes == 0 {
            return Err("capacity_bytes must be positive".into());
        }
        positive_finite("dimm memory_clock_hz", self.memory_clock_hz)?;
        positive_finite("dimm ndp_clock_hz", self.ndp_clock_hz)?;
        if self.gemv_multipliers == 0 {
            return Err("gemv_multipliers must be positive".into());
        }
        if self.ranks == 0 || self.bank_groups == 0 || self.banks_per_group == 0 {
            return Err("DRAM organisation fields must be positive".into());
        }
        positive_finite("dimm ndp_access_parallelism", self.ndp_access_parallelism)?;
        positive_finite("dimm link_bandwidth", self.link_bandwidth)
    }
}

impl Default for DimmConfig {
    fn default() -> Self {
        Self::ddr4_3200()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_ii_defaults() {
        let cfg = DimmConfig::ddr4_3200();
        cfg.validate().unwrap();
        assert_eq!(cfg.capacity_bytes, 32 * GIB);
        assert_eq!(cfg.gemv_multipliers, 256);
        assert_eq!(cfg.timing.t_rc, 76);
        assert_eq!(cfg.timing.t_bl, 4);
        assert_eq!(cfg.total_banks(), 32);
        assert_eq!(cfg.link_lanes, 8);
    }

    #[test]
    fn channel_bandwidth_is_25_6_gbps() {
        let cfg = DimmConfig::ddr4_3200();
        let bw = cfg.channel_bandwidth();
        assert!((bw - 25.6e9).abs() < 1e6, "got {bw}");
    }

    #[test]
    fn with_multipliers_changes_only_gemv() {
        let cfg = DimmConfig::ddr4_3200().with_multipliers(64);
        assert_eq!(cfg.gemv_multipliers, 64);
        assert_eq!(cfg.capacity_bytes, 32 * GIB);
    }

    #[test]
    fn invalid_configs_rejected() {
        let mut cfg = DimmConfig::ddr4_3200();
        cfg.gemv_multipliers = 0;
        assert!(cfg.validate().is_err());
        let mut cfg = DimmConfig::ddr4_3200();
        cfg.capacity_bytes = 0;
        assert!(cfg.validate().is_err());
        let mut cfg = DimmConfig::ddr4_3200();
        cfg.link_bandwidth = 0.0;
        assert!(cfg.validate().is_err());
        let mut cfg = DimmConfig::ddr4_3200();
        cfg.ndp_clock_hz = f64::NAN;
        assert!(cfg.validate().is_err());
    }
}
