//! Simulated digests recorded at the default seed.
//!
//! A digest folds a system's simulated clock and `PerfCounters` at the
//! end of its timed phase. Host-side changes must leave every one of
//! them unchanged; a change to the model moves them and must record the
//! new values here.

use crate::meter::Sys;

/// Seed used when `--seed` is not given, and the one the digests below
/// were recorded at.
pub const DEFAULT_SEED: u64 = 1;

const RECORDED: &[(&str, &str, u64)] = &[
    ("tenant_fleet", "baseline", 0xc25c_2db0_2d29_5d16),
    ("tenant_fleet", "fom-pt", 0x88a3_ab96_d139_4705),
    ("tenant_fleet", "fom-sharedpt", 0x88a3_ab96_d139_4705),
    ("tenant_fleet", "fom-ranges", 0xa621_29e6_e845_d0de),
    ("resident_access", "baseline", 0x3231_ffa1_6f26_cd86),
    ("resident_access", "fom-pt", 0x67e2_b77d_5756_1e07),
    ("resident_access", "fom-ranges", 0x443c_91d0_64dd_a65d),
    ("region_churn", "baseline", 0xb83c_b7f6_3a0e_c113),
    ("region_churn", "fom-pt", 0xe01b_029d_937f_8c0e),
    ("region_churn", "fom-ranges", 0x2edf_36e3_50dc_3066),
    ("layer_ops", "layers", 0x999f_979c_0529_277d),
];

/// The digest recorded for `workload` on `sys`, if any.
pub fn recorded(workload: &str, sys: Sys) -> Option<u64> {
    RECORDED
        .iter()
        .find(|&&(w, s, _)| w == workload && s == sys.name())
        .map(|&(_, _, d)| d)
}
