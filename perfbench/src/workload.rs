//! The four benchmark workloads: the 8-site short-dwell chain at Default
//! scale, built from the workload seed, replayed under four driver
//! configurations that stress different layers.

use rfid_core::InferenceConfig;
use rfid_dist::{DistributedConfig, MigrationStrategy, WireFormat};
use rfid_query::{Alert, ExposureQuery};
use rfid_sim::{
    ChainConfig, ChainTrace, ChaosPlan, FaultPlan, SupplyChainSimulator, TemperatureModel,
    WarehouseConfig,
};
use rfid_types::{LocationId, TagId};
use std::collections::BTreeMap;

/// Sites of the reference chain.
pub const SITES: u32 = 8;
/// Horizon of the reference chain, seconds (Default scale).
pub const HORIZON_SECS: u32 = 2400;
/// Checkpoint period of the query workloads, seconds.
pub const CHECKPOINT_SECS: u32 = 300;
/// Event stride of the ground-truth alert computation (the driver default).
pub const EVENT_STRIDE_SECS: u32 = 10;

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// CollapsedWeights on `nproc` workers, no queries, no checkpoints.
    Collapsed,
    /// CriticalRegionReadings on one worker with the exposure queries and
    /// checkpoints.
    CrQueries,
    /// One central engine over the union location space.
    Centralized,
    /// `CrQueries` under a full chaos soak plan and the reliable transport.
    Chaos,
}

impl Workload {
    /// Every workload, in the order the doc lists them.
    pub const ALL: [Workload; 4] = [
        Workload::Collapsed,
        Workload::CrQueries,
        Workload::Centralized,
        Workload::Chaos,
    ];

    /// The name the command line and `BENCHMARK.json` use.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Collapsed => "collapsed",
            Workload::CrQueries => "cr_queries",
            Workload::Centralized => "centralized",
            Workload::Chaos => "chaos",
        }
    }

    /// Parse a workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Whether the workload runs the exposure queries.
    pub fn has_queries(self) -> bool {
        matches!(self, Workload::CrQueries | Workload::Chaos)
    }
}

/// The 8-site short-dwell chain of `rfid_sim::presets::short_dwell_chain`
/// at Default scale (2400 s, 20 items per case, 3 cases per pallet), with
/// the warehouse seed taken from the command line instead of the preset's
/// fixed 97.
pub fn chain_config(seed: u64) -> ChainConfig {
    let mut warehouse = WarehouseConfig::default()
        .with_length(HORIZON_SECS)
        .with_items_per_case(20)
        .with_cases_per_pallet(3)
        .with_seed(seed);
    warehouse.shelf_dwell_min = 60;
    warehouse.shelf_dwell_max = 180;
    warehouse.pallet_injection_interval = 120;
    ChainConfig {
        warehouse,
        num_warehouses: SITES,
        transit_secs: 60,
        fanout: 2,
    }
}

/// Generate the workload chain for `seed`.
pub fn generate_chain(seed: u64) -> ChainTrace {
    SupplyChainSimulator::new(chain_config(seed)).generate()
}

/// The chaos soak plan of the `chaos` workload, from the workload seed.
pub fn chaos_plan(seed: u64) -> FaultPlan {
    ChaosPlan::soak(seed, SITES as u16, HORIZON_SECS).into_plan()
}

/// The Section 5.4 exposure queries of the `table_query` experiment.
pub fn queries() -> Vec<ExposureQuery> {
    vec![
        ExposureQuery {
            duration_secs: 900,
            ..ExposureQuery::q1([])
        },
        ExposureQuery {
            duration_secs: 1200,
            temp_threshold: 10.0,
            ..ExposureQuery::q2()
        },
    ]
}

/// Freezer shelves: the first shelf location of every warehouse.
pub fn temperature() -> TemperatureModel {
    TemperatureModel::new([LocationId(2)])
}

/// Alternating product classes, as in the `table_query` experiment.
pub fn product_properties(chain: &ChainTrace) -> BTreeMap<TagId, String> {
    chain
        .objects()
        .into_iter()
        .map(|object| {
            let class = if object.serial() % 2 == 0 {
                "temperature-sensitive"
            } else {
                "frozen-food"
            };
            (object, class.to_string())
        })
        .collect()
}

/// Ground-truth alerts of the query workloads (empty for the others).
pub fn truth_alerts(workload: Workload, chain: &ChainTrace) -> Vec<Alert> {
    if !workload.has_queries() {
        return Vec::new();
    }
    rfid_bench::distributed::ground_truth_alerts(
        chain,
        &queries(),
        &temperature(),
        &product_properties(chain),
        EVENT_STRIDE_SECS,
    )
}

/// The driver configuration of `workload` on `workers` threads, with the
/// chaos plan attached when `faults` is given.
pub fn driver_config(
    workload: Workload,
    chain: &ChainTrace,
    workers: usize,
    faults: Option<&FaultPlan>,
) -> DistributedConfig {
    let strategy = match workload {
        Workload::Collapsed => MigrationStrategy::CollapsedWeights,
        Workload::CrQueries | Workload::Chaos => MigrationStrategy::CriticalRegionReadings,
        Workload::Centralized => MigrationStrategy::Centralized,
    };
    let mut config = DistributedConfig {
        strategy,
        inference: InferenceConfig::default(),
        wire_format: WireFormat::Binary,
        num_workers: workers,
        ..Default::default()
    };
    if workload.has_queries() {
        config.queries = queries();
        config.product_properties = product_properties(chain);
        config.temperature = Some(temperature());
        config = config.with_checkpoints(CHECKPOINT_SECS);
    }
    if let Some(plan) = faults {
        config = config.with_faults(plan.clone());
    }
    config
}

/// Worker threads of `workload`'s timed passes: `nproc` for `collapsed`,
/// one elsewhere.
pub fn workers(workload: Workload, nproc: usize) -> usize {
    match workload {
        Workload::Collapsed => nproc.max(1),
        _ => 1,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rfid_sim::presets;

    #[test]
    fn seed_97_chain_is_the_reference_preset() {
        let chain = generate_chain(presets::REFERENCE_SEED);
        assert_eq!(chain.total_readings(), 286_534);
        assert_eq!(chain.transfers.len(), 2_394);
        assert_eq!(chain.objects().len(), 1_200);
        let preset = presets::short_dwell_chain(HORIZON_SECS, SITES, 20, 3);
        assert_eq!(chain.transfers, preset.transfers);
        assert_eq!(chain.total_readings(), preset.total_readings());
    }

    #[test]
    fn seeds_change_the_inputs() {
        let a = generate_chain(1);
        let b = generate_chain(2);
        assert_ne!(a.transfers, b.transfers);
        assert_ne!(chaos_plan(1), chaos_plan(2));
        assert_eq!(chaos_plan(5), chaos_plan(5));
    }

    #[test]
    fn workload_names_round_trip() {
        for workload in Workload::ALL {
            assert_eq!(Workload::parse(workload.name()), Some(workload));
        }
        assert_eq!(Workload::parse("nope"), None);
    }
}
