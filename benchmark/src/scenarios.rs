//! The four workloads and the scenario documents they run, all derived
//! from the benchmark seed: the same seed always yields the same documents.

use imufit::core::{CampaignConfig, ExperimentSpec};
use imufit::faults::{AttackKind, FaultKind};
use imufit::math::rng::Pcg;
use imufit::scenario::{doc, ScenarioSpec};

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The quick paper campaign in one `reproduce` process.
    CampaignQuick,
    /// The beyond-IMU attack catalog with innovation monitors armed.
    AttackSweep,
    /// The quick campaign as a traced two-process `fleet run`.
    FleetTraced,
    /// Cold campaigns and cache hits against one `serve` process.
    ServeMix,
}

impl Workload {
    /// Every workload, in the order `run` measures them.
    pub const ALL: [Workload; 4] = [
        Workload::CampaignQuick,
        Workload::AttackSweep,
        Workload::FleetTraced,
        Workload::ServeMix,
    ];

    /// The name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::CampaignQuick => "campaign-quick",
            Workload::AttackSweep => "attack-sweep",
            Workload::FleetTraced => "fleet-traced",
            Workload::ServeMix => "serve-mix",
        }
    }

    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Worker threads, worker processes and client threads per workload: two,
/// or fewer on a smaller host.
pub fn parallelism() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .min(2)
}

/// The campaign seed of round `k` of a run: the benchmark seed itself,
/// then seeds derived from it, so a run's medians span several inputs and
/// stay a function of the benchmark seed.
pub fn round_seed(seed: u64, k: usize) -> u64 {
    match k {
        0 => seed,
        _ => imufit::math::rng::derive_seed(seed, &[k as u64]),
    }
}

/// An independent random stream for one use of the seed.
fn stream(seed: u64, tag: u64) -> Pcg {
    Pcg::seed_from(seed).derive(&[tag])
}

/// A uniform index below `n`.
fn below(rng: &mut Pcg, n: usize) -> usize {
    ((rng.uniform() * n as f64) as usize).min(n - 1)
}

/// A seed-chosen permutation of `items`.
fn shuffled<T>(mut items: Vec<T>, rng: &mut Pcg) -> Vec<T> {
    for i in (1..items.len()).rev() {
        items.swap(i, below(rng, i + 1));
    }
    items
}

/// The two fault kinds the `--smoke` campaigns keep, in catalog order.
fn smoke_kinds(seed: u64) -> Vec<FaultKind> {
    let mut kinds = shuffled(FaultKind::ALL.to_vec(), &mut stream(seed, 1));
    kinds.truncate(2);
    kinds.sort_by_key(|k| k.id());
    kinds
}

/// `campaign-quick`, and `fleet-traced` too: 3 missions x 21 faults x
/// {2 s, 30 s} + 3 gold runs (129 runs); `--smoke` keeps mission 0, 2 s
/// and two kinds (7 runs).
pub fn campaign_quick(seed: u64, smoke: bool) -> ScenarioSpec {
    let mut spec = ScenarioSpec::preset("quick").expect("quick is a preset");
    spec.campaign.seed = seed;
    spec.campaign.threads = parallelism();
    spec.fleet.workers = parallelism();
    if smoke {
        spec.campaign.missions = 1;
        spec.campaign.durations = vec![2.0];
        spec.faults.kinds = smoke_kinds(seed);
    }
    spec
}

/// `attack-sweep`: 3 gold runs + 4 attacks x {10 s, 30 s} x 3 missions
/// (27 runs); `--smoke` keeps mission 0, 10 s and two attacks (3 runs).
pub fn attack_sweep(seed: u64, smoke: bool) -> ScenarioSpec {
    let mut spec = ScenarioSpec::preset("attack-sweep").expect("attack-sweep is a preset");
    spec.campaign.seed = seed;
    spec.campaign.threads = parallelism();
    if smoke {
        spec.campaign.missions = 1;
        spec.attacks.durations = vec![10.0];
        let mut kinds = shuffled(AttackKind::all().to_vec(), &mut stream(seed, 2));
        kinds.truncate(2);
        kinds.sort_by_key(|k| k.id());
        spec.attacks.kinds = kinds;
    }
    spec
}

/// The campaign seed of every cold campaign: the golden rows' seed. The
/// cold stream flies the same runs at every benchmark seed, and each of its
/// rows is checked against the golden file.
pub const COLD_SEED: u64 = 2024;

/// Cold-stream cycles of distinct campaigns: pairing each kind with the
/// kind 1, 2 or 3 places on covers all 21 pairs once.
pub const COLD_CYCLES: usize = 3;

/// How many cycles of distinct cold campaigns there are.
pub fn cold_cycles(smoke: bool) -> usize {
    if smoke {
        1
    } else {
        COLD_CYCLES
    }
}

/// The `serve-mix` cold campaigns of cycle `cycle` (below
/// [`cold_cycles`]): mission 0, 2 s, seed [`COLD_SEED`], one per pair of
/// kinds `cycle + 1` places apart on a seed-shuffled ring of the seven
/// fault kinds (7 campaigns of 7 runs). Seven is prime, so each kind is in
/// exactly two campaigns of a cycle and no pair comes back in another: every
/// cycle flies each fault twice, whatever the seed draws. `--smoke` sends
/// the two smoke kinds as two one-kind campaigns.
///
/// A 2 s fault either crashes the vehicle soon after it starts or the
/// mission is flown to the end, so one campaign's work differs by up to 2x
/// with its kinds and the seed; a cycle's does not.
pub fn serve_cold(seed: u64, cycle: usize, smoke: bool) -> Vec<ScenarioSpec> {
    let groups: Vec<Vec<FaultKind>> = if smoke {
        smoke_kinds(seed).into_iter().map(|k| vec![k]).collect()
    } else {
        let ring = shuffled(FaultKind::ALL.to_vec(), &mut stream(seed, 3));
        let step = cycle % COLD_CYCLES + 1;
        (0..ring.len())
            .map(|i| {
                let mut pair = vec![ring[i], ring[(i + step) % ring.len()]];
                pair.sort_by_key(|k| k.id());
                pair
            })
            .collect()
    };
    groups
        .into_iter()
        .map(|kinds| {
            let mut spec = ScenarioSpec::preset("quick").expect("quick is a preset");
            spec.name = "serve-mix".to_string();
            spec.campaign.seed = COLD_SEED;
            spec.campaign.missions = 1;
            spec.campaign.durations = vec![2.0];
            spec.faults.kinds = kinds;
            spec
        })
        .collect()
}

/// An equivalent copy of a scenario document with every section and key in
/// reverse order: a different request body that must hit the same cache
/// entry, because the service fingerprints the canonical re-dump.
pub fn reordered(toml: &str) -> String {
    let reverse = |value: doc::Value| match value {
        doc::Value::Table(mut entries) => {
            entries.reverse();
            doc::Value::Table(entries)
        }
        other => other,
    };
    let root = doc::parse_toml(toml).expect("benchmark scenarios are valid TOML");
    let doc::Value::Table(entries) = root else {
        unreachable!("a TOML document is a table");
    };
    let entries = entries
        .into_iter()
        .rev()
        .map(|(key, value)| (key, reverse(value)))
        .collect();
    doc::to_toml(&doc::Value::Table(entries))
}

/// The runs a traced workload replays in-process, and the scenario they
/// come from.
pub struct Sample {
    /// The campaign the sampled runs belong to (threads = 1).
    pub config: CampaignConfig,
    /// The sampled runs.
    pub specs: Vec<ExperimentSpec>,
    /// The scenario document the sample's campaign realizes.
    pub scenario: ScenarioSpec,
}

/// The traced sample of a workload: mission 0 at 2 s for `campaign-quick`
/// (22 runs), mission 0 for `attack-sweep` (9 runs), the first 5 runs of a
/// one-mission two-kind campaign for `fleet-traced`, and the first cold
/// campaign for `serve-mix` (7 runs); at most 2 runs at `--smoke`.
pub fn trace_sample(workload: Workload, seed: u64, smoke: bool) -> Sample {
    let mut scenario = match workload {
        Workload::CampaignQuick => campaign_quick(seed, smoke),
        Workload::AttackSweep => attack_sweep(seed, smoke),
        Workload::FleetTraced => {
            let mut spec = campaign_quick(seed, smoke);
            spec.faults.kinds = serve_cold(seed, 0, false)[0].faults.kinds.clone();
            spec
        }
        Workload::ServeMix => serve_cold(seed, 0, smoke).remove(0),
    };
    scenario.campaign.missions = 1;
    if workload != Workload::AttackSweep {
        scenario.campaign.durations = vec![2.0];
    }
    let mut config = CampaignConfig::from_scenario(&scenario);
    config.threads = 1;
    let mut specs = config.matrix();
    if workload == Workload::FleetTraced {
        specs.truncate(5);
    }
    if smoke {
        specs.truncate(2);
    }
    Sample {
        config,
        specs,
        scenario,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use imufit::fleet::CampaignFingerprint;

    fn fingerprint(toml: &str) -> CampaignFingerprint {
        let spec = ScenarioSpec::from_toml(toml).expect("valid scenario");
        let units = CampaignConfig::from_scenario(&spec).matrix().len();
        CampaignFingerprint::of(&spec, units)
    }

    #[test]
    fn documents_are_a_function_of_the_seed() {
        for seed in [7, 2024] {
            for smoke in [false, true] {
                assert_eq!(
                    campaign_quick(seed, smoke).to_toml(),
                    campaign_quick(seed, smoke).to_toml()
                );
                assert_eq!(
                    attack_sweep(seed, smoke).to_toml(),
                    attack_sweep(seed, smoke).to_toml()
                );
                let a: Vec<String> = serve_cold(seed, 1, smoke)
                    .iter()
                    .map(|s| s.to_toml())
                    .collect();
                let b: Vec<String> = serve_cold(seed, 1, smoke)
                    .iter()
                    .map(|s| s.to_toml())
                    .collect();
                assert_eq!(a, b);
            }
        }
        assert_ne!(serve_cold(7, 0, false), serve_cold(2024, 0, false));
    }

    #[test]
    fn workloads_have_the_stated_sizes() {
        let runs = |spec: &ScenarioSpec| CampaignConfig::from_scenario(spec).matrix().len();
        assert_eq!(runs(&campaign_quick(1, false)), 129);
        assert_eq!(runs(&attack_sweep(1, false)), 27);
        assert_eq!(runs(&campaign_quick(1, true)), 7);
        assert_eq!(runs(&attack_sweep(1, true)), 3);
        for cycle in 0..COLD_CYCLES {
            let cold = serve_cold(1, cycle, false);
            assert_eq!(cold.len(), 7);
            assert!(cold.iter().all(|s| runs(s) == 7));
            for kind in FaultKind::ALL {
                let n = cold
                    .iter()
                    .filter(|s| s.faults.kinds.contains(&kind))
                    .count();
                assert_eq!(n, 2, "{kind:?} is not in exactly two cold campaigns");
            }
        }
        for (workload, n) in [
            (Workload::CampaignQuick, 22),
            (Workload::AttackSweep, 9),
            (Workload::FleetTraced, 5),
            (Workload::ServeMix, 7),
        ] {
            assert_eq!(trace_sample(workload, 1, false).specs.len(), n);
        }
    }

    #[test]
    fn cold_campaigns_are_distinct_and_reordered_hits_are_equivalent() {
        for seed in [7, 2024] {
            let cold: Vec<ScenarioSpec> = (0..COLD_CYCLES)
                .flat_map(|cycle| serve_cold(seed, cycle, false))
                .collect();
            let mut prints: Vec<u64> = cold
                .iter()
                .map(|s| fingerprint(&s.to_toml()).spec_hash)
                .collect();
            prints.sort_unstable();
            prints.dedup();
            assert_eq!(prints.len(), 21, "cold fingerprints collide");
            for spec in &cold {
                let original = spec.to_toml();
                let hit = reordered(&original);
                assert_ne!(hit, original, "the hit body must differ");
                assert_eq!(fingerprint(&hit), fingerprint(&original));
            }
        }
    }
}
