//! The benchmark's workloads: each turns a seed into the fixed list of
//! selection inputs ([`Case`]s) that one sweep of the workload runs.
//!
//! The program under test only ever sees the generated platforms, schedules
//! and `k`; the seed stays here.

use crate::clock::Stopwatch;
use c4u_crowd_sim::{generate, CampaignSchedule, DatasetConfig, HistoricalProfile, Platform};
use c4u_selection::SelectionError;

/// One of the benchmark's named workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// S-4 scaled to ~3x10^4 workers, full profiles, closed world, 1 shard.
    PoolLarge,
    /// ~2x10^4 gappy profiles, ~10^3 joins and leaves per round, 2 shards.
    CampaignOpen,
    /// RW-1, RW-2 and S-1..S-4 as shipped, over several seeds, 1 shard.
    PaperSuite,
}

impl Workload {
    /// Every workload, in benchmark order.
    pub const ALL: [Workload; 3] = [
        Workload::PoolLarge,
        Workload::CampaignOpen,
        Workload::PaperSuite,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::PoolLarge => "pool_large",
            Workload::CampaignOpen => "campaign_open",
            Workload::PaperSuite => "paper_suite",
        }
    }

    /// Whether each selection run is a timed sample of its own. Runs of the
    /// two large workloads take seconds, and the host's speed changes from
    /// one to the next. `paper_suite` runs take milliseconds and differ by
    /// dataset, so there a sample is a whole sweep.
    pub fn samples_each_run(self) -> bool {
        self != Workload::PaperSuite
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Input size: the benchmark's own, or a small one for the package's tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The sizes the benchmark measures.
    Full,
    /// Pools of a few hundred workers, for tests.
    Smoke,
}

/// One selection input: a fresh platform (cloned per run), its event
/// schedule, `k`, and the shard count the selector fans out over.
#[derive(Debug, Clone)]
pub struct Case {
    /// Dataset name and seed, for error messages.
    pub label: String,
    /// The platform before the campaign starts.
    pub platform: Platform,
    /// Arrivals and departures per round (empty for a closed world).
    pub schedule: CampaignSchedule,
    /// Number of workers to select.
    pub k: usize,
    /// `SelectorConfig::num_shards`.
    pub num_shards: usize,
}

/// A workload's inputs plus the time spent building them.
#[derive(Debug)]
pub struct Setup {
    /// One sweep's inputs, in run order.
    pub cases: Vec<Case>,
    /// Where the set-up time went.
    pub times: SetupTimes,
}

/// Set-up time, whole and by layer.
#[derive(Debug, Clone, Copy)]
pub struct SetupTimes {
    /// Seconds in `generate`.
    pub generate_s: f64,
    /// Seconds in `Platform::from_dataset`.
    pub platform_s: f64,
    /// Seconds for the whole set-up (generation, profile gaps, churn
    /// schedule, platforms).
    pub total_s: f64,
}

impl SetupTimes {
    /// Every time multiplied by `scale` (wall to reference seconds).
    pub fn scaled(self, scale: f64) -> Self {
        Self {
            generate_s: scale * self.generate_s,
            platform_s: scale * self.platform_s,
            total_s: scale * self.total_s,
        }
    }
}

/// Workers in each `pool_large` pool.
const POOL_LARGE_WORKERS: [usize; 2] = [30_000, 240];
/// Pools per `pool_large` sweep. The CPE update diverges on 5-15% of these
/// pools (the selection returns a numerical error in round 1). Two
/// pools per sweep keep the time and quality metrics measurable on a seed
/// where one of them fails, and the failure still counts in `failed`.
const POOL_LARGE_INPUTS: u64 = 2;
/// Workers in the `campaign_open` pool, and joins/leaves per round.
const CAMPAIGN_WORKERS: [usize; 2] = [20_000, 200];
const CAMPAIGN_CHURN: [usize; 2] = [1_000, 10];
/// Seeds per paper dataset in one `paper_suite` sweep.
const SUITE_SEEDS: [u64; 2] = [8, 1];

impl Scale {
    fn pick<T: Copy>(self, sizes: [T; 2]) -> T {
        match self {
            Scale::Full => sizes[0],
            Scale::Smoke => sizes[1],
        }
    }
}

/// SplitMix64 finaliser, used to derive dataset and platform seeds from the
/// benchmark seed.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Seed number `index` of the stream derived from `seed`.
fn derive(seed: u64, index: u64) -> u64 {
    mix(mix(seed) ^ index)
}

/// Removes prior-domain records from a profile by the worker's id, the way
/// `tests/missing_domains.rs` does, extended so that all eight subsets of
/// the three prior domains occur: every 3rd worker lacks domain 1, every 5th
/// lacks 0 and 2, every 7th lacks 2, and every 11th lacks 0.
fn punch_gaps(profile: &HistoricalProfile, id: usize) -> Result<HistoricalProfile, SelectionError> {
    let d = profile.num_domains();
    let mut accuracies: Vec<Option<f64>> = (0..d).map(|j| profile.accuracy(j)).collect();
    let counts: Vec<usize> = (0..d).map(|j| profile.task_count(j)).collect();
    let mut lack = |j: usize| {
        if let Some(a) = accuracies.get_mut(j) {
            *a = None;
        }
    };
    if id.is_multiple_of(3) {
        lack(1);
    }
    if id.is_multiple_of(5) {
        lack(0);
        lack(2);
    }
    if id.is_multiple_of(7) {
        lack(2);
    }
    if id.is_multiple_of(11) {
        lack(0);
    }
    Ok(HistoricalProfile::new(accuracies, counts)?)
}

/// Builds the workload's inputs from the seed, timing the set-up.
pub fn set_up(workload: Workload, seed: u64, scale: Scale) -> Result<Setup, SelectionError> {
    let total = Stopwatch::start();
    let mut generate_s = 0.0;
    let mut platform_s = 0.0;
    let mut cases = Vec::new();
    let mut add = |config: DatasetConfig,
                   platform_seed: u64,
                   open_world: bool,
                   num_shards: usize|
     -> Result<(), SelectionError> {
        let t = Stopwatch::start();
        let mut dataset = generate(&config)?;
        generate_s += t.elapsed_s();
        let mut schedule = CampaignSchedule::empty();
        if open_world {
            for (id, worker) in dataset.workers.iter_mut().enumerate() {
                worker.profile = punch_gaps(&worker.profile, id)?;
            }
            // Joiners get the same id-keyed gaps; ids continue past the pool.
            let churn = CampaignSchedule::churn(&config, config.rounds())?;
            let mut next_id = config.pool_size;
            for round in 1..=config.rounds() {
                if let Some(events) = churn.events_for(round) {
                    let mut events = events.clone();
                    for spec in &mut events.joins {
                        spec.profile = punch_gaps(&spec.profile, next_id)?;
                        next_id += 1;
                    }
                    schedule.insert(round, events);
                }
            }
        }
        let t = Stopwatch::start();
        let platform = Platform::from_dataset(&dataset, platform_seed)?;
        platform_s += t.elapsed_s();
        cases.push(Case {
            label: format!("{} seed {:#x}", config.name, config.seed),
            platform,
            schedule,
            k: config.select_k,
            num_shards,
        });
        Ok(())
    };
    match workload {
        Workload::PoolLarge => {
            for input in 0..POOL_LARGE_INPUTS {
                let mut config = DatasetConfig::s4().with_seed(derive(seed, 2 * input));
                config.name = "S-4-large".to_string();
                config.pool_size = scale.pick(POOL_LARGE_WORKERS);
                add(config, derive(seed, 2 * input + 1), false, 1)?;
            }
        }
        Workload::CampaignOpen => {
            let mut config = DatasetConfig::s4().with_seed(derive(seed, 0));
            config.name = "S-4-open".to_string();
            config.pool_size = scale.pick(CAMPAIGN_WORKERS);
            config.scenario.churn_joins_per_round = scale.pick(CAMPAIGN_CHURN);
            config.scenario.churn_leaves_per_round = scale.pick(CAMPAIGN_CHURN);
            add(config, derive(seed, 1), true, 2)?;
        }
        Workload::PaperSuite => {
            let mut index = 0;
            for repeat in 0..scale.pick(SUITE_SEEDS) {
                for config in DatasetConfig::all_paper_datasets() {
                    // Repeat 0 keeps each dataset's shipped seed.
                    let config = if repeat == 0 {
                        config
                    } else {
                        let shipped = config.seed;
                        config.with_seed(derive(seed ^ shipped, repeat))
                    };
                    add(config, derive(seed, 1_000 + index), false, 1)?;
                    index += 1;
                }
            }
        }
    }
    Ok(Setup {
        cases,
        times: SetupTimes {
            generate_s,
            platform_s,
            total_s: total.elapsed_s(),
        },
    })
}
