//! The six workloads: which datasets each registers, the engine it runs
//! on, its query templates, and the fixed seeded *round* of operations the
//! measured phase repeats. Why each workload exists — which layer does most
//! of its work — is recorded in `README.md` and `BENCHMARK.json`.

use std::path::Path;

use proteus_algebra::{DataType, Expr, JoinKind, LogicalPlan, Monoid, ReduceSpec, Schema};
use proteus_core::{AdmissionConfig, EngineConfig};

use crate::datagen::{self, Rng, Sizes, CHURN_FILES};

pub const WORKLOADS: [&str; 6] = [
    "raw_hetero",
    "binary_olap",
    "service_point",
    "service_rows",
    "cache_fit",
    "cache_churn",
];

/// Fresh set-ups per untraced run, spread evenly over it: a run is this many
/// repetitions of set up → first touch → one warm-up round → measure for an
/// equal share of `--seconds`, each with its own order of the round.
pub const EPOCHS: usize = 5;

/// Engine workers per query: 2 where one client drives the engine, 1 where
/// two clients share it (the reference host has two cores).
const SINGLE_CLIENT_PARALLELISM: usize = 2;
/// Most connections a service workload opens (closed loop, one query in
/// flight per connection); also the server engine's admission slots.
pub const SERVICE_CLIENTS: usize = 2;
/// One `service_rows` reply holds this share of the table: 5 000 rows at
/// full size.
const REPLY_SHARE: usize = 200;

/// Copies of the biased rotation in one round of the cache workloads: two,
/// so a round is long enough to hold one update of every file.
const ROTATIONS: usize = 2;

/// Cache arena of `cache_fit`: three times the working set, so nothing is
/// ever evicted.
fn fit_budget(sizes: Sizes) -> usize {
    3 * working_set_bytes(sizes)
}

/// Cache arena of `cache_churn`: five sixths of the working set, so five of
/// the six caches fit and something is always being evicted. With the biased
/// rotation about four queries in five then hit, which puts the median
/// latency inside the tight cluster of hits and the 95th percentile inside
/// the rebuilds; with half the working set the median sat on the border
/// between the two and moved by 30% between seeds.
fn churn_budget(sizes: Sizes) -> usize {
    working_set_bytes(sizes) * 5 / 6
}

/// Bytes the six churn caches occupy when all are resident, measured at the
/// seed commit (`storage.cache_bytes_peak` on `cache_fit`): 40 bytes a row
/// for three cached numeric columns, OIDs and zone maps.
/// Fixed in bytes on purpose — a change to the cache's own entry layout
/// must show as a different hit rate, not be absorbed by the budget.
pub fn working_set_bytes(sizes: Sizes) -> usize {
    CHURN_FILES * sizes.churn * 40
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Format {
    Json,
    Csv,
    Binary,
}

/// One registered dataset: its name in the engine, its file under the data
/// directory and how it is registered.
#[derive(Debug, Clone, PartialEq)]
pub struct Dataset {
    pub name: String,
    pub file: String,
    pub format: Format,
    /// Schema for CSV registration (JSON infers, binary carries its own).
    pub schema: Option<Schema>,
}

impl Dataset {
    fn new(name: &str, format: Format, schema: Option<Schema>) -> Dataset {
        let file = match format {
            Format::Json => "events.json".to_string(),
            Format::Csv if name == "events_csv" => "events.csv".to_string(),
            Format::Csv => format!("{name}.csv"),
            Format::Binary => name.to_string(),
        };
        Dataset {
            name: name.to_string(),
            file,
            format,
            schema,
        }
    }
}

#[derive(Debug, Clone, PartialEq)]
pub enum Query {
    Sql(String),
    Comprehension(String),
    /// Shapes the SQL front-end cannot express (left-outer join).
    Plan(LogicalPlan),
}

/// A query shape with one or more concrete instances (different constants
/// or datasets, same plan shape).
#[derive(Debug, Clone, PartialEq)]
pub struct Template {
    pub name: &'static str,
    pub instances: Vec<Query>,
    /// Set on the one-field `COUNT/SUM` full scan of a format: its execute
    /// time over its row count is that plug-in's scan rate.
    pub scan_probe: Option<(Format, usize)>,
}

/// One step of a round.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Op {
    Query {
        template: usize,
        instance: usize,
    },
    /// `notify_update(dataset)`: the write side beside the reads.
    Update {
        dataset: String,
    },
}

#[derive(Clone)]
pub struct Workload {
    pub name: &'static str,
    pub datasets: Vec<Dataset>,
    pub config: EngineConfig,
    /// 0 = in-process, one client; otherwise TCP connections.
    pub clients: usize,
    pub templates: Vec<Template>,
    /// The fixed operation sequences a measured phase repeats: the same
    /// operations in [`EPOCHS`] seeded orders, one per fresh set-up of a run,
    /// so a run's numbers do not hang on what one order does to the caches.
    pub rounds: Vec<Vec<Op>>,
    /// Cache arena in bytes, when caching is on.
    pub cache_budget: Option<usize>,
}

fn events_csv_schema() -> Schema {
    Schema::from_pairs(vec![
        ("id", DataType::Int),
        ("grp", DataType::Int),
        ("val", DataType::Float),
        ("tag", DataType::String),
    ])
}

fn churn_schema() -> Schema {
    Schema::from_pairs(vec![
        ("a", DataType::Int),
        ("b", DataType::Int),
        ("c", DataType::Float),
    ])
}

fn sql(name: &'static str, text: String) -> Template {
    Template {
        name,
        instances: vec![Query::Sql(text)],
        scan_probe: None,
    }
}

/// [`EPOCHS`] rounds, each holding `weight` copies of every instance of each
/// template, each in a seeded order of its own.
fn weighted_rounds(templates: &[Template], weights: &[usize], rng: &mut Rng) -> Vec<Vec<Op>> {
    assert_eq!(templates.len(), weights.len());
    let mut round = Vec::new();
    for (template, (t, weight)) in templates.iter().zip(weights).enumerate() {
        for instance in 0..t.instances.len() {
            round.extend((0..*weight).map(|_| Op::Query { template, instance }));
        }
    }
    (0..EPOCHS)
        .map(|_| {
            rng.shuffle(&mut round);
            round.clone()
        })
        .collect()
}

fn raw_hetero(sizes: Sizes, rng: &mut Rng) -> Workload {
    let n = sizes.events;
    let pct = |p: usize| n * p / 100;
    let tag = rng.below(datagen::TAGS);
    let mut templates = vec![
        sql("json_sel_2", format!("SELECT COUNT(*), SUM(val) FROM events_json WHERE id < {}", pct(2))),
        sql("json_sel_20", format!("SELECT COUNT(*), MAX(val) FROM events_json WHERE id < {}", pct(20))),
        sql("json_sel_50", format!("SELECT COUNT(*), SUM(val), MIN(val) FROM events_json WHERE id < {}", pct(50))),
        sql("json_scan", "SELECT COUNT(*), SUM(val) FROM events_json".to_string()),
        sql("csv_sel_20", format!("SELECT COUNT(*), SUM(val) FROM events_csv WHERE id < {}", pct(20))),
        sql("csv_scan", "SELECT COUNT(*), SUM(val) FROM events_csv".to_string()),
        sql("json_group", "SELECT grp, COUNT(*), SUM(val) FROM events_json GROUP BY grp".to_string()),
        sql("csv_string", format!("SELECT COUNT(*), SUM(val) FROM events_csv WHERE tag = 'tag_{tag:02}'")),
        sql("json_nested", "SELECT COUNT(*), SUM(geo.lat) FROM events_json WHERE geo.lon < 50.0".to_string()),
        sql("json_join_dim", "SELECT COUNT(*), SUM(d.w) FROM events_json e JOIN dim d ON e.id = d.dk".to_string()),
        sql("csv_join_json", format!(
            "SELECT COUNT(*), SUM(j.val) FROM events_csv c JOIN events_json j ON c.id = j.id WHERE c.id < {}",
            pct(2)
        )),
        Template {
            name: "json_unnest",
            instances: vec![Query::Comprehension(
                "for { e <- events_json, i <- e.items, i.qty > 3 } yield count".to_string(),
            )],
            scan_probe: None,
        },
    ];
    templates[3].scan_probe = Some((Format::Json, n));
    templates[5].scan_probe = Some((Format::Csv, n));
    // Weights keep the 50th and 95th percentile of the mix inside one
    // template's latency cluster each (json_sel_* and json_unnest at the seed
    // commit), not on the border between two.
    let rounds = weighted_rounds(&templates, &[3, 3, 3, 2, 2, 2, 2, 2, 1, 2, 2, 2], rng);
    Workload {
        name: "raw_hetero",
        datasets: vec![
            Dataset::new("events_json", Format::Json, None),
            Dataset::new("events_csv", Format::Csv, Some(events_csv_schema())),
            Dataset::new("dim", Format::Binary, None),
        ],
        config: EngineConfig::without_caching().with_parallelism(SINGLE_CLIENT_PARALLELISM),
        clients: 0,
        templates,
        rounds,
        cache_budget: None,
    }
}

fn binary_olap(sizes: Sizes, rng: &mut Rng) -> Workload {
    let n = sizes.fact;
    let pct = |p: usize| n * p / 100;
    let scan = |dataset: &str, alias: &str| LogicalPlan::scan(dataset, alias, Schema::empty());
    let left_outer = scan("fact", "f")
        .select(Expr::path("f.k").lt(Expr::int(pct(20) as i64)))
        .join(
            scan("dim", "d"),
            Expr::path("f.k").eq(Expr::path("d.dk")),
            JoinKind::LeftOuter,
        )
        .reduce(vec![
            ReduceSpec::new(Monoid::Count, Expr::int(1), "cnt"),
            ReduceSpec::new(Monoid::Sum, Expr::path("d.w"), "sum_w"),
        ]);
    let mut templates = vec![
        sql(
            "filter4_2",
            format!(
                "SELECT COUNT(*), SUM(v), MIN(v), MAX(v) FROM fact WHERE k < {}",
                pct(2)
            ),
        ),
        sql(
            "filter4_50",
            format!(
                "SELECT COUNT(*), SUM(v), MIN(v), MAX(v) FROM fact WHERE k < {}",
                pct(50)
            ),
        ),
        sql("bin_scan", "SELECT COUNT(*), SUM(v) FROM fact".to_string()),
        sql(
            "group_g",
            "SELECT g, COUNT(*), SUM(v) FROM fact GROUP BY g".to_string(),
        ),
        sql(
            "group_g_h",
            "SELECT g, h, COUNT(*), SUM(v) FROM fact GROUP BY g, h".to_string(),
        ),
        sql(
            "join_dim",
            "SELECT COUNT(*), SUM(d.w) FROM fact f JOIN dim d ON f.k = d.dk".to_string(),
        ),
        Template {
            name: "left_outer",
            instances: vec![Query::Plan(left_outer)],
            scan_probe: None,
        },
    ];
    templates[2].scan_probe = Some((Format::Binary, n));
    let rounds = weighted_rounds(&templates, &[3, 3, 2, 5, 2, 3, 3], rng);
    Workload {
        name: "binary_olap",
        datasets: vec![
            Dataset::new("fact", Format::Binary, None),
            Dataset::new("dim", Format::Binary, None),
        ],
        config: EngineConfig::without_caching().with_parallelism(SINGLE_CLIENT_PARALLELISM),
        clients: 0,
        templates,
        rounds,
        cache_budget: None,
    }
}

/// The service engine: a dedicated scheduler (`with_admission`) because
/// `Server::shutdown` drains the engine's scheduler for good, and two slots
/// plus a two-deep queue so two closed-loop clients are never shed.
fn service_config() -> EngineConfig {
    EngineConfig::without_caching()
        .with_parallelism(1)
        .with_admission(AdmissionConfig::new(SERVICE_CLIENTS, SERVICE_CLIENTS))
}

fn service_point(sizes: Sizes, rng: &mut Rng) -> Workload {
    let n = sizes.fact_sorted() as u64;
    // Eight constants per template: each costs the reference engine a full
    // scan of the table before the run, so more would only lengthen that.
    let mut instances = |make: &dyn Fn(u64) -> String| -> Vec<Query> {
        (0..8)
            .map(|_| Query::Sql(make(rng.below(n - 1000))))
            .collect()
    };
    let templates = vec![
        Template {
            name: "point_eq",
            instances: instances(&|k| {
                format!("SELECT COUNT(*), SUM(v) FROM fact_sorted WHERE k = {k}")
            }),
            scan_probe: None,
        },
        Template {
            name: "range_100",
            instances: instances(&|k| {
                format!(
                    "SELECT COUNT(*), SUM(v) FROM fact_sorted WHERE k >= {k} AND k < {}",
                    k + 100
                )
            }),
            scan_probe: None,
        },
        Template {
            name: "range_1000_minmax",
            instances: instances(&|k| {
                format!(
                    "SELECT MIN(v), MAX(v), COUNT(*) FROM fact_sorted WHERE k >= {k} AND k < {}",
                    k + 1000
                )
            }),
            scan_probe: None,
        },
        // A dashboard's wide-range aggregate, one query in nine and more than
        // twice as slow as the rest: the 95th percentile of the mix falls
        // inside this template's cluster instead of in the tail of the point
        // queries, which is jitter. No wider, or its scan outweighs the fixed
        // costs the workload exists for.
        Template {
            name: "range_wide",
            instances: instances(&|k| {
                // A 64th of the table (15 625 rows), wherever it starts.
                let lo = k % (n - n / 64);
                format!(
                    "SELECT COUNT(*), SUM(v) FROM fact_sorted WHERE k >= {lo} AND k < {}",
                    lo + n / 64
                )
            }),
            scan_probe: None,
        },
    ];
    let rounds = weighted_rounds(&templates, &[4, 2, 2, 1], rng);
    Workload {
        name: "service_point",
        datasets: vec![Dataset::new("fact_sorted", Format::Binary, None)],
        config: service_config(),
        // One connection: a lone caller waiting for each reply. With two, the
        // six threads of client and server outnumber the two cores and the
        // latency tail measures the host's scheduler, not the engine. One
        // connection also lets the run pin itself to one CPU (see
        // `run::pin_to_one_cpu`).
        clients: 1,
        templates,
        rounds,
        cache_budget: None,
    }
}

fn service_rows(sizes: Sizes, rng: &mut Rng) -> Workload {
    let n = sizes.fact_sorted();
    let rows = n / REPLY_SHARE;
    let templates = vec![Template {
        name: "range_rows",
        instances: (0..16)
            .map(|_| {
                let k = rng.below((n - rows) as u64) as usize;
                Query::Sql(format!(
                    "SELECT k, v, g FROM fact_sorted WHERE k >= {k} AND k < {}",
                    k + rows
                ))
            })
            .collect(),
        scan_probe: None,
    }];
    let rounds = weighted_rounds(&templates, &[2], rng);
    Workload {
        name: "service_rows",
        datasets: vec![Dataset::new("fact_sorted", Format::Binary, None)],
        config: service_config(),
        clients: SERVICE_CLIENTS,
        templates,
        rounds,
        cache_budget: None,
    }
}

/// `cache_fit` and `cache_churn` share data, templates and sequence; only
/// the arena (and the spill directory and update stream that go with a
/// too-small one) differ.
fn cache_workload(sizes: Sizes, rng: &mut Rng, churn: bool, spill_dir: &Path) -> Workload {
    let half = sizes.churn / 2;
    let per_file = |make: &dyn Fn(usize) -> String| -> Vec<Query> {
        (0..CHURN_FILES).map(|f| Query::Sql(make(f))).collect()
    };
    let templates = vec![
        Template {
            name: "agg_max",
            instances: per_file(&|f| {
                format!("SELECT COUNT(*), MAX(b) FROM churn_{f} WHERE a >= 0")
            }),
            scan_probe: None,
        },
        Template {
            name: "agg_sum_half",
            instances: per_file(&|f| {
                format!("SELECT COUNT(*), SUM(c) FROM churn_{f} WHERE a < {half}")
            }),
            scan_probe: None,
        },
        Template {
            name: "group_b",
            instances: per_file(&|f| {
                format!("SELECT b, COUNT(*), SUM(c) FROM churn_{f} GROUP BY b")
            }),
            scan_probe: None,
        },
    ];
    // Biased rotation: lower-numbered files recur more often (file 0 three
    // times as often as file 5), so an eviction policy has something to learn.
    // The two plain aggregates run twice as often as the group-by: their
    // cache hits are then well over half of all queries, so the median of
    // the mix lies inside their cluster and not between it and the
    // group-by's, and the group-by (a fifth) holds the 95th percentile of
    // `cache_fit`.
    let mut queries = Vec::new();
    for (template, weight) in [2, 2, 1].into_iter().enumerate() {
        for instance in 0..CHURN_FILES {
            let copies = ROTATIONS * weight * (1 + (CHURN_FILES - 1 - instance) / 2);
            queries.extend((0..copies).map(|_| Op::Query { template, instance }));
        }
    }
    // One update per file and round, in seeded order at even distances: which
    // file an update hits decides what it costs (file 0 is needed again at
    // once, file 5 rarely), so drawing the files at random made the rebuild
    // work of a round differ by half between seeds. The orders are drawn for
    // both workloads so they see the same queries; only `cache_churn`
    // applies the updates.
    let mut updated: Vec<usize> = (0..CHURN_FILES).collect();
    let every = queries.len() / CHURN_FILES;
    let rounds = (0..EPOCHS)
        .map(|_| {
            rng.shuffle(&mut queries);
            rng.shuffle(&mut updated);
            let mut round = Vec::new();
            for (i, op) in queries.iter().enumerate() {
                round.push(op.clone());
                if churn && i % every == every - 1 {
                    let dataset = format!("churn_{}", updated[i / every]);
                    round.push(Op::Update { dataset });
                }
            }
            round
        })
        .collect();
    let budget = if churn {
        churn_budget(sizes)
    } else {
        fit_budget(sizes)
    };
    let mut config = EngineConfig {
        cache_budget: budget,
        parallelism: SINGLE_CLIENT_PARALLELISM,
        ..Default::default()
    };
    if churn {
        config = config.with_cache_spill_dir(spill_dir);
    }
    Workload {
        name: if churn { "cache_churn" } else { "cache_fit" },
        datasets: (0..CHURN_FILES)
            .map(|f| Dataset::new(&format!("churn_{f}"), Format::Csv, Some(churn_schema())))
            .collect(),
        config,
        clients: 0,
        templates,
        rounds,
        cache_budget: Some(budget),
    }
}

/// Builds workload `name` for `seed`. The query constants and the round
/// order come from the seed; the data files are written by [`generate`].
pub fn build(name: &str, sizes: Sizes, seed: u64, spill_dir: &Path) -> Option<Workload> {
    let mut rng = Rng::stream(seed, name);
    Some(match name {
        "raw_hetero" => raw_hetero(sizes, &mut rng),
        "binary_olap" => binary_olap(sizes, &mut rng),
        "service_point" => service_point(sizes, &mut rng),
        "service_rows" => service_rows(sizes, &mut rng),
        // Same stream for both, so they differ in the arena alone.
        "cache_fit" | "cache_churn" => cache_workload(
            sizes,
            &mut Rng::stream(seed, "cache"),
            name == "cache_churn",
            spill_dir,
        ),
        _ => return None,
    })
}

/// Writes the files `workload` registers into `dir`.
pub fn generate(workload: &Workload, sizes: Sizes, seed: u64, dir: &Path) -> std::io::Result<()> {
    let has = |name: &str| workload.datasets.iter().any(|d| d.name == name);
    if has("events_json") {
        datagen::write_events(dir, sizes.events, seed)?;
    }
    if has("fact") {
        datagen::write_fact(dir, sizes.fact, seed, false)?;
    }
    if has("fact_sorted") {
        datagen::write_fact(dir, sizes.fact_sorted(), seed, true)?;
    }
    if has("dim") {
        // `dim` matches one key in ten of whichever table joins it.
        let keyspace = if has("fact") {
            sizes.fact
        } else {
            sizes.events
        };
        datagen::write_dim(dir, keyspace, seed)?;
    }
    if has("churn_0") {
        datagen::write_churn(dir, sizes.churn, seed)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_gives_the_same_query_sequence_and_another_seed_differs() {
        let spill = Path::new("spill");
        for name in WORKLOADS {
            let a = build(name, Sizes::QUICK, 11, spill).unwrap();
            let b = build(name, Sizes::QUICK, 11, spill).unwrap();
            let c = build(name, Sizes::QUICK, 12, spill).unwrap();
            assert_eq!(a.rounds, b.rounds, "{name}");
            assert_eq!(a.templates, b.templates, "{name}");
            assert_ne!(a.rounds, c.rounds, "{name}");
            assert_eq!(a.rounds.len(), EPOCHS, "{name}");
            assert_ne!(a.rounds[0], a.rounds[1], "{name}");
            assert!(a.rounds.iter().all(|r| r.len() >= 20), "{name}");
        }
        assert!(build("nope", Sizes::QUICK, 1, spill).is_none());
    }

    #[test]
    fn the_cache_workloads_differ_only_in_arena_spill_and_updates() {
        let spill = Path::new("spill");
        let fit = build("cache_fit", Sizes::FULL, 5, spill).unwrap();
        let churn = build("cache_churn", Sizes::FULL, 5, spill).unwrap();
        assert_eq!(fit.templates, churn.templates);
        let queries = |w: &Workload| -> Vec<Vec<Op>> {
            w.rounds
                .iter()
                .map(|round| {
                    let queries = round.iter().filter(|op| matches!(op, Op::Query { .. }));
                    queries.cloned().collect()
                })
                .collect()
        };
        assert_eq!(queries(&fit), queries(&churn));
        assert_eq!(churn.rounds[0].len(), fit.rounds[0].len() + CHURN_FILES);
        let working_set = working_set_bytes(Sizes::FULL);
        assert!(fit.cache_budget.unwrap() >= 2 * working_set);
        assert!(churn.cache_budget.unwrap() < working_set);
    }
}
