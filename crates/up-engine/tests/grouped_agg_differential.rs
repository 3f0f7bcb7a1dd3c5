//! Differential test of grouped aggregation.
//!
//! Random decimal tables with negatives, zeros, ties and single-row
//! groups are grouped by `Int64`, `Str`, `Decimal` and `Float64` keys
//! (including `0.0` and `-0.0`, which render apart and so group apart),
//! with and without a `WHERE` that empties the selection. Then:
//!
//! - UltraPrecise rows equal PostgresLike rows (compared by value) for
//!   every query without a division;
//! - rows, `ModeledTime`, kernel and tier counts, JIT-cache counters and
//!   the `FleetReport` are bit-identical across pipeline off/on(4) and
//!   across no fleet and fleets of 1, 2, 4 and 8 devices (the fleet
//!   report is compared between pipeline modes at one fleet size, since
//!   it describes the fleet).

use std::sync::Arc;
use up_engine::{ColumnType, Database, Profile, QueryResult, Schema, Value};
use up_gpusim::{Fleet, PipelineMode};
use up_num::{DecimalType, UpDecimal};

const ROWS: usize = 180;

fn dt(p: u32, s: u32) -> DecimalType {
    DecimalType::new_unchecked(p, s)
}

/// SplitMix64.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// A random signed decimal of `ty`: a tenth are zero, a tenth repeat a
/// small pool (ties), the rest span up to `digits` digits.
fn decimal(rng: &mut Rng, ty: DecimalType, digits: u32) -> UpDecimal {
    let unscaled: i64 = match rng.below(10) {
        0 => 0,
        1 => [-7_500, 12_345, 12_345, -1][rng.below(4) as usize],
        _ => {
            let mag = (rng.next() % 10u64.pow(digits)) as i64;
            if rng.below(2) == 0 {
                -mag
            } else {
                mag
            }
        }
    };
    UpDecimal::from_scaled_i64(unscaled, ty).expect("fits")
}

fn database(profile: Profile, seed: u64) -> Database {
    let (ta, tb, tk) = (dt(30, 4), dt(20, 6), dt(6, 2));
    let mut db = Database::new(profile);
    db.create_table(
        "t",
        Schema::new(vec![
            ("ki", ColumnType::Int64),
            ("ks", ColumnType::Str),
            ("kd", ColumnType::Decimal(tk)),
            ("kf", ColumnType::Float64),
            ("a", ColumnType::Decimal(ta)),
            ("b", ColumnType::Decimal(tb)),
        ]),
    );
    let mut rng = Rng(seed);
    let rows: Vec<Vec<Value>> = (0..ROWS)
        .map(|i| {
            // Every 37th row carries a key of its own: a one-row group.
            let ki = if i % 37 == 5 {
                1000 + i as i64
            } else {
                rng.below(5) as i64 - 2
            };
            let ks = ["alpha", "beta", "gamma", ""][rng.below(4) as usize].to_string();
            let kd = [-150, 0, 225, 99_999][rng.below(4) as usize];
            let kf = [0.0, -0.0, 1.5, -2.25][rng.below(4) as usize];
            vec![
                Value::Int64(ki),
                Value::Str(ks),
                Value::Decimal(UpDecimal::from_scaled_i64(kd, tk).expect("fits")),
                Value::Float64(kf),
                Value::Decimal(decimal(&mut rng, ta, 15)),
                Value::Decimal(decimal(&mut rng, tb, 12)),
            ]
        })
        .collect();
    db.insert_many("t", rows).expect("rows fit their types");
    db
}

const KEYS: [&str; 6] = ["ki", "ks", "kd", "kf", "ki, ks", "kd, kf"];

const FILTERS: [&str; 4] = [
    "",
    "WHERE ki > 99999",
    "WHERE ks = 'beta'",
    "WHERE ks >= 'beta' AND a > 0",
];

/// The grouped queries (`with_avg` adds `AVG`, whose division the
/// PostgresLike comparison excludes), plus ungrouped ones.
fn queries(with_avg: bool) -> Vec<String> {
    let avg = if with_avg {
        ", AVG(a) AS av, AVG(a * b) AS avp"
    } else {
        ""
    };
    let mut out = Vec::new();
    for key in KEYS {
        for filter in FILTERS {
            out.push(format!(
                "SELECT {key}, SUM(a) AS s, MIN(a) AS lo, MAX(a) AS hi, COUNT(a) AS c, \
                 COUNT(*) AS n, SUM(a * b + a) AS sp, MIN(a - b) AS ld, MAX(b * b) AS hb{avg} \
                 FROM t {filter} GROUP BY {key} ORDER BY {key}"
            ));
        }
    }
    for filter in FILTERS {
        out.push(format!(
            "SELECT SUM(a) AS s, MIN(b) AS lo, MAX(a * b) AS hi, COUNT(*) AS n{avg} FROM t {filter}"
        ));
    }
    out
}

/// A value compared across profiles: decimals at one canonical scale
/// (profiles may type the same value differently), the rest rendered.
fn canonical(v: &Value) -> String {
    match v {
        Value::Decimal(d) => d
            .cast(dt(90, 12))
            .expect("fits the canonical type")
            .to_string(),
        other => other.render(),
    }
}

#[test]
fn ultraprecise_rows_equal_postgres_rows_without_division() {
    for seed in [1, 2, 3] {
        let up = database(Profile::UltraPrecise, seed);
        let pg = database(Profile::PostgresLike, seed);
        for sql in queries(false) {
            let (a, b) = (up.query(&sql).unwrap(), pg.query(&sql).unwrap());
            let rows = |r: &QueryResult| -> Vec<Vec<String>> {
                r.rows
                    .iter()
                    .map(|row| row.iter().map(canonical).collect())
                    .collect()
            };
            assert_eq!(rows(&a), rows(&b), "seed {seed}: {sql}");
        }
    }
}

#[test]
fn string_filters_match_a_direct_scan() {
    let db = database(Profile::UltraPrecise, 5);
    // Per-key row counts, from grouping alone.
    let r = db.query("SELECT ks, COUNT(*) AS n FROM t GROUP BY ks").unwrap();
    let counts: Vec<(String, i64)> = r
        .rows
        .iter()
        .map(|row| match (&row[0], &row[1]) {
            (Value::Str(k), Value::Int64(n)) => (k.clone(), *n),
            other => panic!("{other:?}"),
        })
        .collect();
    type Keep = fn(&str) -> bool;
    let cases: [(&str, Keep); 7] = [
        ("ks = 'beta'", |k| k == "beta"),
        ("ks <> 'beta'", |k| k != "beta"),
        ("ks < 'beta'", |k| k < "beta"),
        ("'beta' <= ks", |k| "beta" <= k),
        ("ks BETWEEN 'alpha' AND 'beta'", |k| ("alpha"..="beta").contains(&k)),
        ("ks LIKE 'g%'", |k| k.starts_with('g')),
        ("NOT ks = ''", |k| !k.is_empty()),
    ];
    for (pred, keep) in cases {
        let want: i64 = counts.iter().filter(|(k, _)| keep(k)).map(|(_, n)| n).sum();
        let r = db.query(&format!("SELECT COUNT(*) AS n FROM t WHERE {pred}")).unwrap();
        assert_eq!(r.rows, vec![vec![Value::Int64(want)]], "{pred}");
    }
}

#[test]
fn empty_selection_and_single_row_groups_reduce_as_sql_says() {
    let db = database(Profile::UltraPrecise, 4);
    let r = db
        .query("SELECT ki, COUNT(*) AS n FROM t WHERE ki > 99999 GROUP BY ki")
        .unwrap();
    assert!(r.rows.is_empty());
    let r = db
        .query("SELECT SUM(a) AS s, MIN(a) AS lo, COUNT(a) AS c, COUNT(*) AS n FROM t WHERE ki > 99999")
        .unwrap();
    assert_eq!(
        r.rows,
        vec![vec![
            Value::Null,
            Value::Null,
            Value::Int64(0),
            Value::Int64(0)
        ]]
    );
    // A one-row group's SUM, MIN and MAX are its only value.
    let r = db
        .query("SELECT ki, SUM(a) AS s, MIN(a) AS lo, MAX(a) AS hi, COUNT(*) AS n FROM t GROUP BY ki ORDER BY ki")
        .unwrap();
    let singles: Vec<&Vec<Value>> = r
        .rows
        .iter()
        .filter(|row| row[4] == Value::Int64(1))
        .collect();
    assert_eq!(singles.len(), ROWS.div_ceil(37));
    for row in singles {
        assert_eq!(canonical(&row[1]), canonical(&row[2]));
        assert_eq!(canonical(&row[2]), canonical(&row[3]));
    }
    // 0.0 and -0.0 render apart, so they are two groups.
    let r = db
        .query("SELECT kf, COUNT(*) AS n FROM t GROUP BY kf ORDER BY kf")
        .unwrap();
    let keys: Vec<String> = r.rows.iter().map(|row| row[0].render()).collect();
    assert!(
        keys.contains(&"0".to_string()) && keys.contains(&"-0".to_string()),
        "{keys:?}"
    );
}

/// Everything a run must reproduce bit for bit, as text (floats through
/// their bit patterns).
fn fingerprint(r: &QueryResult) -> String {
    let m = &r.modeled;
    let bits: Vec<u64> = [
        m.scan_s,
        m.pcie_s,
        m.compile_s,
        m.kernel_s,
        m.cpu_s,
        m.queue_s,
    ]
    .map(f64::to_bits)
    .to_vec();
    format!(
        "{:?} {bits:?} kernels={} tiers={:?}",
        r.rows, r.kernels, r.tiers
    )
}

#[test]
fn rows_and_modeled_time_are_bit_identical_across_pipeline_and_fleet() {
    let sqls = queries(true);
    let mut reference: Option<Vec<String>> = None;
    for devices in [0usize, 1, 2, 4, 8] {
        let mut fleet_reports: Option<Vec<String>> = None;
        for pipeline in [PipelineMode::Off, PipelineMode::On(4)] {
            let mut db = database(Profile::UltraPrecise, 9);
            db.pipeline = pipeline;
            if devices > 0 {
                db.set_fleet(Some(Arc::new(Fleet::a6000s(devices))));
            }
            let mut prints = Vec::new();
            let mut reports = Vec::new();
            for sql in &sqls {
                let r = db.query(sql).unwrap_or_else(|e| panic!("{sql}: {e}"));
                prints.push(fingerprint(&r));
                reports.push(format!("{:?}", r.fleet));
            }
            let s = db.jit_stats();
            prints.push(format!(
                "hits={} misses={} entries={}",
                s.hits, s.misses, s.entries
            ));
            let label = format!("{devices} devices, {pipeline:?}");
            match &reference {
                None => reference = Some(prints),
                Some(want) => {
                    for (k, (got, want)) in prints.iter().zip(want).enumerate() {
                        assert_eq!(got, want, "{label}: {}", sqls.get(k).map_or("cache", |s| s));
                    }
                }
            }
            match &fleet_reports {
                None => fleet_reports = Some(reports),
                Some(want) => assert_eq!(&reports, want, "{label}: fleet report"),
            }
        }
    }
}
