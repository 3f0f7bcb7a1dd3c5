//! The three workloads: their tables and their seeded query streams.
//!
//! Everything here is plain data — SQL text and rows — so the server
//! only ever sees SQL strings. The same seed always yields the same
//! tables and the same stream.

use std::collections::{HashMap, HashSet};
use up_engine::{ColumnType, Schema, Value};
use up_num::{DecimalType, UpDecimal};
use up_server::UpServer;
use up_workloads::{datagen, tpch};

/// A workload the benchmark can drive.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Warm analytic mix: TPC-H Q1 plus grouped aggregates over wide
    /// decimals. Simulated kernel execution dominates.
    AnalyticWarm,
    /// Tiny queries on a 64-row table. Per-query fixed cost dominates.
    ShortPoint,
    /// A fresh decimal literal in every query, so every query is a JIT
    /// cache miss.
    AdhocCold,
}

impl Workload {
    /// Every workload, in the order the benchmark lists them.
    pub const ALL: [Workload; 3] = [
        Workload::AnalyticWarm,
        Workload::ShortPoint,
        Workload::AdhocCold,
    ];

    /// The name used on the command line and in results.
    pub fn name(self) -> &'static str {
        match self {
            Workload::AnalyticWarm => "analytic_warm",
            Workload::ShortPoint => "short_point",
            Workload::AdhocCold => "adhoc_cold",
        }
    }

    /// Parses a workload name.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Whether every kernel is compiled and promoted before timing.
    pub fn warm(self) -> bool {
        self != Workload::AdhocCold
    }

    /// Queries of the stream's prefix that the serial in-process pass
    /// prices with the cost model. The timed window starts after them.
    pub fn modeled_prefix(self) -> usize {
        match self {
            Workload::AnalyticWarm => 44,
            Workload::ShortPoint => 256,
            Workload::AdhocCold => 128,
        }
    }

    /// Queries the serial layer-by-layer pass of a traced run replays.
    pub fn layer_pass_len(self) -> usize {
        match self {
            Workload::AnalyticWarm => 96,
            Workload::ShortPoint => 512,
            Workload::AdhocCold => 256,
        }
    }
}

/// One distinct query of a workload.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Query {
    /// The SQL text the server receives.
    pub sql: String,
    /// The table the query scans.
    pub table: &'static str,
    /// Whether the query divides (division scale rules differ between
    /// profiles, so these skip the PostgreSQL-like cross-check).
    pub divides: bool,
    /// Rows the query's kernels run over when a filter narrows the
    /// table; `None` when they see every row.
    pub rows: Option<usize>,
}

/// A workload's queries: each distinct query once, plus the seeded
/// order in which clients send them (indices into `queries`). Clients
/// cycle through `stream`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct QuerySet {
    /// Distinct queries.
    pub queries: Vec<Query>,
    /// The send order.
    pub stream: Vec<u32>,
}

impl QuerySet {
    fn intern(&mut self, seen: &mut HashMap<String, u32>, q: Query) {
        let next = self.queries.len() as u32;
        let id = *seen.entry(q.sql.clone()).or_insert(next);
        if id == next {
            self.queries.push(q);
        }
        self.stream.push(id);
    }

    /// The query at stream position `pos` (wrapping).
    pub fn at(&self, pos: usize) -> u32 {
        self.stream[pos % self.stream.len()]
    }
}

/// SplitMix64: a tiny seeded generator for query streams and keys.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`.
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x5DEE_CE66_D1CE_4E5B)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Uniform in `lo..=hi`.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.below(hi - lo + 1)
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, self.below(i as u64 + 1) as usize);
        }
    }
}

const TPCH_LINEITEM_ROWS: usize = 6000;
const D30_ROWS: usize = 8192;
const D76_ROWS: usize = 2048;
const GROUPS: i64 = 8;
const POINT_ROWS: i64 = 64;
/// A multiple of three (see the `adhoc_cold` generator).
const ADHOC_DISTINCT: usize = 4098;
/// Small on purpose: on a big table kernel execution hides the JIT.
const ADHOC_ROWS: usize = 96;

/// Stream length of the warm workloads (clients wrap around it).
const WARM_STREAM_LEN: usize = 4096;

fn dec(p: u32, s: u32) -> DecimalType {
    DecimalType::new(p, s).expect("valid decimal type")
}

/// `n` rows of an `Int64` key `key(i)` followed by `ncols` random
/// decimals of type `ty` with `headroom` digits left unused.
fn keyed_rows(
    n: usize,
    ty: DecimalType,
    headroom: u32,
    ncols: usize,
    seed: u64,
    mut key: impl FnMut(usize) -> i64,
) -> Vec<Vec<Value>> {
    let cols: Vec<Vec<UpDecimal>> = (0..ncols)
        .map(|c| datagen::random_decimal_column(n, ty, headroom, true, seed.wrapping_add(c as u64)))
        .collect();
    (0..n)
        .map(|i| {
            let mut row = vec![Value::Int64(key(i))];
            row.extend(cols.iter().map(|c| Value::Decimal(c[i].clone())));
            row
        })
        .collect()
}

fn keyed_schema(key: &str, ty: DecimalType, names: &[&str]) -> Schema {
    let mut cols = vec![(key, ColumnType::Int64)];
    cols.extend(names.iter().map(|n| (*n, ColumnType::Decimal(ty))));
    Schema::new(cols)
}

/// Creates and fills the workload's tables on `up`.
pub fn load(up: &UpServer, w: Workload, seed: u64) {
    let mut rng = Rng::new(seed);
    match w {
        Workload::AnalyticWarm => {
            let cfg = tpch::TpchConfig {
                lineitem_rows: TPCH_LINEITEM_ROWS,
                seed,
                extended_precision: None,
            };
            up.write(|db| tpch::load(db, cfg));
            for (name, ty, rows) in [
                ("d30", dec(30, 4), D30_ROWS),
                ("d76", dec(76, 10), D76_ROWS),
            ] {
                up.create_table(name, keyed_schema("g", ty, &["a", "b", "c"]));
                let data = keyed_rows(rows, ty, 4, 3, rng.next_u64(), |_| {
                    rng.below(GROUPS as u64) as i64
                });
                up.insert_many(name, data)
                    .expect("rows fit their declared types");
            }
        }
        Workload::ShortPoint => {
            let ty = dec(18, 2);
            up.create_table("pt", keyed_schema("id", ty, &["v", "w"]));
            let data = keyed_rows(POINT_ROWS as usize, ty, 4, 2, rng.next_u64(), |i| i as i64);
            up.insert_many("pt", data)
                .expect("rows fit their declared types");
        }
        Workload::AdhocCold => {
            let ty = dec(24, 6);
            up.create_table("ct", keyed_schema("id", ty, &["a", "b"]));
            let data = keyed_rows(ADHOC_ROWS, ty, 6, 2, rng.next_u64(), |i| i as i64);
            up.insert_many("ct", data)
                .expect("rows fit their declared types");
        }
    }
}

/// The tables a workload's queries read (what a mirror catalog copies).
pub fn tables(w: Workload) -> &'static [&'static str] {
    match w {
        Workload::AnalyticWarm => &["lineitem", "d30", "d76"],
        Workload::ShortPoint => &["pt"],
        Workload::AdhocCold => &["ct"],
    }
}

/// The seeded query set of `w`.
pub fn queries(w: Workload, seed: u64) -> QuerySet {
    let mut rng = Rng::new(seed.rotate_left(17) ^ 0x0051_EED5);
    let mut set = QuerySet {
        queries: Vec::new(),
        stream: Vec::new(),
    };
    let mut seen = HashMap::new();
    match w {
        Workload::AnalyticWarm => {
            // Blocks of 22 with an exact mix: 5 × Q1, each aggregate shape
            // three times on DECIMAL(30,4) and twice on DECIMAL(76,10),
            // and 2 × division. The seed orders each block.
            while set.stream.len() < WARM_STREAM_LEN {
                let mut block: Vec<(u8, u64)> = vec![(0, 0); 5];
                block.extend((0..9).map(|i| (1, i % 3)));
                block.extend((0..6).map(|i| (2, i % 3)));
                block.extend([(3, 0); 2]);
                rng.shuffle(&mut block);
                for (kind, shape) in block {
                    let q = match kind {
                        0 => Query {
                            sql: tpch::q1_sql().to_string(),
                            table: "lineitem",
                            divides: false,
                            rows: None,
                        },
                        1 => grouped_shape("d30", shape),
                        2 => grouped_shape("d76", shape),
                        _ => Query {
                            sql: "SELECT g, SUM(a / b) AS q FROM d30 GROUP BY g ORDER BY g".into(),
                            table: "d30",
                            divides: true,
                            rows: None,
                        },
                    };
                    set.intern(&mut seen, q);
                }
            }
        }
        Workload::ShortPoint => {
            // Blocks of 8: 2 × COUNT(*), 3 point lookups, 1 small SUM,
            // 2 projections of 1–8 rows.
            while set.stream.len() < WARM_STREAM_LEN {
                let mut block: Vec<u8> = vec![0, 0, 1, 1, 1, 2, 3, 3];
                rng.shuffle(&mut block);
                for kind in block {
                    let (sql, rows) = match kind {
                        0 => ("SELECT COUNT(*) AS n FROM pt".to_string(), None),
                        1 => (
                            format!(
                                "SELECT id, v FROM pt WHERE id = {}",
                                rng.below(POINT_ROWS as u64)
                            ),
                            Some(1),
                        ),
                        2 => ("SELECT SUM(v + w) AS s FROM pt".to_string(), None),
                        _ => {
                            let len = rng.range(1, 8) as i64;
                            let lo = rng.below((POINT_ROWS - len + 1) as u64) as i64;
                            let sql = format!(
                                "SELECT id, v * w AS p FROM pt WHERE id >= {lo} AND id < {} ORDER BY id",
                                lo + len
                            );
                            (sql, Some(len as usize))
                        }
                    };
                    set.intern(
                        &mut seen,
                        Query {
                            sql,
                            table: "pt",
                            divides: false,
                            rows,
                        },
                    );
                }
            }
        }
        Workload::AdhocCold => {
            // Every query carries a literal no other query has; clients
            // cycle through 4098 of them, 16× the kernel cache. Each run
            // of three consecutive queries shares one shape, so a traced
            // run can send each layer its own cold query of that shape.
            let mut literals = HashSet::new();
            let mut shape = 0;
            while set.queries.len() < ADHOC_DISTINCT {
                let lit = literal(&mut rng);
                if !literals.insert(lit.clone()) {
                    continue;
                }
                if set.queries.len().is_multiple_of(3) {
                    shape = rng.below(3);
                }
                let sql = match shape {
                    0 => format!("SELECT SUM(a * {lit}) AS s FROM ct"),
                    1 => format!("SELECT MAX(a + {lit}) AS m FROM ct"),
                    _ => format!("SELECT SUM(a * {lit} + b) AS s FROM ct"),
                };
                set.intern(
                    &mut seen,
                    Query {
                        sql,
                        table: "ct",
                        divides: false,
                        rows: None,
                    },
                );
            }
        }
    }
    set
}

fn grouped_shape(table: &'static str, shape: u64) -> Query {
    let agg = match shape {
        0 => "SUM(a * b + c) AS s",
        1 => "AVG(a * c + b) AS m",
        _ => "MAX(b * c + a) AS x",
    };
    Query {
        sql: format!("SELECT g, {agg} FROM {table} GROUP BY g ORDER BY g"),
        table,
        divides: false,
        rows: None,
    }
}

/// A decimal literal of 4–12 significant digits and scale 0–8, never
/// a power of ten (the JIT folds `x * 1` and `x + 0` away).
fn literal(rng: &mut Rng) -> String {
    loop {
        let digits = rng.range(4, 12) as usize;
        let scale = rng.range(0, digits.min(8) as u64) as usize;
        let mut d: Vec<u8> = (0..digits).map(|_| b'0' + rng.below(10) as u8).collect();
        d[0] = b'1' + rng.below(9) as u8;
        if d[0] == b'1' && d[1..].iter().all(|&c| c == b'0') {
            continue;
        }
        let s = String::from_utf8(d).expect("ascii digits");
        let int_len = digits - scale;
        return match (int_len, scale) {
            (_, 0) => s,
            (0, _) => format!("0.{s}"),
            _ => format!("{}.{}", &s[..int_len], &s[int_len..]),
        };
    }
}
