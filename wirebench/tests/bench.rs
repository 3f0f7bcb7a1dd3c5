//! The benchmark's own checks: seeded streams are reproducible,
//! `adhoc_cold` really misses the kernel cache on every query, the CPU
//! oracle agrees with the expected rows, and a short run of each
//! workload passes the correctness gate.
//!
//! Run with `cargo test --release --manifest-path wirebench/Cargo.toml`.

use std::collections::HashSet;
use wirebench::bench::{self, Options};
use wirebench::probe::Mirror;
use wirebench::workload::{self, Workload};

#[test]
fn same_seed_gives_the_same_stream() {
    for w in Workload::ALL {
        let a = workload::queries(w, 7);
        assert_eq!(a, workload::queries(w, 7), "{}", w.name());
        assert!(
            a != workload::queries(w, 8),
            "{}: the seed matters",
            w.name()
        );
        assert!(a.stream.iter().all(|&i| (i as usize) < a.queries.len()));
    }
}

#[test]
fn warm_mixes_are_exact_per_block() {
    let set = workload::queries(Workload::AnalyticWarm, 3);
    for block in set.stream.chunks(22).filter(|b| b.len() == 22) {
        let on = |t: &str| {
            block
                .iter()
                .filter(|&&i| set.queries[i as usize].table == t)
                .count()
        };
        let divides = block
            .iter()
            .filter(|&&i| set.queries[i as usize].divides)
            .count();
        assert_eq!(
            (on("lineitem"), on("d30"), on("d76"), divides),
            (5, 11, 6, 2)
        );
    }
}

#[test]
fn adhoc_cold_has_a_distinct_kernel_signature_per_query() {
    let set = workload::queries(Workload::AdhocCold, 11);
    let svc = bench::setup(Workload::AdhocCold, 11, &set).expect("set-up");
    let mirror = Mirror::new(&svc.up, workload::tables(Workload::AdhocCold));
    let mut seen = HashSet::new();
    for q in &set.queries {
        let kernels = mirror.kernels(&svc.up, &q.sql).expect("plans");
        let sigs: Vec<String> = kernels.iter().filter_map(|e| mirror.signature(e)).collect();
        assert!(!sigs.is_empty(), "{} compiles no kernel", q.sql);
        for s in sigs {
            assert!(seen.insert(s), "{} repeats a signature", q.sql);
        }
    }
    // Far more distinct kernels than the 256-entry cache holds.
    assert!(seen.len() >= 16 * 256);
    svc.stop();
}

#[test]
fn oracle_agrees_on_a_sample() {
    for w in Workload::ALL {
        let mut set = workload::queries(w, 5);
        set.queries.truncate(40);
        set.stream.retain(|&i| i < 40);
        let svc = bench::setup(w, 5, &set).expect("set-up");
        let expected = bench::expected_rows(&svc.up, &set).expect("expected rows");
        let (checked, bad) = bench::cross_check(&svc.up, &set, &expected);
        assert!(checked > 0, "{}", w.name());
        assert!(bad.is_empty(), "{}: {bad:?}", w.name());
        svc.stop();
    }
}

#[test]
fn smoke_runs_pass_the_correctness_gate() {
    for w in Workload::ALL {
        for trace in [false, true] {
            let opts = Options {
                workload: w,
                seed: 9,
                seconds: 0.4,
                trace,
            };
            let r = bench::run(&opts).unwrap_or_else(|e| panic!("{}: {e}", w.name()));
            assert!(r.correct, "{} trace={trace}", w.name());
            assert_eq!(r.failed, 0, "{} trace={trace}", w.name());
            assert!(r.attempted > 0);
            assert!(
                r.metrics.iter().all(|m| m.value.is_finite()),
                "{}: {:?}",
                w.name(),
                r.metrics
            );
            let get = |name: &str| r.metrics.iter().find(|m| m.name == name).map(|m| m.value);
            if trace {
                let hit_rate = get("jit.hit_rate").expect("reported");
                let want = if w == Workload::AdhocCold { 0.0 } else { 1.0 };
                assert_eq!(hit_rate, want, "{}", w.name());
            } else {
                assert!(get("qps").expect("reported") > 0.0);
                assert_eq!(get("success_rate"), Some(1.0));
            }
        }
    }
}
