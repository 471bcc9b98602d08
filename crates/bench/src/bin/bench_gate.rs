//! `bench_gate` — the perf-regression comparator behind the `perf-gate` CI job.
//!
//! Two modes, chosen by the number of snapshot arguments:
//!
//! * **Self-gate** (`bench_gate SNAP.json`): inside one `BENCH_<rev>.json` snapshot,
//!   every bench id of the form `<group>/<N>` (integer worker-count suffix) is
//!   compared against its `<group>/serial` sibling.  If any parallel variant's median
//!   exceeds the serial baseline by more than the tolerance, the gate fails — this is
//!   the machine-checkable form of "parallelism never loses".  Groups without a
//!   `serial` sibling are skipped (a numeric suffix may be a size, not a worker
//!   count).
//! * **Compare** (`bench_gate OLD.json NEW.json`): a per-target delta table across two
//!   snapshots (every id present in both).  Informational by default; `--check` makes
//!   regressions beyond the tolerance fatal, for gating one revision against another.
//!
//! Options: `--tolerance 0.10` (fractional headroom, default 10%), `--check`.
//!
//! Snapshots are the `scripts/bench_json.sh` format: a JSON document whose `results`
//! array holds one `{"id": ..., "median_ns": ...}` object per benchmark, read with the
//! workspace's one JSON reader, [`mp_bench::json`].

use std::collections::BTreeMap;
use std::process::ExitCode;

use mp_bench::json::{self, Json};

// ---------------------------------------------------------------------------
// Snapshots and gating.
// ---------------------------------------------------------------------------

/// One `BENCH_<rev>.json` snapshot: id → median ns, in file order for printing.
struct Snapshot {
    rev: String,
    medians: Vec<(String, f64)>,
}

fn parse_snapshot(text: &str) -> Result<Snapshot, String> {
    let doc = json::parse(text)?;
    let rev = doc.get("rev").and_then(Json::as_str).unwrap_or("unknown").to_owned();
    let results = match doc.get("results") {
        Some(Json::Arr(items)) => items,
        _ => return Err("snapshot has no 'results' array".to_owned()),
    };
    let mut medians = Vec::new();
    for entry in results {
        let id = entry
            .get("id")
            .and_then(Json::as_str)
            .ok_or_else(|| "result entry without 'id'".to_owned())?;
        let median = entry
            .get("median_ns")
            .and_then(Json::as_f64)
            .ok_or_else(|| format!("result '{id}' without 'median_ns'"))?;
        medians.push((id.to_owned(), median));
    }
    Ok(Snapshot { rev, medians })
}

fn human_ns(ns: f64) -> String {
    if ns >= 1e9 {
        format!("{:.2} s", ns / 1e9)
    } else if ns >= 1e6 {
        format!("{:.2} ms", ns / 1e6)
    } else if ns >= 1e3 {
        format!("{:.2} µs", ns / 1e3)
    } else {
        format!("{ns:.0} ns")
    }
}

/// Splits `group/variant` ids into `(group, variant)` at the last slash.
fn split_id(id: &str) -> Option<(&str, &str)> {
    id.rsplit_once('/')
}

/// One self-gate comparison row: a parallel variant against its serial baseline.
struct GateRow {
    id: String,
    median: f64,
    serial: f64,
}

impl GateRow {
    fn ratio(&self) -> f64 {
        if self.serial > 0.0 {
            self.median / self.serial
        } else {
            f64::INFINITY
        }
    }
}

/// The self-gate pairing: every `<group>/<integer>` entry whose `<group>/serial`
/// sibling exists in the snapshot, in file order.
fn self_gate_rows(snapshot: &Snapshot) -> Vec<GateRow> {
    let serials: BTreeMap<&str, f64> = snapshot
        .medians
        .iter()
        .filter_map(|(id, median)| match split_id(id) {
            Some((group, "serial")) => Some((group, *median)),
            _ => None,
        })
        .collect();
    snapshot
        .medians
        .iter()
        .filter_map(|(id, median)| {
            let (group, variant) = split_id(id)?;
            variant.parse::<u64>().ok()?;
            let serial = *serials.get(group)?;
            Some(GateRow { id: id.clone(), median: *median, serial })
        })
        .collect()
}

/// Runs the self-gate: prints the ratio table, returns the violating ids.
fn self_gate(snapshot: &Snapshot, tolerance: f64) -> Vec<String> {
    let rows = self_gate_rows(snapshot);
    let limit = 1.0 + tolerance;
    println!(
        "bench_gate self: rev {} — {} parallel variants, tolerance {:.0}%",
        snapshot.rev,
        rows.len(),
        tolerance * 100.0
    );
    println!("  {:<44} {:>12} {:>12} {:>8}", "target", "median", "serial", "ratio");
    let mut violations = Vec::new();
    for row in &rows {
        let ratio = row.ratio();
        let verdict = if ratio <= limit { "ok" } else { "FAIL" };
        println!(
            "  {:<44} {:>12} {:>12} {:>7.2}x {}",
            row.id,
            human_ns(row.median),
            human_ns(row.serial),
            ratio,
            verdict
        );
        if ratio > limit {
            violations.push(row.id.clone());
        }
    }
    if rows.is_empty() {
        println!("  (no <group>/serial + <group>/<N> pairs found — nothing to gate)");
    }
    violations
}

/// What [`compare`] found: the regressed ids, and the baseline ids that vanished from
/// the new snapshot (a renamed or deleted bench group — silently dropping those would
/// let a regression hide by renaming its target).
#[derive(Debug, Default, PartialEq)]
struct CompareOutcome {
    regressions: Vec<String>,
    missing: Vec<String>,
}

/// Prints the per-target delta table of two snapshots.  Baseline targets absent from
/// the new snapshot appear as explicit `MISSING` rows (and fail `--check`); targets
/// only in the new snapshot are informational `new` rows.
fn compare(old: &Snapshot, new: &Snapshot, tolerance: f64) -> CompareOutcome {
    let old_by_id: BTreeMap<&str, f64> =
        old.medians.iter().map(|(id, m)| (id.as_str(), *m)).collect();
    let new_ids: BTreeMap<&str, ()> = new.medians.iter().map(|(id, _)| (id.as_str(), ())).collect();
    let limit = 1.0 + tolerance;
    println!(
        "bench_gate compare: {} -> {} (tolerance {:.0}%)",
        old.rev,
        new.rev,
        tolerance * 100.0
    );
    println!("  {:<44} {:>12} {:>12} {:>8}", "target", old.rev, new.rev, "delta");
    let mut outcome = CompareOutcome::default();
    let mut matched = 0usize;
    for (id, new_median) in &new.medians {
        let Some(old_median) = old_by_id.get(id.as_str()) else {
            println!("  {:<44} {:>12} {:>12} {:>8} new", id, "—", human_ns(*new_median), "");
            continue;
        };
        matched += 1;
        let ratio = if *old_median > 0.0 { new_median / old_median } else { f64::INFINITY };
        let marker = if ratio > limit {
            outcome.regressions.push(id.clone());
            "REGRESSED"
        } else if ratio < 1.0 / limit {
            "improved"
        } else {
            ""
        };
        println!(
            "  {:<44} {:>12} {:>12} {:>7.2}x {}",
            id,
            human_ns(*old_median),
            human_ns(*new_median),
            ratio,
            marker
        );
    }
    // Baseline rows the new snapshot no longer has, in baseline order.
    for (id, old_median) in &old.medians {
        if !new_ids.contains_key(id.as_str()) {
            println!("  {:<44} {:>12} {:>12} {:>8} MISSING", id, human_ns(*old_median), "—", "");
            outcome.missing.push(id.clone());
        }
    }
    let only_new = new.medians.len() - matched;
    let only_old = outcome.missing.len();
    if only_new + only_old > 0 {
        println!("  ({matched} targets matched; {only_new} only in new, {only_old} only in old)");
    }
    outcome
}

fn usage() -> String {
    "usage: bench_gate [--tolerance FRACTION] [--check] SNAP.json [NEW.json]\n\
     \n\
     One snapshot: self-gate every <group>/<N> median against <group>/serial.\n\
     Two snapshots: per-target delta table (gated only with --check)."
        .to_owned()
}

fn run(args: &[String]) -> Result<bool, String> {
    let mut tolerance = 0.10f64;
    let mut check = false;
    let mut files: Vec<&String> = Vec::new();
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--tolerance" | "-t" => {
                tolerance = iter
                    .next()
                    .and_then(|v| v.parse::<f64>().ok())
                    .filter(|t| (0.0..10.0).contains(t))
                    .ok_or("--tolerance requires a fraction like 0.10")?;
            }
            "--check" => check = true,
            "--help" | "-h" => return Err(usage()),
            _ => files.push(arg),
        }
    }
    let read = |path: &str| -> Result<Snapshot, String> {
        let text =
            std::fs::read_to_string(path).map_err(|error| format!("reading {path}: {error}"))?;
        parse_snapshot(&text).map_err(|error| format!("parsing {path}: {error}"))
    };
    match files.as_slice() {
        [snap] => {
            let snapshot = read(snap)?;
            let violations = self_gate(&snapshot, tolerance);
            if violations.is_empty() {
                println!("PASS: no parallel variant loses to its serial baseline");
                Ok(true)
            } else {
                println!("FAIL: {} parallel variant(s) lose to serial:", violations.len());
                for id in &violations {
                    println!("  {id}");
                }
                Ok(false)
            }
        }
        [old, new] => {
            let outcome = compare(&read(old)?, &read(new)?, tolerance);
            if !check {
                Ok(true)
            } else if outcome.regressions.is_empty() && outcome.missing.is_empty() {
                println!("PASS: no target regressed beyond tolerance");
                Ok(true)
            } else {
                if !outcome.regressions.is_empty() {
                    println!("FAIL: {} target(s) regressed:", outcome.regressions.len());
                    for id in &outcome.regressions {
                        println!("  {id}");
                    }
                }
                if !outcome.missing.is_empty() {
                    println!(
                        "FAIL: {} baseline target(s) missing from the new snapshot (renamed or \
                         removed bench groups?):",
                        outcome.missing.len()
                    );
                    for id in &outcome.missing {
                        println!("  {id}");
                    }
                }
                Ok(false)
            }
        }
        _ => Err(usage()),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(message) => {
            eprintln!("{message}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn snapshot(entries: &[(&str, f64)]) -> Snapshot {
        Snapshot {
            rev: "test".to_owned(),
            medians: entries.iter().map(|(id, m)| ((*id).to_owned(), *m)).collect(),
        }
    }

    #[test]
    fn parses_the_bench_json_shape() {
        let text = r#"{
          "rev": "abc1234",
          "dirty": false,
          "results": [
            {"id": "runtime/par_map/mix64/serial", "median_ns": 27926.6, "per_sec": null},
            {"id": "runtime/par_map/mix64/2", "median_ns": 28000.0, "outliers": 0}
          ]
        }"#;
        let snap = parse_snapshot(text).expect("parses");
        assert_eq!(snap.rev, "abc1234");
        assert_eq!(snap.medians.len(), 2);
        assert_eq!(snap.medians[0].0, "runtime/par_map/mix64/serial");
        assert!((snap.medians[1].1 - 28000.0).abs() < 1e-9);
    }

    #[test]
    fn parse_errors_are_reported_not_panicked() {
        assert!(parse_snapshot("{").is_err());
        assert!(parse_snapshot("[]").is_err());
        assert!(parse_snapshot(r#"{"results": [{"median_ns": 1.0}]}"#).is_err());
        assert!(parse_snapshot(r#"{"results": [{"id": "x"}]}"#).is_err());
    }

    #[test]
    fn self_gate_pairs_numeric_variants_with_their_serial_baseline() {
        let snap = snapshot(&[
            ("runtime/par_map/mix64/serial", 100.0),
            ("runtime/par_map/mix64/1", 101.0),
            ("runtime/par_map/mix64/8", 250.0),
            // Numeric suffix without a serial sibling: a size sweep, not gated.
            ("synthesizer/figure2_policy/256", 1.0),
            // Non-numeric variants are never gated.
            ("dse/stressmark/cold_parallel", 9e9),
        ]);
        let rows = self_gate_rows(&snap);
        let ids: Vec<&str> = rows.iter().map(|r| r.id.as_str()).collect();
        assert_eq!(ids, ["runtime/par_map/mix64/1", "runtime/par_map/mix64/8"]);
    }

    #[test]
    fn self_gate_flags_only_ratios_beyond_tolerance() {
        let snap = snapshot(&[
            ("g/serial", 100.0),
            ("g/1", 109.9), // within 10%
            ("g/2", 110.1), // beyond 10%
        ]);
        assert_eq!(self_gate(&snap, 0.10), vec!["g/2".to_owned()]);
        assert!(self_gate(&snap, 0.20).is_empty());
    }

    #[test]
    fn compare_matches_ids_and_flags_regressions_and_missing_targets() {
        let old = snapshot(&[("a", 100.0), ("b", 100.0), ("gone", 5.0)]);
        let new = snapshot(&[("a", 105.0), ("b", 250.0), ("fresh", 7.0)]);
        let outcome = compare(&old, &new, 0.10);
        assert_eq!(outcome.regressions, vec!["b".to_owned()]);
        assert_eq!(outcome.missing, vec!["gone".to_owned()], "vanished baselines are reported");
    }

    #[test]
    fn compare_with_identical_snapshots_is_clean() {
        let snap = snapshot(&[("a", 100.0), ("b", 42.0)]);
        assert_eq!(compare(&snap, &snap, 0.10), CompareOutcome::default());
    }

    #[test]
    fn check_mode_fails_on_missing_bench_groups_without_panicking() {
        // End-to-end through `run`: a baseline whose group was renamed must make
        // `--check` fail (exit false), not pass silently and not panic.
        let dir = std::env::temp_dir().join(format!("bench-gate-missing-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("temp dir creates");
        let write = |name: &str, body: &str| {
            let path = dir.join(name);
            std::fs::write(&path, body).expect("snapshot writes");
            path.to_string_lossy().into_owned()
        };
        let old = write(
            "old.json",
            r#"{"rev":"old","results":[{"id":"g/serial","median_ns":100.0},{"id":"g/8","median_ns":90.0}]}"#,
        );
        let new = write(
            "new.json",
            r#"{"rev":"new","results":[{"id":"renamed/serial","median_ns":100.0}]}"#,
        );
        let checked = run(&[old.clone(), new.clone(), "--check".to_owned()]);
        assert_eq!(checked, Ok(false), "--check fails when baseline groups are missing");
        let informational = run(&[old, new]);
        assert_eq!(informational, Ok(true), "without --check the table is informational");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn cli_rejects_bad_usage() {
        assert!(run(&[]).is_err());
        let three: Vec<String> =
            ["a.json", "b.json", "c.json"].iter().map(|s| (*s).to_owned()).collect();
        assert!(run(&three).is_err());
        assert!(run(&["--tolerance".to_owned(), "nope".to_owned(), "a.json".to_owned()]).is_err());
    }
}
