//! `bench_diff`: the statistical gate between two versions of a campaign
//! report, for a change of the stimulus contract
//! ([`elastic_core::verify::STIMULUS_CONTRACT`]) that moves every draw.
//!
//! It matches the `points` of an old and a new report by label and, for
//! each mean, prints the delta and `z = Δ / √(se_old² + se_new²)` with
//! `se = ci95 / 1.96`. A change passes when both reports hold the same
//! points, no point with zero spread on both sides moved, and every
//! `|z|` stays within the Bonferroni bound `Φ⁻¹(1 − 0.025/M)` over the `M`
//! compared points: at most a 5% chance, over all points together, that
//! an unchanged distribution fails it.

use elastic_lint::json::Json;

/// One point's means in both reports.
#[derive(Debug, Clone, PartialEq)]
struct PointDiff {
    /// The report pair the point came from, as `OLD -> NEW`.
    pair: String,
    /// The point's label.
    point: String,
    /// Mean in the old report.
    old: f64,
    /// Mean in the new report.
    new: f64,
    /// `new − old` over the combined standard error; 0 when both sides
    /// have zero spread and the means agree, and `None` when they have
    /// zero spread and differ.
    z: Option<f64>,
}

/// Everything [`compare`] found.
#[derive(Debug, Clone, Default)]
struct Diff {
    /// Every point in both reports of a pair.
    points: Vec<PointDiff>,
    /// Labels in only one report of a pair, as `pair: label (side)`.
    unmatched: Vec<String>,
}

impl Diff {
    /// The Bonferroni bound on `|z|` over the compared points.
    fn bound(&self) -> f64 {
        -normal_quantile(0.025 / self.points.len().max(1) as f64)
    }

    /// Whether the new reports pass the gate.
    fn passes(&self) -> bool {
        let bound = self.bound();
        self.unmatched.is_empty()
            && self
                .points
                .iter()
                .all(|p| p.z.is_some_and(|z| z.abs() <= bound))
    }

    /// The table `bench_diff` prints: one row per point, then the verdict.
    fn table(&self) -> String {
        let bound = self.bound();
        let mut out = String::from("| pair | point | old mean | new mean | delta | z |\n");
        out.push_str("|---|---|---:|---:|---:|---:|\n");
        for p in &self.points {
            let z = match p.z {
                Some(z) if z.abs() > bound => format!("**{z:+.2}**"),
                Some(z) => format!("{z:+.2}"),
                None => "moved, zero spread".into(),
            };
            out.push_str(&format!(
                "| {} | {} | {:.6} | {:.6} | {:+.6} | {z} |\n",
                p.pair,
                p.point,
                p.old,
                p.new,
                p.new - p.old
            ));
        }
        for u in &self.unmatched {
            out.push_str(&format!("unmatched point: {u}\n"));
        }
        let worst = self
            .points
            .iter()
            .filter_map(|p| p.z)
            .fold(0.0f64, |m, z| m.max(z.abs()));
        out.push_str(&format!(
            "{} points, Bonferroni bound |z| <= {bound:.3}, largest |z| {worst:.3}: {}\n",
            self.points.len(),
            if self.passes() { "pass" } else { "FAIL" }
        ));
        out
    }
}

/// The standard normal quantile `Φ⁻¹(p)` for `p` in `(0, 1)`, by
/// Acklam's rational approximation (relative error below 1.2·10⁻⁹).
fn normal_quantile(p: f64) -> f64 {
    const A: [f64; 6] = [
        -3.969_683_028_665_376e1,
        2.209_460_984_245_205e2,
        -2.759_285_104_469_687e2,
        1.383_577_518_672_69e2,
        -3.066_479_806_614_716e1,
        2.506_628_277_459_239,
    ];
    const B: [f64; 5] = [
        -5.447_609_879_822_406e1,
        1.615_858_368_580_409e2,
        -1.556_989_798_598_866e2,
        6.680_131_188_771_972e1,
        -1.328_068_155_288_572e1,
    ];
    const C: [f64; 6] = [
        -7.784_894_002_430_293e-3,
        -3.223_964_580_411_365e-1,
        -2.400_758_277_161_838,
        -2.549_732_539_343_734,
        4.374_664_141_464_968,
        2.938_163_982_698_783,
    ];
    const D: [f64; 4] = [
        7.784_695_709_041_462e-3,
        3.224_671_290_700_398e-1,
        2.445_134_137_142_996,
        3.754_408_661_907_416,
    ];
    let poly = |c: &[f64], x: f64| c.iter().fold(0.0, |acc, &k| acc * x + k);
    // The tails share one rational function of `√(−2 ln q)`.
    let tail = |q: f64| {
        let r = (-2.0 * q.ln()).sqrt();
        poly(&C, r) / (poly(&D, r) * r + 1.0)
    };
    const LOW: f64 = 0.02425;
    if p < LOW {
        tail(p)
    } else if p > 1.0 - LOW {
        -tail(1.0 - p)
    } else {
        let q = p - 0.5;
        let r = q * q;
        poly(&A, r) * q / (poly(&B, r) * r + 1.0)
    }
}

/// A report's points as `(label, mean, ci95)`.
///
/// # Errors
///
/// A message when the report has no `points` array or a point lacks a
/// string `point`, a numeric `mean` or a numeric `ci95`.
fn points(report: &Json) -> Result<Vec<(String, f64, f64)>, String> {
    let Some(Json::Array(points)) = report.get("points") else {
        return Err("no \"points\" array".into());
    };
    points
        .iter()
        .enumerate()
        .map(|(i, p)| {
            let label = match p.get("point") {
                Some(Json::Str(s)) => s.clone(),
                _ => return Err(format!("point {i} has no \"point\" label")),
            };
            let num = |key| {
                p.get(key)
                    .and_then(Json::as_f64)
                    .ok_or_else(|| format!("point {label:?} has no numeric {key:?}"))
            };
            Ok((label.clone(), num("mean")?, num("ci95")?))
        })
        .collect()
}

/// Matches the points of each `(name, old, new)` report pair by label.
///
/// # Errors
///
/// A message naming the pair whose report is not a campaign report.
fn compare(pairs: &[(String, Json, Json)]) -> Result<Diff, String> {
    let mut diff = Diff::default();
    for (pair, old, new) in pairs {
        let (old, new) = (
            points(old).map_err(|e| format!("{pair}: old report: {e}"))?,
            points(new).map_err(|e| format!("{pair}: new report: {e}"))?,
        );
        for (side, from, to) in [("old only", &old, &new), ("new only", &new, &old)] {
            for (label, ..) in from {
                if !to.iter().any(|(l, ..)| l == label) {
                    diff.unmatched.push(format!("{pair}: {label} ({side})"));
                }
            }
        }
        for (label, m_old, ci_old) in &old {
            let Some(&(_, m_new, ci_new)) = new.iter().find(|(l, ..)| l == label) else {
                continue;
            };
            let se = ((ci_old / 1.96).powi(2) + (ci_new / 1.96).powi(2)).sqrt();
            let delta = m_new - m_old;
            let z = if se > 0.0 {
                Some(delta / se)
            } else {
                (delta == 0.0).then_some(0.0)
            };
            diff.points.push(PointDiff {
                pair: pair.clone(),
                point: label.clone(),
                old: *m_old,
                new: m_new,
                z,
            });
        }
    }
    Ok(diff)
}

/// `bench_diff OLD.json NEW.json [OLD.json NEW.json]...`: reads each
/// pair, prints the table and returns the exit status, 0 when the new
/// reports pass the gate, 1 when they fail it and 2 on a usage error
/// (an odd or empty argument list, an unreadable or malformed report).
pub fn run(args: &[String]) -> (i32, String) {
    const USAGE: &str = "usage: bench_diff OLD.json NEW.json [OLD.json NEW.json]...";
    if args.is_empty() || args.len() % 2 == 1 {
        return (2, format!("{USAGE}\n"));
    }
    let read = |path: &String| {
        std::fs::read_to_string(path)
            .map_err(|e| format!("{path}: {e}"))
            .and_then(|text| Json::parse(&text).map_err(|e| format!("{path}: {e}")))
    };
    let mut pairs = Vec::new();
    for pair in args.chunks_exact(2) {
        match (read(&pair[0]), read(&pair[1])) {
            (Ok(old), Ok(new)) => pairs.push((format!("{} -> {}", pair[0], pair[1]), old, new)),
            (Err(e), _) | (_, Err(e)) => return (2, format!("error: {e}\n")),
        }
    }
    match compare(&pairs) {
        Ok(diff) => (i32::from(!diff.passes()), diff.table()),
        Err(e) => (2, format!("error: {e}\n")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A campaign report of `(label, mean, ci95)` points.
    fn report(points: &[(&str, f64, f64)]) -> Json {
        Json::object([
            ("campaign", "synthetic".into()),
            (
                "points",
                Json::array(points.iter().map(|&(p, mean, ci95)| {
                    Json::object([
                        ("point", p.into()),
                        ("mean", mean.into()),
                        ("ci95", ci95.into()),
                    ])
                })),
            ),
        ])
    }

    /// Writes each report to a file in a fresh directory and runs
    /// `bench_diff` over them in order.
    fn run_on(tag: &str, reports: &[Json]) -> (i32, String) {
        let dir = std::env::temp_dir().join(format!("bench-diff-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let args: Vec<String> = reports
            .iter()
            .enumerate()
            .map(|(i, r)| {
                let path = dir.join(format!("{i}.json"));
                std::fs::write(&path, r.to_string()).unwrap();
                path.to_str().unwrap().to_string()
            })
            .collect();
        let out = run(&args);
        std::fs::remove_dir_all(&dir).unwrap();
        out
    }

    #[test]
    fn quantile_matches_known_values() {
        for (p, z) in [
            (0.5, 0.0),
            (0.975, 1.959_964),
            (0.025, -1.959_964),
            (1e-4, -3.719_016),
        ] {
            assert!((normal_quantile(p) - z).abs() < 1e-5, "p {p}");
        }
        // 126 points: the Bonferroni bound is about 3.54.
        let diff = Diff {
            points: vec![
                PointDiff {
                    pair: String::new(),
                    point: String::new(),
                    old: 0.0,
                    new: 0.0,
                    z: Some(0.0),
                };
                126
            ],
            unmatched: Vec::new(),
        };
        assert!((diff.bound() - 3.542).abs() < 1e-3, "{}", diff.bound());
    }

    #[test]
    fn passes_within_the_bound_and_with_equal_zero_spread_points() {
        // Two points moved by well under the bound; a zero-spread point
        // kept its mean; the same points in another order.
        let old = report(&[("a", 0.5, 0.01), ("b", 0.3, 0.01), ("fixed", 0.75, 0.0)]);
        let new = report(&[("fixed", 0.75, 0.0), ("b", 0.301, 0.01), ("a", 0.49, 0.01)]);
        let (code, table) = run_on("pass", &[old.clone(), new.clone(), new, old]);
        assert_eq!(code, 0, "{table}");
        assert!(
            table.contains("6 points") && table.ends_with("pass\n"),
            "{table}"
        );
        // a: Δ = −0.01 over √2 · 0.01/1.96.
        assert!(
            table.contains("| a | 0.500000 | 0.490000 | -0.010000 | -1.39 |"),
            "{table}"
        );
    }

    #[test]
    fn fails_on_a_z_past_the_bound() {
        let old = report(&[("a", 0.5, 0.01), ("b", 0.3, 0.01)]);
        let new = report(&[("a", 0.5, 0.01), ("b", 0.33, 0.01)]);
        let (code, table) = run_on("z", &[old, new]);
        assert_eq!(code, 1, "{table}");
        assert!(
            table.contains("**+4.16**") && table.ends_with("FAIL\n"),
            "{table}"
        );
    }

    #[test]
    fn fails_when_a_zero_spread_point_moves() {
        let old = report(&[("fixed", 0.75, 0.0)]);
        let new = report(&[("fixed", 0.7501, 0.0)]);
        let (code, table) = run_on("fixed", &[old, new]);
        assert_eq!(code, 1, "{table}");
        assert!(table.contains("moved, zero spread"), "{table}");
    }

    #[test]
    fn fails_when_the_point_sets_differ() {
        let old = report(&[("a", 0.5, 0.01), ("b", 0.3, 0.01)]);
        let new = report(&[("a", 0.5, 0.01), ("c", 0.3, 0.01)]);
        let (code, table) = run_on("sets", &[old, new]);
        assert_eq!(code, 1, "{table}");
        assert!(
            table.contains("b (old only)") && table.contains("c (new only)"),
            "{table}"
        );
    }

    #[test]
    fn usage_errors_exit_2() {
        let ok = report(&[("a", 0.5, 0.01)]);
        assert_eq!(run(&[]).0, 2);
        assert_eq!(run_on("odd", std::slice::from_ref(&ok)).0, 2);
        assert_eq!(
            run(&["/nonexistent/a.json".into(), "/nonexistent/b.json".into()]).0,
            2
        );
        // Not JSON, and JSON that is not a campaign report.
        let (code, out) = run_on(
            "shape",
            &[ok.clone(), Json::object([("points", 3u64.into())])],
        );
        assert_eq!(code, 2, "{out}");
        let dir = std::env::temp_dir().join(format!("bench-diff-text-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let bad = dir.join("bad.json");
        std::fs::write(&bad, "{\"points\": [").unwrap();
        let bad = bad.to_str().unwrap().to_string();
        assert_eq!(run(&[bad.clone(), bad]).0, 2);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
