//! The frozen statement catalogue and the seeded schedules.
//!
//! Every class's text template lives here. Literals are read off the
//! corpus's own label distributions (a function of `--seed` only), so a
//! class selects the same number of rows — and stays in the same cost
//! regime — on every seed. The program under test receives only the
//! generated statement texts.

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use instn_core::summary::encode_objects;
use instn_core::AnnotatedTuple;
use instn_query::expr::SummaryExpr;
use instn_sql::{parse, SelectStmt, Statement};
use instn_storage::{Oid, Value};

use crate::metrics::CLASSES;

/// A read class: the unit the latency mix and `query.exec_us.<class>` are
/// stated in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    ScanEq,
    ScanRangeLike,
    ScanTopk,
    ScanJoin,
    ScanBig,
    ScanGroupby,
    SbtEq,
    SbtTopk,
    SbtRangeLike,
    Zoom,
}

impl Class {
    /// Position in [`CLASSES`].
    pub fn index(self) -> usize {
        self as usize
    }

    pub fn name(self) -> &'static str {
        CLASSES[self.index()]
    }

    /// Whether `plan` (rendered physical plan) is in the regime this class
    /// exists to exercise: `scan_*` must reach no index, `sbt_*` must probe
    /// the Summary-BTree, `scan_join` must be a nested-loop join.
    pub fn in_regime(self, plan: &str) -> bool {
        match self {
            Class::ScanJoin => plan.contains("NestedLoopJoin") && !plan.contains("IndexScan"),
            Class::ScanEq
            | Class::ScanRangeLike
            | Class::ScanTopk
            | Class::ScanBig
            | Class::ScanGroupby => plan.contains("SeqScan") && !plan.contains("IndexScan"),
            Class::SbtEq | Class::SbtTopk | Class::SbtRangeLike => {
                plan.contains("SummaryIndexScan")
            }
            Class::Zoom => true,
        }
    }
}

pub struct Stmt {
    pub class: Class,
    pub text: String,
    /// Parsed once at set-up (embedded workloads plan from the AST, the way
    /// a prepared statement does); `None` for `ZOOM IN`.
    pub select: Option<SelectStmt>,
    /// `(instance, label)` of the `ORDER BY … DESC LIMIT` key, for the
    /// classes that have one: the oracle needs it to accept any valid
    /// ordering of tied rows.
    pub order_key: Option<(String, String)>,
}

impl Stmt {
    fn new(class: Class, text: String) -> Self {
        let select = match parse(&text) {
            Ok(Statement::Select(sel)) => Some(sel),
            Ok(Statement::ZoomIn { .. }) => None,
            other => panic!("catalogue statement must be SELECT or ZOOM: {text}: {other:?}"),
        };
        Stmt {
            class,
            text,
            select,
            order_key: None,
        }
    }

    fn ordered_by(mut self, instance: &str, label: &str) -> Self {
        self.order_key = Some((instance.to_string(), label.to_string()));
        self
    }
}

/// One scheduled operation.
#[derive(Debug, Clone, Copy)]
pub struct Slot {
    pub stmt: u32,
    /// Send as `ExecutePrepared` (wire) instead of a text `Query`.
    pub prepared: bool,
}

fn label_value(instance: &str, label: &str) -> String {
    format!("r.$.getSummaryObject('{instance}').getLabelValue('{label}')")
}

/// Exact distribution of one classifier label's per-tuple count:
/// `tuples_with[c]` tuples carry exactly `c` annotations under the label,
/// `swans_with[c]` of them with a `common_name LIKE 'Swan%'`, and fetching
/// them all moves `bytes_with[c]` bytes. Literals are chosen by what they
/// make the engine fetch, so that a class does the same amount of work on
/// every seed.
pub struct LabelHistogram {
    pub label: &'static str,
    pub tuples_with: Vec<u64>,
    pub swans_with: Vec<u64>,
    pub bytes_with: Vec<u64>,
}

/// Birds column `common_name`.
const COMMON_NAME: usize = 2;
/// The fixed part of fetching one tuple through an index, in the currency
/// of [`LabelHistogram::bytes_with`]: the data tuple and the per-tuple calls
/// cost about what 512 bytes of summary objects do.
const TUPLE_BYTES: u64 = 512;

impl LabelHistogram {
    /// One histogram per label of `instance`, from the tuples themselves.
    pub fn collect(
        rows: &[AnnotatedTuple],
        instance: &str,
        labels: &[&'static str],
    ) -> Vec<LabelHistogram> {
        let count_of =
            |row: &AnnotatedTuple, label: &str| match SummaryExpr::label_value(instance, label)
                .eval(row)
            {
                Value::Int(count) => count as u64,
                other => panic!("{instance}.{label} is not a count: {other:?}"),
            };
        // What fetching a tuple costs follows the bytes of its stored summary
        // objects (one with three snippets weighs 2.5 times one with none)
        // on top of a fixed part, here counted as `TUPLE_BYTES` more.
        let bytes: Vec<u64> = rows
            .iter()
            .map(|row| TUPLE_BYTES + encode_objects(&row.summaries).len() as u64)
            .collect();
        labels
            .iter()
            .map(|&label| {
                let mut h = LabelHistogram {
                    label,
                    tuples_with: Vec::new(),
                    swans_with: Vec::new(),
                    bytes_with: Vec::new(),
                };
                for (row, bytes) in rows.iter().zip(&bytes) {
                    let count = count_of(row, label) as usize;
                    if h.tuples_with.len() <= count {
                        h.tuples_with.resize(count + 1, 0);
                        h.swans_with.resize(count + 1, 0);
                        h.bytes_with.resize(count + 1, 0);
                    }
                    h.tuples_with[count] += 1;
                    let swan =
                        matches!(&row.values[COMMON_NAME], Value::Text(n) if n.starts_with("Swan"));
                    h.swans_with[count] += u64::from(swan);
                    h.bytes_with[count] += bytes;
                }
                h
            })
            .collect()
    }

    fn max(&self) -> usize {
        self.tuples_with.len() - 1
    }

    /// Tuples with a count of at least `lo`.
    fn at_least(&self, lo: usize) -> u64 {
        self.tuples_with[lo..].iter().sum()
    }

    /// The smallest count that an eighth of the tuples, at most, reach: where
    /// the `sbt_*` literals come from. A range whose lower bound lies
    /// further down the optimizer answers with a `SeqScan` (it probes the
    /// index with the lower bound only, so such a range fetches most of the
    /// table), and the regime self-check would refuse it.
    fn upper_tail(&self) -> usize {
        (0..=self.max())
            .find(|&lo| self.at_least(lo) <= self.at_least(0) / 8)
            .unwrap_or(self.max())
    }

    /// The count that exists and whose tuples number closest to `rows`.
    fn eq_value(&self, rows: u64) -> usize {
        (0..=self.max())
            .filter(|&c| self.tuples_with[c] > 0)
            .min_by_key(|&c| self.tuples_with[c].abs_diff(rows))
            .expect("a label has at least one count")
    }

    /// The `[lo, hi]` whose tuples number closest to `rows`.
    fn range_holding(&self, rows: u64) -> (usize, usize) {
        (0..=self.max())
            .flat_map(|lo| (lo..=self.max()).map(move |hi| (lo, hi)))
            .min_by_key(|&(lo, hi)| self.tuples_with[lo..=hi].iter().sum::<u64>().abs_diff(rows))
            .expect("a label has at least one count")
    }

    /// The lower bound whose tail (`count >= lo`) is closest to `rows`.
    fn lower_bound(&self, rows: u64) -> usize {
        (0..=self.max())
            .min_by_key(|&lo| self.at_least(lo).abs_diff(rows))
            .expect("a label has at least one count")
    }
}

/// The six `scan_*` classes over `ClassBird1`, one statement per label (and
/// five id bounds for `scan_groupby`). Shared verbatim by `wire_scan` and
/// `embedded_analytic`.
pub fn scan_catalogue(hists: &[LabelHistogram], n_birds: usize) -> Vec<Stmt> {
    let share = |pct: f64| (n_birds as f64 * pct / 100.0).round() as u64;
    let mut out = Vec::new();
    for h in hists {
        let (label, lv) = (h.label, label_value("ClassBird1", h.label));
        // Fig. 10 shape: ~0.3 % selective equality on a label count.
        out.push(Stmt::new(
            Class::ScanEq,
            format!(
                "SELECT id, common_name, family FROM Birds r WHERE {lv} = {}",
                h.eq_value(share(0.3))
            ),
        ));
        // Fig. 11 shape: a ~5 % range from the top plus a second predicate.
        out.push(Stmt::new(
            Class::ScanRangeLike,
            format!(
                "SELECT id, common_name FROM Birds r WHERE {lv} >= {} AND {lv} <= {} \
                 AND common_name LIKE 'Swan%'",
                h.lower_bound(share(5.0)),
                h.max()
            ),
        ));
        out.push(
            Stmt::new(
                Class::ScanTopk,
                format!("SELECT id, common_name FROM Birds r ORDER BY {lv} DESC LIMIT 10"),
            )
            .ordered_by("ClassBird1", label),
        );
        // ~75 % of the table, every column: a payload of hundreds of KB.
        // A scan does not care where a range lies, so the range is two-sided
        // and holds the same number of tuples on every seed and label (the
        // payload is the cost; the median of both scan workloads sits here).
        let (lo, hi) = h.range_holding(share(75.0));
        out.push(Stmt::new(
            Class::ScanBig,
            format!("SELECT * FROM Birds r WHERE {lv} >= {lo} AND {lv} <= {hi}"),
        ));
        // Fig. 14 shape: Birds ⋈ Synonyms under a ~3 % summary predicate.
        // The nested loop costs what the predicate lets through (13–18 ms
        // from one label's nearest one-sided bound to another's), and p95 of
        // both scan workloads sits in this class: two-sided again.
        let (lo, hi) = h.range_holding(share(3.0));
        let blv = format!("b.$.getSummaryObject('ClassBird1').getLabelValue('{label}')");
        out.push(Stmt::new(
            Class::ScanJoin,
            format!(
                "SELECT b.id, b.common_name, s.synonym FROM Birds b, Synonyms s \
                 WHERE b.id = s.bird_id AND {blv} >= {lo} AND {blv} <= {hi}"
            ),
        ));
    }
    for j in 0..5 {
        out.push(Stmt::new(
            Class::ScanGroupby,
            format!(
                "SELECT family FROM Birds r WHERE r.id < {} GROUP BY family",
                n_birds / 10 - j
            ),
        ));
    }
    out
}

/// Non-key Birds columns, for the tail's distinct projection lists.
const PROJECTABLE: [&str; 11] = [
    "sci_name",
    "common_name",
    "genus",
    "family",
    "habitat",
    "description",
    "region",
    "wingspan_cm",
    "weight_g",
    "conservation",
    "ebird_id",
];

/// What the index makes an `sbt_eq` lookup and an `sbt_range_like` range
/// fetch (the range's `LIKE` keeps about a quarter), in average tuples'
/// worth of [`LabelHistogram::bytes_with`]. The planner probes the
/// Summary-BTree with a range's lower bound only — the upper bound is a
/// residual filter — so a range costs what lies at or above its lower bound,
/// whatever its upper one. Twelve tuples put `sbt_range_like` beside
/// `sbt_topk` in cost, so the slowest twentieth of `wire_short` is the
/// cold-plan tail of those two classes and not one range literal's luck.
const SBT_EQ_TUPLES: u64 = 6;
const SBT_RANGE_TUPLES: u64 = 12;
/// Bytes a `zoom` renders (about eight short annotations). The rendering of
/// a tuple's annotations under a label runs from a few hundred bytes to
/// 10 KB and more; left to chance, the two hot `zoom` texts — a fifth of
/// `wire_short`'s operations — cost 29 to 52 µs depending on the seed.
const ZOOM_BYTES: usize = 2_048;

/// A `ZOOM IN` target and the size of what it renders.
pub struct ZoomPick {
    pub oid: Oid,
    pub label: &'static str,
    pub bytes: usize,
}

/// `n` of the candidate literals `(bytes, literal)`, in pairs whose bytes
/// add up to twice `target`.
///
/// What a corpus offers are the steps of its label histograms' tails: near
/// a small target they lie 30–100 % apart, so the single literal closest to
/// the target costs 47–59 µs (`sbt_eq`) or 96–130 µs (`sbt_range_like`)
/// depending on the seed. Two literals that bracket the target, each within
/// a factor of three of it, hit their *sum* almost exactly on every seed —
/// and the schedule uses the literals of a class equally often, so the class
/// costs the same whatever the seed.
fn bracketing<L: Copy + Ord>(mut cands: Vec<(u64, L)>, target: u64, n: usize) -> Vec<(u64, L)> {
    cands.sort_by_key(|&(bytes, lit)| (bytes.abs_diff(target), lit));
    let near: Vec<(u64, L)> = cands
        .iter()
        .copied()
        .filter(|&(bytes, _)| (target / 3..=target * 3).contains(&bytes))
        .take(16)
        .collect();
    let mut pairs: Vec<(u64, u64, usize, usize)> = (0..near.len())
        .flat_map(|i| (i + 1..near.len()).map(move |j| (i, j)))
        .map(|(i, j)| {
            // Among the pairs within a twentieth of the sum, the most even:
            // the dearer literal of a lopsided pair is the class's — and the
            // workload's — slowest statement, and p95 would follow it.
            let (a, b) = (near[i].0, near[j].0);
            let off = (a + b).abs_diff(2 * target);
            (off.max(target / 10), a.abs_diff(b), i, j)
        })
        .collect();
    pairs.sort_unstable();
    let mut used = vec![false; near.len()];
    let mut out = Vec::with_capacity(n + 1);
    for (_, _, i, j) in pairs {
        if out.len() < n && !used[i] && !used[j] {
            (used[i], used[j]) = (true, true);
            out.extend([near[i], near[j]]);
        }
    }
    // A corpus too thin around the target: the closest singles.
    let spare: Vec<(u64, L)> = cands.into_iter().filter(|c| !out.contains(c)).collect();
    out.extend(spare);
    out.truncate(n);
    out
}

/// The `sbt_*` (and, with `zooms`, `zoom`) classes over `instance`: the
/// first [`SbtCatalogue::hot`] statements are the hot texts, `hot_per_class`
/// of each class; the rest is a tail of `tail` further *distinct normalized
/// texts* — for the `sbt_*` classes the hot literals under different
/// projection lists, for `zoom` further targets — which a 64-entry plan
/// cache can never hold.
pub struct SbtCatalogue {
    pub stmts: Vec<Stmt>,
    pub hot: usize,
}

pub fn sbt_catalogue(
    hists: &[LabelHistogram],
    mut zooms: Vec<ZoomPick>,
    instance: &str,
    hot_per_class: usize,
    tail: usize,
) -> SbtCatalogue {
    // `(bytes, (label, literal))` of every equality and of every range in a
    // label's upper tail that keeps at least one row after its `LIKE`.
    let eq = hists
        .iter()
        .flat_map(|h| (h.upper_tail()..=h.max()).map(move |v| (h.bytes_with[v], (h.label, v))))
        .filter(|&(bytes, _)| bytes > 0)
        .collect();
    let range = hists
        .iter()
        .flat_map(|h| (h.upper_tail()..=h.max()).map(move |lo| (h, lo)))
        .filter(|&(h, lo)| h.swans_with[lo..].iter().any(|&swans| swans > 0))
        .map(|(h, lo)| (h.bytes_with[lo..].iter().sum(), (h.label, lo)))
        .collect();
    // Every label's histogram covers every tuple once.
    let tuple_bytes = hists[0].bytes_with.iter().sum::<u64>() / hists[0].at_least(0);
    let eq = bracketing(eq, SBT_EQ_TUPLES * tuple_bytes, hot_per_class);
    let range = bracketing(range, SBT_RANGE_TUPLES * tuple_bytes, hot_per_class);
    zooms.sort_by_key(|z| (z.bytes.abs_diff(ZOOM_BYTES), z.oid.0, z.label));
    let zoom = !zooms.is_empty();
    let max_of = |label: &str| {
        let h = hists.iter().find(|h| h.label == label);
        h.expect("literal's label has a histogram").max()
    };

    let sbt = |class: Class, pick: usize, cols: &str| -> Stmt {
        match class {
            Class::SbtEq => {
                let (_, (label, v)) = eq[pick % eq.len()];
                let lv = label_value(instance, label);
                Stmt::new(
                    class,
                    format!("SELECT {cols} FROM Birds r WHERE {lv} = {v}"),
                )
            }
            Class::SbtTopk => {
                let label = hists[pick % hists.len()].label;
                let lv = label_value(instance, label);
                Stmt::new(
                    class,
                    format!("SELECT {cols} FROM Birds r ORDER BY {lv} DESC LIMIT 10"),
                )
                .ordered_by(instance, label)
            }
            Class::SbtRangeLike => {
                let (_, (label, lo)) = range[pick % range.len()];
                let lv = label_value(instance, label);
                Stmt::new(
                    class,
                    format!(
                        "SELECT {cols} FROM Birds r WHERE {lv} >= {lo} AND {lv} <= {} \
                         AND common_name LIKE 'Swan%'",
                        max_of(label)
                    ),
                )
            }
            other => unreachable!("{other:?} is not an sbt class"),
        }
    };
    let zoom_stmt = |pick: usize| {
        let z = &zooms[pick % zooms.len()];
        Stmt::new(
            Class::Zoom,
            format!(
                "ZOOM IN ON {instance} OF Birds TUPLE {} LABEL '{}'",
                z.oid.0, z.label
            ),
        )
    };
    let mut stmts = Vec::new();
    for pick in 0..hot_per_class {
        for class in [Class::SbtEq, Class::SbtTopk, Class::SbtRangeLike] {
            stmts.push(sbt(class, pick, "id, common_name"));
        }
        if zoom {
            stmts.push(zoom_stmt(pick));
        }
    }
    let hot = stmts.len();
    let classes: &[Class] = if zoom {
        &[
            Class::SbtEq,
            Class::SbtTopk,
            Class::SbtRangeLike,
            Class::Zoom,
        ]
    } else {
        &[Class::SbtEq, Class::SbtTopk, Class::SbtRangeLike]
    };
    // Distinct ordered column pairs × the hot literals.
    let pairs: Vec<(usize, usize)> = (0..PROJECTABLE.len())
        .flat_map(|a| (0..PROJECTABLE.len()).map(move |b| (a, b)))
        .filter(|(a, b)| a != b)
        .collect();
    for i in 0..tail {
        let class = classes[i % classes.len()];
        let variant = i / classes.len();
        if class == Class::Zoom {
            assert!(
                hot_per_class + variant < zooms.len(),
                "tail of {tail} exceeds the distinct zoom targets"
            );
            stmts.push(zoom_stmt(hot_per_class + variant));
        } else {
            assert!(
                variant / hot_per_class < pairs.len(),
                "tail of {tail} exceeds the distinct projection lists"
            );
            let (a, b) = pairs[variant / hot_per_class];
            let cols = format!("id, {}, {}", PROJECTABLE[a], PROJECTABLE[b]);
            stmts.push(sbt(class, variant % hot_per_class, &cols));
        }
    }
    SbtCatalogue { stmts, hot }
}

fn shuffle<T>(items: &mut [T], rng: &mut StdRng) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.random_range(0..=i));
    }
}

/// Round-robin cursors over groups of statement indices: each draw returns
/// the group's next member, so every statement of a group is used equally.
struct Rotor {
    members: Vec<u32>,
    next: usize,
}

impl Rotor {
    fn new(members: Vec<u32>) -> Self {
        assert!(!members.is_empty(), "schedule group has no statement");
        Rotor { members, next: 0 }
    }

    fn draw(&mut self) -> u32 {
        let m = self.members[self.next % self.members.len()];
        self.next += 1;
        m
    }
}

/// A seeded deterministic weighted round-robin: each cycle draws `weight`
/// statements from every group, in an order shuffled by `seed`.
fn weighted_round_robin(groups: Vec<(Vec<u32>, usize)>, cycles: usize, seed: u64) -> Vec<u32> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5C4E_D01E);
    let mut rotors: Vec<(Rotor, usize)> = groups
        .into_iter()
        .map(|(members, weight)| (Rotor::new(members), weight))
        .collect();
    let mut out = Vec::new();
    for _ in 0..cycles {
        let start = out.len();
        for (rotor, weight) in &mut rotors {
            for _ in 0..*weight {
                out.push(rotor.draw());
            }
        }
        shuffle(&mut out[start..], &mut rng);
    }
    out
}

fn of_class(stmts: &[Stmt], class: Class) -> Vec<u32> {
    (0..stmts.len() as u32)
        .filter(|&i| stmts[i as usize].class == class)
        .collect()
}

/// Scan mix, 10 slots a cycle. The weights are *not* equal: with the
/// classes' service times (`eq ≈ range_like < big < groupby < topk < join`)
/// equal weights would put the median exactly on the gap between two
/// classes, where it flips from run to run. These weights put the median in
/// the middle of `scan_big`'s share (40–70 %) and p95 in the middle of
/// `scan_join`'s (90–100 %).
pub fn scan_schedule(stmts: &[Stmt], seed: u64) -> Vec<Slot> {
    let groups = [
        (Class::ScanEq, 2),
        (Class::ScanRangeLike, 2),
        (Class::ScanBig, 3),
        (Class::ScanGroupby, 1),
        (Class::ScanTopk, 1),
        (Class::ScanJoin, 1),
    ]
    .map(|(class, weight)| (of_class(stmts, class), weight))
    .to_vec();
    weighted_round_robin(groups, 40, seed)
        .into_iter()
        .map(|stmt| Slot {
            stmt,
            prepared: false,
        })
        .collect()
}

/// `wire_short` mix, 40 slots a cycle: 32 from the hot texts and 8 from the
/// tail (80 % / 20 %); 64 cycles walk the whole 512-text tail once. Every
/// other use of a preparable statement goes as `ExecutePrepared`.
pub fn short_schedule(cat: &SbtCatalogue, preparable: &[bool], seed: u64) -> Vec<Slot> {
    let n = cat.stmts.len() as u32;
    let hot = cat.hot as u32;
    let tail = (n - hot) as usize;
    let groups = vec![((0..hot).collect(), 32), ((hot..n).collect(), 8)];
    let mut uses = vec![0u32; n as usize];
    weighted_round_robin(groups, tail.div_ceil(8).max(1), seed)
        .into_iter()
        .map(|stmt| {
            let i = stmt as usize;
            uses[i] += 1;
            Slot {
                stmt,
                prepared: preparable[i] && uses[i].is_multiple_of(2),
            }
        })
        .collect()
}

/// `embedded_rw` reader mix: every statement once a cycle (the three
/// `sbt_*` classes weigh the same).
pub fn rw_schedule(stmts: &[Stmt], seed: u64) -> Vec<Slot> {
    let all = (0..stmts.len() as u32).collect::<Vec<_>>();
    let weight = all.len();
    weighted_round_robin(vec![(all, weight)], 8, seed)
        .into_iter()
        .map(|stmt| Slot {
            stmt,
            prepared: false,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bracketing_pairs_hit_the_sum_and_prefer_even_pairs() {
        // An exact pair exists on both sides of the target and in the middle:
        // the even one wins.
        let cands = vec![(30, 'a'), (90, 'b'), (60, 'c'), (61, 'd'), (200, 'e')];
        assert_eq!(bracketing(cands, 60, 2), [(60, 'c'), (61, 'd')]);
        // No literal near the target: two that bracket it, then the next
        // best pair from what is left.
        let cands = vec![(40, 'a'), (85, 'b'), (25, 'c'), (100, 'd'), (500, 'e')];
        assert_eq!(
            bracketing(cands, 60, 4),
            [(40, 'a'), (85, 'b'), (25, 'c'), (100, 'd')]
        );
        // Too thin a corpus: the closest singles, never more than asked for.
        assert_eq!(bracketing(vec![(500, 'e'), (7, 'f')], 60, 2).len(), 2);
        assert_eq!(bracketing(vec![(60, 'a')], 60, 2), [(60, 'a')]);
    }
}
