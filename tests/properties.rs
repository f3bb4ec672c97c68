//! Property-based tests (proptest) over the core data structures and the
//! propagation-algebra invariants the paper's theorems rest on.

use std::collections::{BTreeMap, HashSet};

use proptest::prelude::*;

use insightnotes::annot::AnnotId;
use insightnotes::core::algebra::{
    merge_objects, merge_summary_sets, project_eliminate, SummaryAccumulator,
};
use insightnotes::core::summary::{
    decode_objects, encode_objects, ClassifierRep, ClusterGroup, ClusterRep, InstanceId, ObjId,
    Rep, SnippetEntry, SnippetRep, SummaryObject,
};
use insightnotes::index::itemize::{itemize_key, ItemizeWidth};
use insightnotes::opt::stats::LabelStats;
use insightnotes::storage::btree::BTree;
use insightnotes::storage::io::IoStats;
use insightnotes::storage::tuple::{decode_tuple, encode_tuple};
use insightnotes::storage::{HeapFile, Value};

// --------------------------------------------------------------------
// B-Tree vs a BTreeMap<Vec<u8>, Vec<u64>> model.
// --------------------------------------------------------------------

#[derive(Debug, Clone)]
enum BtOp {
    Insert(u8, u64),
    Delete(u8, u64),
    Range(u8, u8),
}

fn bt_op() -> impl Strategy<Value = BtOp> {
    prop_oneof![
        (any::<u8>(), any::<u64>()).prop_map(|(k, v)| BtOp::Insert(k % 32, v % 8)),
        (any::<u8>(), any::<u64>()).prop_map(|(k, v)| BtOp::Delete(k % 32, v % 8)),
        (any::<u8>(), any::<u8>()).prop_map(|(a, b)| BtOp::Range(a % 32, b % 32)),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn btree_matches_model(ops in prop::collection::vec(bt_op(), 1..200)) {
        let mut tree: BTree<u64> = BTree::with_order(IoStats::new(), 6);
        let mut model: BTreeMap<Vec<u8>, Vec<u64>> = BTreeMap::new();
        for op in ops {
            match op {
                BtOp::Insert(k, v) => {
                    let key = vec![k];
                    tree.insert(&key, v);
                    model.entry(key).or_default().push(v);
                }
                BtOp::Delete(k, v) => {
                    let key = vec![k];
                    let model_has = model.get(&key).map(|vs| vs.contains(&v)).unwrap_or(false);
                    let tree_result = tree.delete(&key, &v);
                    prop_assert_eq!(tree_result.is_ok(), model_has);
                    if model_has {
                        let vs = model.get_mut(&key).unwrap();
                        let pos = vs.iter().position(|x| *x == v).unwrap();
                        vs.remove(pos);
                        if vs.is_empty() {
                            model.remove(&key);
                        }
                    }
                }
                BtOp::Range(a, b) => {
                    let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
                    let mut got: Vec<(Vec<u8>, u64)> =
                        tree.range(Some(&[lo]), Some(&[hi])).collect();
                    got.sort();
                    let mut want: Vec<(Vec<u8>, u64)> = model
                        .range(vec![lo]..=vec![hi])
                        .flat_map(|(k, vs)| vs.iter().map(move |v| (k.clone(), *v)))
                        .collect();
                    want.sort();
                    prop_assert_eq!(got, want);
                }
            }
            let model_len: usize = model.values().map(Vec::len).sum();
            prop_assert_eq!(tree.len(), model_len);
        }
        // Final full scan matches, in key order.
        let got_keys: Vec<Vec<u8>> = tree.range(None, None).map(|(k, _)| k).collect();
        let mut sorted = got_keys.clone();
        sorted.sort();
        prop_assert_eq!(got_keys, sorted, "range scan is key-ordered");
    }

    // ----------------------------------------------------------------
    // Heap file: insert/get/delete with arbitrary payload sizes
    // (including multi-page chained records).
    // ----------------------------------------------------------------

    #[test]
    fn heap_roundtrips_arbitrary_sizes(sizes in prop::collection::vec(0usize..30_000, 1..12)) {
        let mut heap = HeapFile::new(IoStats::new());
        let mut stored = Vec::new();
        for (i, size) in sizes.iter().enumerate() {
            let payload = vec![(i % 251) as u8; *size];
            let rid = heap.insert(&payload).unwrap();
            stored.push((rid, payload));
        }
        for (rid, payload) in &stored {
            prop_assert_eq!(&heap.get(*rid).unwrap(), payload);
        }
        // Delete every other record; the rest must survive.
        for (i, (rid, _)) in stored.iter().enumerate() {
            if i % 2 == 0 {
                heap.delete(*rid).unwrap();
            }
        }
        for (i, (rid, payload)) in stored.iter().enumerate() {
            if i % 2 == 0 {
                prop_assert!(heap.get(*rid).is_err());
            } else {
                prop_assert_eq!(&heap.get(*rid).unwrap(), payload);
            }
        }
    }

    // ----------------------------------------------------------------
    // Tuple and summary-object codecs.
    // ----------------------------------------------------------------

    #[test]
    fn tuple_codec_roundtrips(vals in prop::collection::vec(value_strategy(), 0..12)) {
        let bytes = encode_tuple(&vals);
        prop_assert_eq!(decode_tuple(&bytes).unwrap(), vals);
    }

    #[test]
    fn summary_object_codec_roundtrips(obj in classifier_strategy()) {
        let set = vec![obj];
        let bytes = encode_objects(&set);
        prop_assert_eq!(decode_objects(&bytes).unwrap(), set);
    }

    // ----------------------------------------------------------------
    // Itemization: lexicographic order of keys == numeric order of counts.
    // ----------------------------------------------------------------

    #[test]
    fn itemize_preserves_count_order(a in 0u64..1000, b in 0u64..1000) {
        let w = ItemizeWidth::default();
        if !w.fits(a) || !w.fits(b) {
            return Ok(());
        }
        let ka = itemize_key("Label", a, w);
        let kb = itemize_key("Label", b, w);
        prop_assert_eq!(a.cmp(&b), ka.cmp(&kb));
    }

    // ----------------------------------------------------------------
    // Merge algebra: commutativity of the classifier merge (up to element
    // order), and the project-before-merge equivalence behind the paper's
    // Theorems 1–2.
    // ----------------------------------------------------------------

    #[test]
    fn classifier_merge_is_commutative_in_counts(
        a_ids in prop::collection::hash_set(0u64..40, 0..20),
        b_ids in prop::collection::hash_set(0u64..40, 0..20),
    ) {
        let a = classifier_with("L", &a_ids);
        let b = classifier_with("L", &b_ids);
        let resolver = |_: AnnotId| None;
        let ab = merge_objects(&a, &b, &resolver);
        let ba = merge_objects(&b, &a, &resolver);
        let count = |o: &SummaryObject| match &o.rep {
            Rep::Classifier(c) => c.counts.clone(),
            _ => vec![],
        };
        prop_assert_eq!(count(&ab), count(&ba));
        // And the merged count is exactly the union size.
        let union: HashSet<u64> = a_ids.union(&b_ids).copied().collect();
        prop_assert_eq!(count(&ab)[0] as usize, union.len());
    }

    #[test]
    fn eliminate_commutes_with_merge(
        a_ids in prop::collection::hash_set(0u64..30, 1..15),
        b_ids in prop::collection::hash_set(0u64..30, 1..15),
        removed in prop::collection::hash_set(0u64..30, 0..10),
    ) {
        let a = classifier_with("L", &a_ids);
        let b = classifier_with("L", &b_ids);
        let removed_ids: Vec<AnnotId> = removed.iter().map(|&i| AnnotId(i)).collect();
        let resolver = |_: AnnotId| None;

        // eliminate-then-merge
        let mut ea = vec![a.clone()];
        let mut eb = vec![b.clone()];
        project_eliminate(&mut ea, &removed_ids, &resolver);
        project_eliminate(&mut eb, &removed_ids, &resolver);
        let m1 = merge_objects(&ea[0], &eb[0], &resolver);

        // merge-then-eliminate
        let mut m2 = vec![merge_objects(&a, &b, &resolver)];
        project_eliminate(&mut m2, &removed_ids, &resolver);

        let count = |o: &SummaryObject| match &o.rep {
            Rep::Classifier(c) => c.counts[0],
            _ => 0,
        };
        prop_assert_eq!(count(&m1), count(&m2[0]));
    }

    // ----------------------------------------------------------------
    // Snippet merge: source set is the union; no duplicates.
    // ----------------------------------------------------------------

    #[test]
    fn snippet_merge_is_source_union(
        a_ids in prop::collection::hash_set(0u64..30, 0..10),
        b_ids in prop::collection::hash_set(0u64..30, 0..10),
    ) {
        let a = snippet_with(&a_ids);
        let b = snippet_with(&b_ids);
        let resolver = |_: AnnotId| None;
        let m = merge_objects(&a, &b, &resolver);
        let Rep::Snippet(s) = &m.rep else { panic!() };
        let got: HashSet<u64> = s.entries.iter().map(|e| e.source.0).collect();
        let want: HashSet<u64> = a_ids.union(&b_ids).copied().collect();
        prop_assert_eq!(got.len(), s.entries.len(), "no duplicate sources");
        prop_assert_eq!(got, want);
    }

    // ----------------------------------------------------------------
    // The accumulating merge: folding sets into one accumulator, in place,
    // equals the pairwise left fold — of `merge_summary_sets`, and of the
    // merge's definition spelled out naively (clone the left side, re-read
    // it whole, append what it has not seen) — bit for bit, order included,
    // for classifier, snippet and cluster objects.
    // ----------------------------------------------------------------

    #[test]
    fn accumulator_fold_equals_pairwise_left_fold(sets in prop::collection::vec(summary_set(), 1..7)) {
        let resolver = |id: AnnotId| Some(format!("word{} tok{}", id.0, id.0 % 3));
        let mut acc = SummaryAccumulator::new(sets[0].clone());
        let mut pairwise = sets[0].clone();
        let mut naive = sets[0].clone();
        for set in &sets[1..] {
            acc.absorb(set, &resolver);
            pairwise = merge_summary_sets(&pairwise, set, &resolver);
            naive = naive_merge_sets(&naive, set, &resolver);
        }
        let folded = acc.finish();
        prop_assert_eq!(&folded, &pairwise);
        prop_assert_eq!(&folded, &naive);
    }

    // ----------------------------------------------------------------
    // Optimizer statistics: add/remove sequences answer exactly what a
    // naive recomputation over the surviving counts answers.
    // ----------------------------------------------------------------

    #[test]
    fn label_stats_match_naive_model(
        counts in prop::collection::vec(0u64..50, 1..60),
        bounds in prop::collection::vec(
            (prop::option::of(0u64..60), prop::option::of(0u64..60)),
            1..12,
        ),
    ) {
        let mut ls = LabelStats::default();
        for &c in &counts {
            ls.add(c);
        }
        // Remove the first third again.
        let keep = &counts[counts.len() / 3..];
        for &c in &counts[..counts.len() / 3] {
            ls.remove(c);
        }
        let total = keep.len() as u64;
        prop_assert_eq!(ls.total(), total);
        prop_assert_eq!(ls.min(), keep.iter().min().copied().unwrap_or(0));
        prop_assert_eq!(ls.max(), keep.iter().max().copied().unwrap_or(0));
        let distinct: HashSet<u64> = keep.iter().copied().collect();
        prop_assert_eq!(ls.num_distinct() as usize, distinct.len());
        // Every range, open bounds included, selects exactly the counts in
        // it: `selectivity × total` is the naive count.
        for &(lo, hi) in &bounds {
            let naive = keep
                .iter()
                .filter(|&&c| lo.is_none_or(|lo| c >= lo) && hi.is_none_or(|hi| c <= hi))
                .count() as u64;
            let expected = if total == 0 { 0.0 } else { naive as f64 / total as f64 };
            let sel = ls.selectivity(lo, hi);
            prop_assert_eq!(sel, expected, "[{:?}, {:?}]", lo, hi);
            prop_assert_eq!((sel * total as f64).round() as u64, naive);
        }
    }
}

// --------------------------------------------------------------------
// Persistence: dump → restore preserves every observable summary state,
// for randomly generated databases.
// --------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn dump_restore_is_lossless(
        annots in prop::collection::vec((0usize..6, 0usize..3, any::<bool>()), 0..40),
    ) {
        use insightnotes::prelude::*;
        let mut db = Database::new();
        let t = db
            .create_table(
                "T",
                Schema::of(&[("id", ColumnType::Int), ("x", ColumnType::Text)]),
            )
            .unwrap();
        let mut model = NaiveBayes::new(vec!["Disease".into(), "Behavior".into()]);
        model.train("disease outbreak infection", "Disease");
        model.train("eating foraging song", "Behavior");
        db.link_instance(t, "C", InstanceKind::Classifier { model }, true).unwrap();
        db.link_instance(
            t,
            "S",
            InstanceKind::Snippet { min_chars: 10, max_chars: 80 },
            false,
        )
        .unwrap();
        let mut oids = Vec::new();
        for i in 0..6i64 {
            oids.push(db.insert_tuple(t, vec![Value::Int(i), Value::Text(format!("t{i}"))]).unwrap());
        }
        for (tuple, col, diseasey) in annots {
            let text = if diseasey {
                "disease outbreak infection spotted here"
            } else {
                "seen eating and foraging by the water"
            };
            let att = if col == 0 {
                Attachment::row(oids[tuple])
            } else {
                Attachment::cells(oids[tuple], &[col - 1])
            };
            db.add_annotation(t, text, Category::Other, "p", vec![att]).unwrap();
        }
        let restored = Database::restore(&db.dump().unwrap()).unwrap();
        let rt = restored.table_id("T").unwrap();
        for &oid in &oids {
            let a = db.summaries_of(t, oid).unwrap();
            let b = restored.summaries_of(rt, oid).unwrap();
            prop_assert_eq!(a.len(), b.len());
            for (x, y) in a.iter().zip(b.iter()) {
                prop_assert_eq!(&x.instance_name, &y.instance_name);
                prop_assert_eq!(&x.rep, &y.rep);
            }
            // Raw annotation sets agree too.
            prop_assert_eq!(
                db.annotation_store(t).for_tuple(oid),
                restored.annotation_store(rt).for_tuple(oid)
            );
        }
    }
}

// --------------------------------------------------------------------
// SQL front-end robustness: whatever text a client sends, the parser
// answers with a statement or an error — never a panic, never a stack
// overflow — and every statement it accepts round-trips through the lexer.
// --------------------------------------------------------------------

/// Catalogue-shaped statements (the figures' and the benchmark's classes,
/// DDL, zoom-in, EXPLAIN): what the mutations start from.
const CATALOGUE: &[&str] = &[
    "SELECT id, common_name, family FROM Birds r \
     WHERE r.$.getSummaryObject('ClassBird1').getLabelValue('Disease') = 2",
    "SELECT id, common_name FROM Birds r \
     WHERE r.$.getSummaryObject('ClassBird1').getLabelValue('Disease') >= 3 \
     AND common_name LIKE 'Swan%'",
    "SELECT id, common_name FROM Birds r \
     ORDER BY r.$.getSummaryObject('ClassBird1').getLabelValue('Disease') DESC LIMIT 10",
    "SELECT b.id, s.synonym FROM Birds b, Synonyms s \
     WHERE b.id = s.bird_id AND NOT (b.id < 5 OR b.family <> 'Anatidae')",
    "SELECT DISTINCT family FROM Birds WHERE weight > 1.5 GROUP BY family",
    "EXPLAIN ANALYZE SELECT * FROM Birds r WHERE r.$.getSummaryObject('SimCluster').getSize() > 1;",
    "ALTER TABLE Birds ADD INDEXABLE ClassBird1;",
    "ZOOM IN ON ClassBird1 OF Birds TUPLE 42 LABEL 'Disease'",
    "ANALYZE",
];

/// A code point drawn from all of Unicode (surrogates read as U+FFFD).
fn unicode_char(u: u32) -> char {
    char::from_u32(u % 0x11_0000).unwrap_or('\u{FFFD}')
}

proptest! {
    /// Printable-ASCII garbage, arbitrary Unicode, a catalogue statement
    /// with characters inserted, deleted and replaced, and `(`, `NOT ` and
    /// `OR` repeated past the parser's depth bound: each parses to a
    /// statement or an error, never a panic. A well-formed repetition
    /// parses exactly when it is no deeper than `MAX_EXPR_DEPTH`.
    #[test]
    fn sql_parser_never_panics(
        ascii in "[ -~]{0,120}",
        unicode in prop::collection::vec(any::<u32>(), 0..80),
        seed in 0usize..CATALOGUE.len(),
        edits in prop::collection::vec((0u8..3, any::<usize>(), any::<u32>()), 0..6),
        shape in 0u8..3,
        n in 0usize..400,
        closed in any::<bool>(),
    ) {
        let _ = insightnotes::sql::parse(&ascii);
        let unicode: String = unicode.into_iter().map(unicode_char).collect();
        let _ = insightnotes::sql::parse(&unicode);

        let mut mutated: Vec<char> = CATALOGUE[seed].chars().collect();
        for (op, at, u) in edits {
            // Printable ASCII half the time: SQL's own characters are the
            // ones that move a parse.
            let c = if u % 2 == 0 { (0x20 + (u >> 1) % 0x5f) as u8 as char } else { unicode_char(u >> 1) };
            match op {
                0 => mutated.insert(at % (mutated.len() + 1), c),
                _ if mutated.is_empty() => {}
                1 => { mutated.remove(at % mutated.len()); }
                _ => { let i = at % mutated.len(); mutated[i] = c; }
            }
        }
        let _ = insightnotes::sql::parse(&mutated.into_iter().collect::<String>());

        let cmp = "r.id = 1";
        let pred = match shape {
            0 => format!("{}{cmp}{}", "(".repeat(n), if closed { ")".repeat(n) } else { String::new() }),
            1 => format!("{}{cmp}", "NOT ".repeat(n)),
            _ => format!("{cmp}{}", format!(" OR {cmp}").repeat(n)),
        };
        let parsed = insightnotes::sql::parse(&format!("SELECT id FROM Birds r WHERE {pred}"));
        let well_formed = shape != 0 || closed || n == 0;
        // The comparison is two levels; each repeated term adds one.
        let depth = n + 2;
        prop_assert_eq!(
            parsed.is_ok(),
            well_formed && depth <= insightnotes::sql::parser::MAX_EXPR_DEPTH,
            "shape {} n {} closed {}: {:?}", shape, n, closed, parsed
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn sql_parser_accepts_generated_selects(
        table in "[A-Za-z][A-Za-z0-9_]{0,10}",
        col in "[a-z][a-z0-9_]{0,8}",
        n in 0i64..1000,
        instance in "[A-Za-z][A-Za-z0-9]{0,8}",
        label in "[A-Za-z][A-Za-z0-9]{0,8}",
        desc in any::<bool>(),
        limit in prop::option::of(0usize..100),
    ) {
        let mut sql = format!(
            "SELECT {col} FROM {table} r WHERE \
             r.$.getSummaryObject('{instance}').getLabelValue('{label}') > {n}"
        );
        sql.push_str(&format!(
            " ORDER BY r.$.getSummaryObject('{instance}').getLabelValue('{label}') {}",
            if desc { "DESC" } else { "ASC" }
        ));
        if let Some(l) = limit {
            sql.push_str(&format!(" LIMIT {l}"));
        }
        let parsed = insightnotes::sql::parse(&sql);
        // Keyword collisions (e.g. a table named "select") may legitimately
        // fail to parse; anything else must succeed.
        let kw = ["select", "from", "where", "order", "group", "limit", "by",
                  "and", "or", "not", "like", "asc", "desc", "distinct"];
        if !kw.contains(&table.to_lowercase().as_str())
            && !kw.contains(&col.to_lowercase().as_str())
        {
            prop_assert!(parsed.is_ok(), "failed on: {sql}: {parsed:?}");
        }
    }
}

// --------------------------------------------------------------------
// Strategies / fixtures.
// --------------------------------------------------------------------

fn value_strategy() -> impl Strategy<Value = Value> {
    prop_oneof![
        Just(Value::Null),
        any::<i64>().prop_map(Value::Int),
        (-1e12f64..1e12).prop_map(Value::Float),
        "[a-zA-Z0-9 ]{0,40}".prop_map(Value::Text),
        any::<bool>().prop_map(Value::Bool),
    ]
}

fn classifier_strategy() -> impl Strategy<Value = SummaryObject> {
    (
        prop::collection::vec(
            ("[A-Z][a-z]{1,8}", prop::collection::vec(0u64..1000, 0..8)),
            1..5,
        ),
        any::<u64>(),
    )
        .prop_map(|(labels, oid)| {
            let mut rep = ClassifierRep::default();
            for (label, ids) in labels {
                rep.labels.push(label);
                rep.counts.push(ids.len() as u64);
                rep.elements.push(ids.into_iter().map(AnnotId).collect());
            }
            SummaryObject {
                obj_id: ObjId(oid),
                instance_id: InstanceId(1),
                instance_name: "P".into(),
                tuple_id: insightnotes::storage::Oid(oid % 97),
                rep: Rep::Classifier(rep),
            }
        })
}

fn classifier_with(label: &str, ids: &HashSet<u64>) -> SummaryObject {
    let mut sorted: Vec<u64> = ids.iter().copied().collect();
    sorted.sort_unstable();
    SummaryObject {
        obj_id: ObjId(1),
        instance_id: InstanceId(1),
        instance_name: "C".into(),
        tuple_id: insightnotes::storage::Oid(1),
        rep: Rep::Classifier(ClassifierRep {
            labels: vec![label.to_string()],
            counts: vec![sorted.len() as u64],
            elements: vec![sorted.into_iter().map(AnnotId).collect()],
        }),
    }
}

fn snippet_with(ids: &HashSet<u64>) -> SummaryObject {
    let mut sorted: Vec<u64> = ids.iter().copied().collect();
    sorted.sort_unstable();
    SummaryObject {
        obj_id: ObjId(2),
        instance_id: InstanceId(2),
        instance_name: "S".into(),
        tuple_id: insightnotes::storage::Oid(1),
        rep: Rep::Snippet(SnippetRep {
            entries: sorted
                .into_iter()
                .map(|i| SnippetEntry {
                    snippet: format!("snippet {i}"),
                    source: AnnotId(i),
                })
                .collect(),
        }),
    }
}

/// One tuple's summary set: any of a classifier `C` (ids may repeat across
/// and within labels), a snippet object `S` (sources may repeat) and a
/// cluster object `K`, in a fixed order; ids from a small range so sets
/// overlap.
fn summary_set() -> impl Strategy<Value = Vec<SummaryObject>> {
    let ids = || prop::collection::vec(0u64..24, 0..8);
    (
        prop::option::of((ids(), ids())),
        prop::option::of(ids()),
        prop::option::of(prop::collection::vec(
            prop::collection::vec(0u64..24, 1..4),
            0..4,
        )),
    )
        .prop_map(|(classifier, snippet, cluster)| {
            let object = |name: &str, n: u32, rep| SummaryObject {
                obj_id: ObjId(n as u64),
                instance_id: InstanceId(n),
                instance_name: name.into(),
                tuple_id: insightnotes::storage::Oid(1),
                rep,
            };
            let annots = |ids: Vec<u64>| ids.into_iter().map(AnnotId).collect::<Vec<_>>();
            let mut set = Vec::new();
            if let Some((disease, behavior)) = classifier {
                set.push(object(
                    "C",
                    1,
                    Rep::Classifier(ClassifierRep {
                        labels: vec!["Disease".into(), "Behavior".into()],
                        counts: vec![disease.len() as u64, behavior.len() as u64],
                        elements: vec![annots(disease), annots(behavior)],
                    }),
                ));
            }
            if let Some(sources) = snippet {
                let entries = sources
                    .into_iter()
                    .map(|i| SnippetEntry {
                        snippet: format!("snippet {i}"),
                        source: AnnotId(i),
                    })
                    .collect();
                set.push(object("S", 2, Rep::Snippet(SnippetRep { entries })));
            }
            if let Some(groups) = cluster {
                let groups = groups
                    .into_iter()
                    .map(|members| ClusterGroup {
                        rep_annot: AnnotId(members[0]),
                        rep_text: format!("rep {}", members[0]),
                        size: members.len() as u64,
                        ls: vec![members.len() as f32; 4],
                        members: annots(members),
                    })
                    .collect();
                set.push(object("K", 3, Rep::Cluster(ClusterRep { groups })));
            }
            set
        })
}

/// The set merge by its definition, nothing kept between steps: objects of
/// the same instance merge, the rest propagate — `a`'s first, then `b`'s.
fn naive_merge_sets(
    a: &[SummaryObject],
    b: &[SummaryObject],
    resolver: &dyn Fn(AnnotId) -> Option<String>,
) -> Vec<SummaryObject> {
    let mut out: Vec<SummaryObject> = a
        .iter()
        .map(
            |oa| match b.iter().find(|ob| ob.instance_name == oa.instance_name) {
                Some(ob) => naive_merge(oa, ob, resolver),
                None => oa.clone(),
            },
        )
        .collect();
    let unmatched = |ob: &&SummaryObject| a.iter().all(|oa| oa.instance_name != ob.instance_name);
    out.extend(b.iter().filter(unmatched).cloned());
    out
}

/// The object merge by its definition: a copy of `a`, re-read whole, plus
/// what of `b` it does not hold yet (cluster groups go through the one
/// canonical partition either way).
fn naive_merge(
    a: &SummaryObject,
    b: &SummaryObject,
    resolver: &dyn Fn(AnnotId) -> Option<String>,
) -> SummaryObject {
    let mut out = a.clone();
    match (&mut out.rep, &b.rep) {
        (Rep::Classifier(ca), Rep::Classifier(cb)) => {
            for li in 0..ca.labels.len() {
                let mut seen: HashSet<AnnotId> = ca.elements[li].iter().copied().collect();
                if let Some(bi) = cb.labels.iter().position(|l| l == &ca.labels[li]) {
                    for &id in &cb.elements[bi] {
                        if seen.insert(id) {
                            ca.elements[li].push(id);
                        }
                    }
                }
                ca.counts[li] = ca.elements[li].len() as u64;
            }
        }
        (Rep::Snippet(sa), Rep::Snippet(sb)) => {
            let seen: HashSet<AnnotId> = sa.entries.iter().map(|e| e.source).collect();
            for e in &sb.entries {
                if !seen.contains(&e.source) {
                    sa.entries.push(e.clone());
                }
            }
        }
        (Rep::Cluster(_), Rep::Cluster(_)) => return merge_objects(a, b, resolver),
        _ => unreachable!("same instance, same representation"),
    }
    out
}
