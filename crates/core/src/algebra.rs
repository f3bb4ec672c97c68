//! The summary-aware propagation algebra (§2.2, Fig. 3).
//!
//! Two operations define how summary objects move through query plans:
//!
//! * [`project_eliminate`] — when a projection drops columns, the effect of
//!   every annotation attached *only* to dropped columns is removed from the
//!   tuple's summary objects: classifier counts decrement, snippets of
//!   dropped annotations disappear, cluster groups shrink and re-elect their
//!   representative if it was dropped. Per the paper's Theorems 1–2 this
//!   must happen *before* any merge for plan-equivalence to hold.
//! * [`SummaryAccumulator`] — when a join combines two tuples (or a
//!   group-by, DISTINCT or rollup folds many), summary objects of the *same
//!   instance* merge; objects with no counterpart propagate unchanged.
//!   Annotations attached to several input tuples are counted once (the
//!   `Comment: 22 not 27` example of Fig. 3). [`merge_summary_sets`] and
//!   [`merge_objects`] are its one-step forms.

use std::collections::HashSet;

use instn_annot::AnnotId;
use instn_mining::tokenize::hash_tf_vector;
use instn_storage::{Oid, Tuple};

use crate::instance::{elect_representative, TextResolver};
use crate::summary::{ClusterGroup, Rep, SummaryObject};
use crate::IdHash;

/// A data tuple travelling through a query plan together with its summary
/// objects — the paper's `r = <a1..an, {s1..sk}>` conceptual schema.
#[derive(Debug, Clone, PartialEq)]
pub struct AnnotatedTuple {
    /// Source `(table, oid)` while the tuple is single-sourced (scan /
    /// select / project); `None` after a join fuses provenance.
    pub source: Option<(instn_storage::TableId, Oid)>,
    /// The data values.
    pub values: Tuple,
    /// The attached summary objects (the `$` variable of §3.1).
    pub summaries: Vec<SummaryObject>,
}

impl AnnotatedTuple {
    /// A tuple with no summaries.
    pub fn bare(table: instn_storage::TableId, oid: Oid, values: Tuple) -> Self {
        Self {
            source: Some((table, oid)),
            values,
            summaries: Vec::new(),
        }
    }

    /// The source OID, if single-sourced.
    pub fn oid(&self) -> Option<Oid> {
        self.source.map(|(_, o)| o)
    }

    /// `$.getSize()`: number of attached summary objects.
    pub fn summary_count(&self) -> usize {
        self.summaries.len()
    }

    /// `$.getSummaryObject(name)`: the object of the named instance.
    pub fn summary_by_name(&self, name: &str) -> Option<&SummaryObject> {
        self.summaries.iter().find(|s| s.instance_name == name)
    }

    /// `$.getSummaryObject(i)`: the object at position `i`.
    pub fn summary_by_index(&self, i: usize) -> Option<&SummaryObject> {
        self.summaries.get(i)
    }
}

/// Remove one annotation's effect from one summary object.
///
/// Returns the classifier `(label, old, new)` count change if any — the
/// signal Summary-BTree maintenance consumes.
pub fn remove_annotation_effect(
    obj: &mut SummaryObject,
    annot_id: AnnotId,
    resolver: TextResolver<'_>,
) -> Option<(String, u64, u64)> {
    match &mut obj.rep {
        Rep::Classifier(c) => {
            for li in 0..c.labels.len() {
                if let Some(pos) = c.elements[li].iter().position(|a| *a == annot_id) {
                    c.elements[li].remove(pos);
                    let old = c.counts[li];
                    c.counts[li] = old.saturating_sub(1);
                    return Some((c.labels[li].clone(), old, c.counts[li]));
                }
            }
            None
        }
        Rep::Snippet(s) => {
            s.entries.retain(|e| e.source != annot_id);
            None
        }
        Rep::Cluster(c) => {
            if let Some(gi) = c.groups.iter().position(|g| g.members.contains(&annot_id)) {
                {
                    let g = &mut c.groups[gi];
                    g.members.retain(|m| *m != annot_id);
                    g.size = g.members.len() as u64;
                    if let Some(text) = resolver(annot_id) {
                        let v = hash_tf_vector(&text);
                        for (l, x) in g.ls.iter_mut().zip(v.iter()) {
                            *l -= *x as f32;
                        }
                    }
                }
                if c.groups[gi].members.is_empty() {
                    c.groups.remove(gi);
                } else if c.groups[gi].rep_annot == annot_id {
                    elect_representative(&mut c.groups[gi], resolver);
                }
            }
            None
        }
    }
}

/// Projection-time elimination: strip the effect of every annotation in
/// `removed` from all summary objects of a tuple (Fig. 3 step 1).
pub fn project_eliminate(
    summaries: &mut [SummaryObject],
    removed: &[AnnotId],
    resolver: TextResolver<'_>,
) {
    for obj in summaries.iter_mut() {
        for &id in removed {
            remove_annotation_effect(obj, id, resolver);
        }
    }
}

/// Annotation ids already folded into one accumulated object — what lets a
/// merge append to the object without re-reading what it holds.
#[derive(Debug)]
enum Seen {
    /// One id set per label, in label order.
    Classifier(Vec<HashSet<AnnotId, IdHash>>),
    /// The entries' source annotations.
    Snippet(HashSet<AnnotId, IdHash>),
    /// Cluster groups re-partition as a whole ([`merge_cluster_groups`]).
    Cluster,
}

impl Seen {
    fn of(rep: &Rep) -> Seen {
        match rep {
            Rep::Classifier(c) => Seen::Classifier(
                c.elements
                    .iter()
                    .map(|ids| ids.iter().copied().collect())
                    .collect(),
            ),
            Rep::Snippet(s) => Seen::Snippet(s.entries.iter().map(|e| e.source).collect()),
            Rep::Cluster(_) => Seen::Cluster,
        }
    }
}

/// One object of a [`SummaryAccumulator`].
#[derive(Debug)]
struct AccObject {
    obj: SummaryObject,
    /// Built from `obj` by the first merge into it, kept current by every
    /// merge after: an object nothing merges into never pays for it.
    seen: Option<Seen>,
}

impl AccObject {
    fn new(obj: SummaryObject) -> Self {
        AccObject { obj, seen: None }
    }

    /// Merge `b`, a counterpart object of the same instance, into this one.
    /// Every arm dedups by annotation id against everything merged so far
    /// (elements per label, snippet sources, cluster members) — annotations
    /// attached to both inputs count once (Fig. 3's "sum 22 instead of
    /// 27") — and appends in first-occurrence order, which keeps the merge
    /// associative for the parallel gather (DESIGN.md §8).
    fn absorb(&mut self, b: &SummaryObject, resolver: TextResolver<'_>) {
        debug_assert_eq!(
            self.obj.instance_name, b.instance_name,
            "merge requires counterpart objects of the same summary instance"
        );
        let seen = match &mut self.seen {
            Some(seen) => seen,
            None => self.seen.insert(Seen::of(&self.obj.rep)),
        };
        match (&mut self.obj.rep, &b.rep, seen) {
            (Rep::Classifier(ca), Rep::Classifier(cb), Seen::Classifier(seen)) => {
                let per_label = ca
                    .labels
                    .iter()
                    .zip(ca.elements.iter_mut().zip(ca.counts.iter_mut()))
                    .zip(seen.iter_mut());
                for ((label, (elements, count)), seen) in per_label {
                    if let Some(bi) = cb.labels.iter().position(|l| l == label) {
                        for &id in &cb.elements[bi] {
                            if seen.insert(id) {
                                elements.push(id);
                            }
                        }
                    }
                    *count = elements.len() as u64;
                }
            }
            (Rep::Snippet(sa), Rep::Snippet(sb), Seen::Snippet(seen)) => {
                let kept = sa.entries.len();
                for e in &sb.entries {
                    if !seen.contains(&e.source) {
                        sa.entries.push(e.clone());
                    }
                }
                seen.extend(sa.entries[kept..].iter().map(|e| e.source));
            }
            (Rep::Cluster(ca), Rep::Cluster(cb), Seen::Cluster) => {
                // Groups overlap iff they share a member annotation; the
                // transitive closure is taken so the result is a *partition*
                // of the member annotations (see `merge_cluster_groups`).
                let mut inputs = std::mem::take(&mut ca.groups);
                inputs.extend(cb.groups.iter().cloned());
                ca.groups = merge_cluster_groups(inputs, resolver);
            }
            _ => unreachable!("same instance implies same rep type"),
        }
    }
}

/// A summary set that other sets merge into, in place — the one
/// implementation of the Fig. 3 merge. A join merges two sets through it
/// ([`merge_summary_sets`]); a group-by, DISTINCT or rollup keeps one per
/// group and [`absorb`](Self::absorb)s member after member, at a cost that
/// follows the member, not the group gathered so far: the accumulated side
/// is never cloned or re-hashed, only appended to.
///
/// Folding sets `s1..sn` into an accumulator equals the pairwise left fold
/// `merge(..merge(merge(s1, s2), s3).., sn)` bit for bit, order included.
#[derive(Debug, Default)]
pub struct SummaryAccumulator {
    objects: Vec<AccObject>,
}

impl SummaryAccumulator {
    /// Start from `first` (a group's first member, a join's left side).
    pub fn new(first: Vec<SummaryObject>) -> Self {
        SummaryAccumulator {
            objects: first.into_iter().map(AccObject::new).collect(),
        }
    }

    /// Merge the set `b` in: objects of the same instance merge; the rest
    /// propagate unchanged, after the objects already here (Fig. 3 step 3:
    /// `ClassBird1` and `TextSummary1` pass through, `ClassBird2` and
    /// `SimCluster` combine).
    pub fn absorb(&mut self, b: &[SummaryObject], resolver: TextResolver<'_>) {
        let mut b_used = vec![false; b.len()];
        for acc in &mut self.objects {
            // Counterparts are identified by instance NAME: "the same summary
            // instance" may be linked to several relations (the two-revision
            // join of Fig. 16 Q2, the ClassBird2-on-both-sides merge of Fig. 3).
            let name = &acc.obj.instance_name;
            if let Some(bi) = b.iter().position(|ob| &ob.instance_name == name) {
                b_used[bi] = true;
                acc.absorb(&b[bi], resolver);
            }
        }
        for (ob, used) in b.iter().zip(b_used) {
            if !used {
                self.objects.push(AccObject::new(ob.clone()));
            }
        }
    }

    /// The merged set.
    pub fn finish(self) -> Vec<SummaryObject> {
        self.objects.into_iter().map(|acc| acc.obj).collect()
    }
}

/// Merge two summary objects of the *same instance* attached to two joined
/// tuples (one [`SummaryAccumulator`] step on a copy of `a`).
pub fn merge_objects(
    a: &SummaryObject,
    b: &SummaryObject,
    resolver: TextResolver<'_>,
) -> SummaryObject {
    let mut acc = AccObject::new(a.clone());
    acc.absorb(b, resolver);
    acc.obj
}

/// Canonically merge a list of cluster groups: connected components of the
/// "shares a member annotation" relation, transitively closed (Fig. 3:
/// groups of A1 and B5 combine; A5 and B7 propagate separately).
///
/// This is the global annotation-id dedup that makes parallel two-phase
/// aggregation exact for multi-tuple attachments (DESIGN.md §8/§10): the
/// output groups partition the member ids — no annotation can appear in
/// two groups — and, because connected components are independent of
/// association order, merging partial per-worker states in any grouping
/// reproduces the serial fold bit for bit. Concretely:
///
/// * a component of one group passes through **unchanged** (preserving the
///   CluStream-built linear sum exactly);
/// * a multi-group component lists members in first-occurrence order
///   across the inputs, keeps the first group's representative, and
///   recomputes `ls` as the sum of the members' TF vectors — valid
///   because the CF invariant (`ls` = Σ member embeddings, pinned by a
///   `instn-mining` test) makes `ls` a function of the member *set*.
fn merge_cluster_groups(
    groups: Vec<ClusterGroup>,
    resolver: TextResolver<'_>,
) -> Vec<ClusterGroup> {
    // Union-find over group indices, keyed by shared members.
    let mut parent: Vec<usize> = (0..groups.len()).collect();
    fn find(parent: &mut [usize], mut i: usize) -> usize {
        while parent[i] != i {
            parent[i] = parent[parent[i]];
            i = parent[i];
        }
        i
    }
    let mut owner: std::collections::HashMap<AnnotId, usize> = Default::default();
    for (gi, g) in groups.iter().enumerate() {
        for &m in &g.members {
            match owner.get(&m) {
                Some(&fi) => {
                    let (a, b) = (find(&mut parent, gi), find(&mut parent, fi));
                    if a != b {
                        // Union toward the smaller root so every
                        // component's root is its first group.
                        let (lo, hi) = (a.min(b), a.max(b));
                        parent[hi] = lo;
                    }
                }
                None => {
                    owner.insert(m, gi);
                }
            }
        }
    }
    // Components in first-group order; member lists in first-occurrence
    // order (both association-invariant under concatenation).
    let mut components: Vec<Vec<usize>> = Vec::new();
    let mut comp_of_root: std::collections::HashMap<usize, usize> = Default::default();
    for gi in 0..groups.len() {
        let root = find(&mut parent, gi);
        match comp_of_root.get(&root) {
            Some(&ci) => components[ci].push(gi),
            None => {
                comp_of_root.insert(root, components.len());
                components.push(vec![gi]);
            }
        }
    }
    let mut out = Vec::with_capacity(components.len());
    for comp in components {
        if comp.len() == 1 {
            out.push(groups[comp[0]].clone());
            continue;
        }
        let first = &groups[comp[0]];
        let mut seen: HashSet<AnnotId, IdHash> = HashSet::default();
        let mut members: Vec<AnnotId> = Vec::new();
        let mut ls = vec![0.0f32; first.ls.len()];
        for &gi in &comp {
            for &m in &groups[gi].members {
                if seen.insert(m) {
                    members.push(m);
                    if let Some(text) = resolver(m) {
                        let v = hash_tf_vector(&text);
                        for (l, x) in ls.iter_mut().zip(v.iter()) {
                            *l += *x as f32;
                        }
                    }
                }
            }
        }
        out.push(ClusterGroup {
            rep_annot: first.rep_annot,
            rep_text: first.rep_text.clone(),
            size: members.len() as u64,
            members,
            ls,
        });
    }
    out
}

/// Merge two summary *sets* for a join: [`SummaryAccumulator::absorb`] of
/// `b` into a copy of `a`.
pub fn merge_summary_sets(
    a: &[SummaryObject],
    b: &[SummaryObject],
    resolver: TextResolver<'_>,
) -> Vec<SummaryObject> {
    let mut acc = SummaryAccumulator::new(a.to_vec());
    acc.absorb(b, resolver);
    acc.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::summary::{ClassifierRep, ClusterRep, InstanceId, ObjId, SnippetEntry, SnippetRep};

    fn no_text(_: AnnotId) -> Option<String> {
        None
    }

    fn classifier(instance: u32, labels: &[(&str, &[u64])]) -> SummaryObject {
        SummaryObject {
            obj_id: ObjId(instance as u64),
            instance_id: InstanceId(instance),
            instance_name: format!("C{instance}"),
            tuple_id: Oid(1),
            rep: Rep::Classifier(ClassifierRep {
                labels: labels.iter().map(|(l, _)| (*l).to_string()).collect(),
                counts: labels.iter().map(|(_, ids)| ids.len() as u64).collect(),
                elements: labels
                    .iter()
                    .map(|(_, ids)| ids.iter().map(|&i| AnnotId(i)).collect())
                    .collect(),
            }),
        }
    }

    #[test]
    fn classifier_merge_deduplicates_common() {
        // r: Comment {1,2,3}; s: Comment {3,4}. Common {3} counted once.
        let a = classifier(7, &[("Comment", &[1, 2, 3])]);
        let b = classifier(7, &[("Comment", &[3, 4])]);
        let m = merge_objects(&a, &b, &no_text);
        let Rep::Classifier(c) = &m.rep else { panic!() };
        assert_eq!(c.counts[0], 4, "3 must not be double counted");
        assert_eq!(c.elements[0].len(), 4);
    }

    #[test]
    fn classifier_merge_matches_paper_example() {
        // Fig 3: Provenance 2+5=7, Comment 7+10 with 5 common ... simplified:
        // a has Comment with 7 ids, b with 10 ids, 5 shared.
        let a_ids: Vec<u64> = (1..=7).collect();
        let b_ids: Vec<u64> = (3..=12).collect(); // shares 3..=7 (5 ids)
        let a = classifier(1, &[("Comment", &a_ids)]);
        let b = classifier(1, &[("Comment", &b_ids)]);
        let m = merge_objects(&a, &b, &no_text);
        let Rep::Classifier(c) = &m.rep else { panic!() };
        assert_eq!(c.counts[0], 12, "7 + 10 - 5 common");
    }

    #[test]
    fn snippet_merge_unions_by_source() {
        let mk = |sources: &[u64]| SummaryObject {
            obj_id: ObjId(1),
            instance_id: InstanceId(2),
            instance_name: "T".into(),
            tuple_id: Oid(1),
            rep: Rep::Snippet(SnippetRep {
                entries: sources
                    .iter()
                    .map(|&s| SnippetEntry {
                        snippet: format!("s{s}"),
                        source: AnnotId(s),
                    })
                    .collect(),
            }),
        };
        let m = merge_objects(&mk(&[1, 2]), &mk(&[2, 3]), &no_text);
        let Rep::Snippet(s) = &m.rep else { panic!() };
        let mut src: Vec<u64> = s.entries.iter().map(|e| e.source.0).collect();
        src.sort_unstable();
        assert_eq!(src, vec![1, 2, 3]);
    }

    fn cluster(groups: &[(&str, u64, &[u64])]) -> SummaryObject {
        SummaryObject {
            obj_id: ObjId(1),
            instance_id: InstanceId(3),
            instance_name: "SimCluster".into(),
            tuple_id: Oid(1),
            rep: Rep::Cluster(ClusterRep {
                groups: groups
                    .iter()
                    .map(|(t, rep, ids)| ClusterGroup {
                        rep_annot: AnnotId(*rep),
                        rep_text: (*t).to_string(),
                        size: ids.len() as u64,
                        members: ids.iter().map(|&i| AnnotId(i)).collect(),
                        ls: vec![0.0; 4],
                    })
                    .collect(),
            }),
        }
    }

    #[test]
    fn cluster_merge_combines_overlapping_groups_only() {
        // a: {A1: 1,2,5}, {A5: 5is not here...}; per Fig 3:
        let a = cluster(&[("A1", 1, &[1, 2]), ("A5", 5, &[5, 6])]);
        let b = cluster(&[("B5", 7, &[2, 7]), ("B7", 8, &[8, 9])]);
        let m = merge_objects(&a, &b, &no_text);
        let Rep::Cluster(c) = &m.rep else { panic!() };
        // A1 and B5 share member 2 -> combined; A5, B7 propagate separately.
        assert_eq!(c.groups.len(), 3);
        let combined = c
            .groups
            .iter()
            .find(|g| g.members.contains(&AnnotId(7)))
            .unwrap();
        assert_eq!(combined.size, 3, "union of {{1,2}} and {{2,7}}");
        assert_eq!(combined.rep_annot, AnnotId(1), "a's representative kept");
        assert!(c.groups.iter().any(|g| g.rep_text == "A5"));
        assert!(c.groups.iter().any(|g| g.rep_text == "B7"));
    }

    /// Regression (DESIGN.md §8): the pre-fix merge matched each `b` group
    /// against the *first* overlapping `a` group without transitive
    /// closure, so an annotation could end up in two output groups and its
    /// TF vector was added twice when partial parallel aggregates merged.
    /// The canonical merge must emit a partition of the member ids.
    #[test]
    fn cluster_merge_output_groups_partition_members() {
        // a: {1} and {2} separate; b: {1,2} bridges them. The old code
        // merged b's group into {1} only, leaving annotation 2 both in
        // the bridged group and in a's second group.
        let a = cluster(&[("A1", 1, &[1]), ("A2", 2, &[2])]);
        let b = cluster(&[("B1", 1, &[1, 2])]);
        let m = merge_objects(&a, &b, &no_text);
        let Rep::Cluster(c) = &m.rep else { panic!() };
        let mut seen = HashSet::new();
        for g in &c.groups {
            assert_eq!(g.size as usize, g.members.len());
            for &mbr in &g.members {
                assert!(seen.insert(mbr), "annotation {mbr:?} in two groups");
            }
        }
        assert_eq!(c.groups.len(), 1, "bridged into a single group");
        assert_eq!(c.groups[0].rep_annot, AnnotId(1), "first group's rep kept");
        assert_eq!(seen, HashSet::from([AnnotId(1), AnnotId(2)]));
    }

    /// The canonical merge is associative: merging per-worker partial
    /// states in any grouping yields identical groups (membership, order,
    /// representatives, and linear sums) — the property the parallel
    /// gather relies on for exact multi-tuple `GroupBy`.
    #[test]
    fn cluster_merge_is_associative() {
        let texts = |id: AnnotId| Some(format!("word{} tok{}", id.0, id.0 % 3));
        let x = cluster(&[("A1", 1, &[1, 2]), ("A5", 5, &[5])]);
        let y = cluster(&[("B2", 2, &[2, 3])]);
        let z = cluster(&[("C3", 3, &[3, 4]), ("C9", 9, &[9])]);
        let xy_z = merge_objects(&merge_objects(&x, &y, &texts), &z, &texts);
        let x_yz = merge_objects(&x, &merge_objects(&y, &z, &texts), &texts);
        assert_eq!(xy_z, x_yz);
        let Rep::Cluster(c) = &xy_z.rep else { panic!() };
        // 1-2, 2-3, 3-4 chain transitively into one group; 5 and 9 stay.
        assert_eq!(c.groups.len(), 3);
        assert_eq!(
            c.groups[0].members,
            vec![AnnotId(1), AnnotId(2), AnnotId(3), AnnotId(4)]
        );
    }

    #[test]
    fn merge_sets_propagates_unmatched_objects() {
        // r has instances 1 and 2; s has instance 1 and 9.
        let a = vec![classifier(1, &[("X", &[1])]), classifier(2, &[("Y", &[2])])];
        let b = vec![classifier(1, &[("X", &[3])]), classifier(9, &[("Z", &[4])])];
        let m = merge_summary_sets(&a, &b, &no_text);
        assert_eq!(m.len(), 3);
        let merged = m.iter().find(|o| o.instance_id == InstanceId(1)).unwrap();
        let Rep::Classifier(c) = &merged.rep else {
            panic!()
        };
        assert_eq!(c.counts[0], 2);
        assert!(m.iter().any(|o| o.instance_id == InstanceId(2)));
        assert!(m.iter().any(|o| o.instance_id == InstanceId(9)));
    }

    #[test]
    fn project_eliminate_decrements_classifier() {
        let mut set = vec![classifier(1, &[("Disease", &[1, 2]), ("Other", &[3])])];
        project_eliminate(&mut set, &[AnnotId(2), AnnotId(3)], &no_text);
        let Rep::Classifier(c) = &set[0].rep else {
            panic!()
        };
        assert_eq!(c.counts, vec![1, 0]);
        assert_eq!(c.elements[0], vec![AnnotId(1)]);
        assert!(c.elements[1].is_empty());
    }

    #[test]
    fn project_eliminate_reelects_cluster_representative() {
        let mut set = vec![cluster(&[("A2", 2, &[2, 5])])];
        let texts = |id: AnnotId| Some(format!("text of {}", id.0));
        project_eliminate(&mut set, &[AnnotId(2)], &texts);
        let Rep::Cluster(c) = &set[0].rep else {
            panic!()
        };
        assert_eq!(c.groups[0].size, 1);
        assert_eq!(c.groups[0].rep_annot, AnnotId(5), "A5 replaces dropped A2");
        assert_eq!(c.groups[0].rep_text, "text of 5");
    }

    #[test]
    fn project_eliminate_drops_empty_groups() {
        let mut set = vec![cluster(&[("A1", 1, &[1])])];
        project_eliminate(&mut set, &[AnnotId(1)], &no_text);
        let Rep::Cluster(c) = &set[0].rep else {
            panic!()
        };
        assert!(c.groups.is_empty());
    }

    #[test]
    fn eliminate_then_merge_equals_merge_of_eliminated() {
        // The property behind the paper's Theorems 1-2 (project before
        // merge): eliminating X from both sides then merging equals merging
        // then eliminating X, for classifier objects (set semantics).
        let a = classifier(1, &[("L", &[1, 2, 3])]);
        let b = classifier(1, &[("L", &[3, 4])]);
        let removed = [AnnotId(2), AnnotId(3)];

        let mut ea = vec![a.clone()];
        let mut eb = vec![b.clone()];
        project_eliminate(&mut ea, &removed, &no_text);
        project_eliminate(&mut eb, &removed, &no_text);
        let m1 = merge_objects(&ea[0], &eb[0], &no_text);

        let mut m2 = vec![merge_objects(&a, &b, &no_text)];
        project_eliminate(&mut m2, &removed, &no_text);

        assert_eq!(m1.rep, m2[0].rep);
    }

    #[test]
    fn annotated_tuple_accessors() {
        let t = AnnotatedTuple {
            source: Some((instn_storage::TableId(0), Oid(1))),
            values: vec![],
            summaries: vec![classifier(1, &[("L", &[1])])],
        };
        assert_eq!(t.summary_count(), 1);
        assert!(t.summary_by_name("C1").is_some());
        assert!(t.summary_by_name("missing").is_none());
        assert!(t.summary_by_index(0).is_some());
        assert!(t.summary_by_index(1).is_none());
    }
}
