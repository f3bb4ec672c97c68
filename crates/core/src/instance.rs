//! Summary instances: the admin-customized instantiations of the three
//! mining families, and their incremental summarize / add / remove logic.
//!
//! A summary instance is linked to a user relation with the paper's extended
//! DDL (`Alter Table <table> Add [Indexable] <InstanceName>`); each data
//! tuple of the relation then carries one summary object produced by this
//! instance over its raw annotations.

use instn_annot::{AnnotId, Annotation};
use instn_mining::clustream::ClusterParams;
use instn_mining::lsa::LsaSummarizer;
use instn_mining::nb::NaiveBayes;
use instn_mining::tokenize::{euclidean, hash_tf_vector, HASH_DIM};
use instn_storage::Oid;

use crate::summary::{
    ClassifierRep, ClusterGroup, ClusterRep, InstanceId, ObjId, Rep, SnippetEntry, SnippetRep,
    SummaryObject, SummaryType,
};

/// Resolves an annotation id to its text — used where the algebra must
/// re-embed members (cluster re-election, projection elimination).
pub type TextResolver<'a> = &'a dyn Fn(AnnotId) -> Option<String>;

/// Type-specific configuration of a summary instance.
#[derive(Debug, Clone)]
pub enum InstanceKind {
    /// A trained Naive Bayes classifier over fixed labels.
    Classifier {
        /// The trained model (labels define the `Rep[]` order).
        model: NaiveBayes,
    },
    /// Snippet creation for large annotations.
    Snippet {
        /// Only annotations longer than this are summarized (paper: 1 000).
        min_chars: usize,
        /// Snippet budget (paper: 400).
        max_chars: usize,
    },
    /// Incremental clustering of similar annotations.
    Cluster {
        /// Clustering parameters (max groups, boundary factor).
        params: ClusterParams,
    },
}

/// Which raw annotations an instance summarizes.
///
/// The paper's engine is "extensible such that the database admins can
/// customize these techniques" (§2.1); instances with different scopes are
/// how Fig. 1's `ClassBird1` and `ClassBird2` summarize different subsets
/// of the same tuple's annotations.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub enum InstanceScope {
    /// Summarize every annotation (the default).
    #[default]
    All,
    /// Summarize only annotations whose text contains any of these
    /// (case-insensitive) markers.
    ContainsAny(Vec<String>),
}

impl InstanceScope {
    /// Whether an annotation text falls within this scope.
    pub fn includes(&self, text: &str) -> bool {
        match self {
            InstanceScope::All => true,
            InstanceScope::ContainsAny(markers) => {
                let lower = text.to_lowercase();
                markers.iter().any(|m| lower.contains(&m.to_lowercase()))
            }
        }
    }
}

/// A summary instance linked to one table.
#[derive(Debug, Clone)]
pub struct SummaryInstance {
    /// Instance id (unique per database).
    pub id: InstanceId,
    /// Instance name, e.g. `ClassBird1`.
    pub name: String,
    /// Type-specific configuration.
    pub kind: InstanceKind,
    /// Whether a Summary-BTree index is maintained over this instance
    /// (the `Indexable` clause of the extended `Alter Table`).
    pub indexable: bool,
    /// Which annotations this instance summarizes.
    pub scope: InstanceScope,
}

impl SummaryInstance {
    /// The summary family of this instance.
    pub fn summary_type(&self) -> SummaryType {
        match &self.kind {
            InstanceKind::Classifier { .. } => SummaryType::Classifier,
            InstanceKind::Snippet { .. } => SummaryType::Snippet,
            InstanceKind::Cluster { .. } => SummaryType::Cluster,
        }
    }

    /// Classifier labels, if this is a classifier instance.
    pub fn labels(&self) -> Option<&[String]> {
        match &self.kind {
            InstanceKind::Classifier { model } => Some(model.labels()),
            _ => None,
        }
    }

    /// A fresh, empty summary object for tuple `oid`.
    pub fn new_object(&self, obj_id: ObjId, oid: Oid) -> SummaryObject {
        let rep = match &self.kind {
            InstanceKind::Classifier { model } => {
                Rep::Classifier(ClassifierRep::new(model.labels().to_vec()))
            }
            InstanceKind::Snippet { .. } => Rep::Snippet(SnippetRep::default()),
            InstanceKind::Cluster { .. } => Rep::Cluster(ClusterRep::default()),
        };
        SummaryObject {
            obj_id,
            instance_id: self.id,
            instance_name: self.name.clone(),
            tuple_id: oid,
            rep,
        }
    }

    /// Incrementally fold a new annotation into `obj`. Classifier members
    /// and snippet entries are kept in annotation-id order, whatever order
    /// annotations arrive in, so a restore (which replays in id order)
    /// stores them as they were; cluster groups follow arrival order.
    ///
    /// For classifier objects, returns the `(label, old_count, new_count)`
    /// change so the Summary-BTree maintenance (§4.1.2, "Adding
    /// Annotation−Update": delete + re-insert of just the modified label key)
    /// can be driven by the caller.
    pub fn add_annotation(
        &self,
        obj: &mut SummaryObject,
        annot: &Annotation,
    ) -> Option<(String, u64, u64)> {
        match (&self.kind, &mut obj.rep) {
            (InstanceKind::Classifier { model }, Rep::Classifier(c)) => {
                let li = model.classify(&annot.text);
                let old = c.counts[li];
                c.counts[li] += 1;
                let members = &mut c.elements[li];
                members.insert(members.partition_point(|m| *m < annot.id), annot.id);
                Some((c.labels[li].clone(), old, old + 1))
            }
            (
                InstanceKind::Snippet {
                    min_chars,
                    max_chars,
                },
                Rep::Snippet(s),
            ) => {
                if annot.text.len() > *min_chars {
                    let snip = LsaSummarizer::with_budget(*max_chars).summarize(&annot.text);
                    let at = s.entries.partition_point(|e| e.source < annot.id);
                    let entry = SnippetEntry {
                        snippet: snip,
                        source: annot.id,
                    };
                    s.entries.insert(at, entry);
                }
                None
            }
            (InstanceKind::Cluster { params }, Rep::Cluster(c)) => {
                cluster_add(c, params, annot.id, &annot.text);
                None
            }
            _ => unreachable!("instance kind and object rep always agree"),
        }
    }

    /// Remove an annotation's effect from `obj`.
    ///
    /// Returns the classifier label change, if any, like
    /// [`SummaryInstance::add_annotation`]. The actual elimination logic is
    /// shared with the projection operator in
    /// [`crate::algebra::remove_annotation_effect`].
    pub fn remove_annotation(
        &self,
        obj: &mut SummaryObject,
        annot_id: AnnotId,
        resolver: TextResolver<'_>,
    ) -> Option<(String, u64, u64)> {
        crate::algebra::remove_annotation_effect(obj, annot_id, resolver)
    }
}

/// Insert one annotation into a cluster rep (CluStream-style).
fn cluster_add(rep: &mut ClusterRep, params: &ClusterParams, id: AnnotId, text: &str) {
    let v = hash_tf_vector(text);
    // Nearest group by centroid.
    let nearest = rep
        .groups
        .iter()
        .enumerate()
        .map(|(i, g)| (i, euclidean(&g.centroid(), &v)))
        .min_by(|a, b| a.1.partial_cmp(&b.1).unwrap_or(std::cmp::Ordering::Equal));
    if let Some((i, dist)) = nearest {
        // Boundary: singleton groups use an absolute floor suited to
        // L2-normalized embeddings; larger groups use a loose multiple of a
        // nominal radius (exact RMS would need per-member vectors).
        let boundary = if rep.groups[i].size <= 1 {
            // Two L2-normalized docs sharing ~2/3 of their tokens sit at
            // distance ≈0.82; anything past ~0.9 (cos < 0.6) is a new topic.
            0.85
        } else {
            params.boundary_factor * 0.45
        };
        if dist <= boundary {
            let g = &mut rep.groups[i];
            g.size += 1;
            g.members.push(id);
            for (l, x) in g.ls.iter_mut().zip(v.iter()) {
                *l += *x as f32;
            }
            return;
        }
    }
    if rep.groups.len() >= params.max_clusters {
        merge_closest_groups(rep);
    }
    rep.groups.push(ClusterGroup {
        rep_annot: id,
        rep_text: text.to_string(),
        size: 1,
        members: vec![id],
        ls: v.iter().map(|&x| x as f32).collect(),
    });
}

/// Elect the member closest to the group centroid as representative.
pub(crate) fn elect_representative(group: &mut ClusterGroup, resolver: TextResolver<'_>) {
    let centroid = group.centroid();
    let mut best: Option<(AnnotId, String, f64)> = None;
    for &m in &group.members {
        if let Some(text) = resolver(m) {
            let v = hash_tf_vector(&text);
            let padded: Vec<f64> = if centroid.len() == HASH_DIM {
                v.to_vec()
            } else {
                v[..centroid.len().min(HASH_DIM)].to_vec()
            };
            let d = euclidean(&padded, &centroid);
            if best.as_ref().map(|(_, _, bd)| d < *bd).unwrap_or(true) {
                best = Some((m, text, d));
            }
        }
    }
    match best {
        Some((id, text, _)) => {
            group.rep_annot = id;
            group.rep_text = text;
        }
        None => {
            // Resolver failed everywhere (annotations already gone): fall
            // back to the smallest surviving member id with a placeholder.
            if let Some(&m) = group.members.iter().min() {
                group.rep_annot = m;
                group.rep_text = String::new();
            }
        }
    }
}

/// Merge the two closest groups (capacity control).
pub(crate) fn merge_closest_groups(rep: &mut ClusterRep) {
    if rep.groups.len() < 2 {
        return;
    }
    let mut best = (0usize, 1usize, f64::INFINITY);
    for i in 0..rep.groups.len() {
        for j in (i + 1)..rep.groups.len() {
            let d = euclidean(&rep.groups[i].centroid(), &rep.groups[j].centroid());
            if d < best.2 {
                best = (i, j, d);
            }
        }
    }
    let absorbed = rep.groups.remove(best.1);
    let keep = &mut rep.groups[best.0];
    keep.size += absorbed.size;
    keep.members.extend(absorbed.members);
    for (l, x) in keep.ls.iter_mut().zip(absorbed.ls.iter()) {
        *l += x;
    }
    // Keep the representative of the larger original group (already in
    // place); callers may re-elect with a resolver if exactness matters.
}

#[cfg(test)]
mod tests {
    use super::*;
    use instn_annot::Category;

    fn annot(id: u64, text: &str) -> Annotation {
        Annotation {
            id: AnnotId(id),
            text: text.into(),
            category: Category::Other,
            author: "t".into(),
            revision: 1,
        }
    }

    fn classifier_instance() -> SummaryInstance {
        let mut model = NaiveBayes::new(vec!["Disease".into(), "Behavior".into()]);
        model.train("disease outbreak infection virus parasite", "Disease");
        model.train("lesion symptom mortality pox", "Disease");
        model.train("eating foraging migration song nesting", "Behavior");
        model.train("flock roosting courtship stonewort", "Behavior");
        SummaryInstance {
            id: InstanceId(1),
            name: "ClassBird1".into(),
            kind: InstanceKind::Classifier { model },
            indexable: false,
            scope: InstanceScope::default(),
        }
    }

    fn snippet_instance() -> SummaryInstance {
        SummaryInstance {
            id: InstanceId(2),
            name: "TextSummary1".into(),
            kind: InstanceKind::Snippet {
                min_chars: 100,
                max_chars: 60,
            },
            indexable: false,
            scope: InstanceScope::default(),
        }
    }

    fn cluster_instance() -> SummaryInstance {
        SummaryInstance {
            id: InstanceId(3),
            name: "SimCluster".into(),
            kind: InstanceKind::Cluster {
                params: ClusterParams::default(),
            },
            indexable: false,
            scope: InstanceScope::default(),
        }
    }

    #[test]
    fn classifier_add_reports_label_change() {
        let inst = classifier_instance();
        let mut obj = inst.new_object(ObjId(1), Oid(1));
        let change = inst.add_annotation(&mut obj, &annot(1, "virus outbreak and infection"));
        assert_eq!(change, Some(("Disease".into(), 0, 1)));
        let change = inst.add_annotation(&mut obj, &annot(2, "observed eating stonewort"));
        assert_eq!(change, Some(("Behavior".into(), 0, 1)));
        let Rep::Classifier(c) = &obj.rep else {
            panic!()
        };
        assert_eq!(c.count("Disease"), Some(1));
        assert_eq!(c.count("Behavior"), Some(1));
        assert_eq!(c.elements[0], vec![AnnotId(1)]);
    }

    #[test]
    fn classifier_remove_reverses_add() {
        let inst = classifier_instance();
        let mut obj = inst.new_object(ObjId(1), Oid(1));
        inst.add_annotation(&mut obj, &annot(1, "virus outbreak"));
        let change = inst.remove_annotation(&mut obj, AnnotId(1), &|_| None);
        assert_eq!(change, Some(("Disease".into(), 1, 0)));
        assert!(obj.is_empty());
        // Removing an unknown annotation is a no-op.
        assert_eq!(
            inst.remove_annotation(&mut obj, AnnotId(99), &|_| None),
            None
        );
    }

    #[test]
    fn snippet_only_summarizes_large_annotations() {
        let inst = snippet_instance();
        let mut obj = inst.new_object(ObjId(1), Oid(1));
        inst.add_annotation(&mut obj, &annot(1, "short"));
        let Rep::Snippet(s) = &obj.rep else { panic!() };
        assert!(s.entries.is_empty());
        let long = format!(
            "The huge wikipedia article about swans. {}",
            "More filler sentences follow here. ".repeat(10)
        );
        inst.add_annotation(&mut obj, &annot(2, &long));
        let Rep::Snippet(s) = &obj.rep else { panic!() };
        assert_eq!(s.entries.len(), 1);
        assert!(s.entries[0].snippet.len() <= 60);
        assert_eq!(s.entries[0].source, AnnotId(2));
    }

    #[test]
    fn snippet_remove_drops_entry() {
        let inst = snippet_instance();
        let mut obj = inst.new_object(ObjId(1), Oid(1));
        let long = "sentence one here. ".repeat(12);
        inst.add_annotation(&mut obj, &annot(2, &long));
        inst.remove_annotation(&mut obj, AnnotId(2), &|_| None);
        assert!(obj.is_empty());
    }

    #[test]
    fn cluster_groups_similar_texts() {
        let inst = cluster_instance();
        let mut obj = inst.new_object(ObjId(1), Oid(1));
        for i in 0..5 {
            inst.add_annotation(&mut obj, &annot(i, "disease outbreak infection virus"));
        }
        for i in 5..10 {
            inst.add_annotation(&mut obj, &annot(i, "migration song nesting foraging"));
        }
        let Rep::Cluster(c) = &obj.rep else { panic!() };
        assert!(
            c.groups.len() >= 2 && c.groups.len() <= 4,
            "{} groups",
            c.groups.len()
        );
        let total: u64 = c.groups.iter().map(|g| g.size).sum();
        assert_eq!(total, 10);
        for g in &c.groups {
            assert_eq!(g.size as usize, g.members.len());
            assert!(g.members.contains(&g.rep_annot));
        }
    }

    #[test]
    fn cluster_remove_reelects_representative() {
        let inst = cluster_instance();
        let mut obj = inst.new_object(ObjId(1), Oid(1));
        let texts = [
            "disease outbreak infection",
            "disease outbreak virus",
            "disease outbreak parasite",
        ];
        for (i, t) in texts.iter().enumerate() {
            inst.add_annotation(&mut obj, &annot(i as u64, t));
        }
        let Rep::Cluster(c) = &obj.rep else { panic!() };
        let rep = c.groups[0].rep_annot;
        let resolver = |id: AnnotId| texts.get(id.0 as usize).map(|s| s.to_string());
        inst.remove_annotation(&mut obj, rep, &resolver);
        let Rep::Cluster(c) = &obj.rep else { panic!() };
        assert_eq!(c.groups[0].size, 2);
        assert_ne!(c.groups[0].rep_annot, rep);
        assert!(c.groups[0].members.contains(&c.groups[0].rep_annot));
        assert!(!c.groups[0].rep_text.is_empty());
    }

    #[test]
    fn cluster_capacity_is_bounded() {
        let inst = SummaryInstance {
            kind: InstanceKind::Cluster {
                params: ClusterParams {
                    max_clusters: 3,
                    boundary_factor: 0.0001,
                },
            },
            ..cluster_instance()
        };
        let mut obj = inst.new_object(ObjId(1), Oid(1));
        for i in 0..12u64 {
            inst.add_annotation(
                &mut obj,
                &annot(i, &format!("unique{} topic{} zz{}", i, i * 7, i * 13)),
            );
        }
        let Rep::Cluster(c) = &obj.rep else { panic!() };
        assert!(c.groups.len() <= 3);
        let total: u64 = c.groups.iter().map(|g| g.size).sum();
        assert_eq!(total, 12);
    }

    #[test]
    fn new_object_matches_instance_type() {
        for inst in [
            classifier_instance(),
            snippet_instance(),
            cluster_instance(),
        ] {
            let obj = inst.new_object(ObjId(9), Oid(3));
            assert_eq!(obj.summary_type(), inst.summary_type());
            assert_eq!(obj.summary_name(), inst.name);
            assert_eq!(obj.tuple_id, Oid(3));
            assert!(obj.is_empty());
        }
    }

    #[test]
    fn labels_accessor() {
        assert_eq!(
            classifier_instance().labels(),
            Some(&["Disease".to_string(), "Behavior".to_string()][..])
        );
        assert_eq!(snippet_instance().labels(), None);
    }
}
