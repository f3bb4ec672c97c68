//! The summary data model.
//!
//! Per §2.1, every summary object is a five-ary vector
//! `{ObjID, InstanceID, TupleID, Rep[], Elements[][]}` whose `Rep[]`
//! structure depends on the summary type:
//!
//! | Type       | Rep[] structure                                   |
//! |------------|---------------------------------------------------|
//! | Cluster    | `[(Text annotation, Number groupSize)]`           |
//! | Classifier | `[(Text classLabel, Number annotationCnt)]`       |
//! | Snippet    | `[(Text snippetValue)]`                           |
//!
//! `Elements[][]` stores, per representative, the ids of its contributing
//! raw annotations — the hook that zoom-in queries use to recover the raw
//! annotations behind a summary.
//!
//! ## Reading the stored form
//!
//! A tuple's summary set is one `R_SummaryStorage` row ([`encode_objects`]).
//! [`SummarySetView`] / [`ObjectView`] are *the* parser of that row: borrowed
//! readers that check a row once — structure, every count against the bytes
//! that remain before anything is sized, UTF-8 — and then answer instance
//! names, label counts, sizes and snippets from the bytes without
//! allocating. The layout is known to `ObjectView::read` and the three
//! `RepView::read`s and to nothing else: checking a row is stepping over it
//! with them, [`decode_objects`] and [`SummaryObject::decode`] are the same
//! steps copying out as they go (one pass over bytes nobody has checked),
//! and a checked view copies out without checking its texts again.
//! [`EncodedSummaries`] keeps a checked row as bytes for callers that may
//! never need the owned objects (the executor's scan leaves). [`SummaryRef`]
//! is one object seen either way — owned or still encoded — so the §3.1
//! functions are written once against it.

use instn_annot::AnnotId;
use instn_storage::Oid;

use crate::{CoreError, Result};

/// Identifier of a summary instance within a database.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct InstanceId(pub u32);

/// Identifier of a summary object.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ObjId(pub u64);

/// The three supported summary families.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SummaryType {
    /// Label histogram over the raw annotations.
    Classifier,
    /// Extractive snippets of large annotations.
    Snippet,
    /// Groups of similar annotations with representatives.
    Cluster,
}

impl SummaryType {
    /// Canonical name, as returned by `getSummaryType()` (§3.1).
    pub fn name(&self) -> &'static str {
        match self {
            SummaryType::Classifier => "Classifier",
            SummaryType::Snippet => "Snippet",
            SummaryType::Cluster => "Cluster",
        }
    }

    /// Parse from the canonical name.
    pub fn parse(s: &str) -> Option<SummaryType> {
        match s {
            "Classifier" => Some(SummaryType::Classifier),
            "Snippet" => Some(SummaryType::Snippet),
            "Cluster" => Some(SummaryType::Cluster),
            _ => None,
        }
    }
}

/// Classifier representatives: parallel label/count/element arrays in the
/// instance's fixed label order.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ClassifierRep {
    /// Class labels, in instance order.
    pub labels: Vec<String>,
    /// `annotationCnt` per label.
    pub counts: Vec<u64>,
    /// Contributing annotation ids per label (`Elements[][]`).
    pub elements: Vec<Vec<AnnotId>>,
}

impl ClassifierRep {
    /// Empty histogram over `labels`.
    pub fn new(labels: Vec<String>) -> Self {
        let n = labels.len();
        Self {
            labels,
            counts: vec![0; n],
            elements: vec![Vec::new(); n],
        }
    }

    /// Index of `label`.
    pub fn label_index(&self, label: &str) -> Option<usize> {
        self.labels.iter().position(|l| l == label)
    }

    /// Count for `label`, if the label exists.
    pub fn count(&self, label: &str) -> Option<u64> {
        self.label_index(label).map(|i| self.counts[i])
    }

    /// Total annotations across labels.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }
}

/// One snippet entry: the snippet text plus its source annotation.
#[derive(Debug, Clone, PartialEq)]
pub struct SnippetEntry {
    /// The extracted snippet (`snippetValue`).
    pub snippet: String,
    /// The summarized raw annotation.
    pub source: AnnotId,
}

/// Snippet representatives.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SnippetRep {
    /// Snippet entries, in arbitrary order (§3.1: "the order among the
    /// snippets is arbitrary").
    pub entries: Vec<SnippetEntry>,
}

/// One cluster group: representative + members.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterGroup {
    /// The elected representative annotation's id.
    pub rep_annot: AnnotId,
    /// The representative's text (reported at query time).
    pub rep_text: String,
    /// `groupSize`: number of member annotations.
    pub size: u64,
    /// Member annotation ids (`Elements[]` of this group).
    pub members: Vec<AnnotId>,
    /// Linear sum of member embeddings (internal: supports incremental
    /// centroid maintenance; never shown to end users).
    pub ls: Vec<f32>,
}

impl ClusterGroup {
    /// Centroid of the group's embedding cloud.
    pub fn centroid(&self) -> Vec<f64> {
        if self.size == 0 {
            return vec![0.0; self.ls.len()];
        }
        self.ls
            .iter()
            .map(|&x| x as f64 / self.size as f64)
            .collect()
    }
}

/// Cluster representatives.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ClusterRep {
    /// The groups.
    pub groups: Vec<ClusterGroup>,
}

/// The type-dependent `Rep[]` payload.
#[derive(Debug, Clone, PartialEq)]
pub enum Rep {
    /// Classifier payload.
    Classifier(ClassifierRep),
    /// Snippet payload.
    Snippet(SnippetRep),
    /// Cluster payload.
    Cluster(ClusterRep),
}

impl Rep {
    /// The summary type of this payload.
    pub fn summary_type(&self) -> SummaryType {
        match self {
            Rep::Classifier(_) => SummaryType::Classifier,
            Rep::Snippet(_) => SummaryType::Snippet,
            Rep::Cluster(_) => SummaryType::Cluster,
        }
    }
}

/// A summary object: the paper's five-ary vector.
#[derive(Debug, Clone, PartialEq)]
pub struct SummaryObject {
    /// Unique object id.
    pub obj_id: ObjId,
    /// The instance that produced it.
    pub instance_id: InstanceId,
    /// Instance name (denormalized for query-time `getSummaryName()`).
    pub instance_name: String,
    /// The annotated data tuple.
    pub tuple_id: Oid,
    /// Type-dependent representatives.
    pub rep: Rep,
}

impl SummaryObject {
    /// `getSummaryType()` (§3.1).
    pub fn summary_type(&self) -> SummaryType {
        self.rep.summary_type()
    }

    /// `getSummaryName()` (§3.1).
    pub fn summary_name(&self) -> &str {
        &self.instance_name
    }

    /// `getSize()`: number of representatives in `Rep[]` (§3.1).
    pub fn size(&self) -> usize {
        match &self.rep {
            Rep::Classifier(c) => c.labels.len(),
            Rep::Snippet(s) => s.entries.len(),
            Rep::Cluster(c) => c.groups.len(),
        }
    }

    /// `Elements[][]`: contributing annotation ids per representative.
    pub fn elements(&self) -> Vec<Vec<AnnotId>> {
        match &self.rep {
            Rep::Classifier(c) => c.elements.clone(),
            Rep::Snippet(s) => s.entries.iter().map(|e| vec![e.source]).collect(),
            Rep::Cluster(c) => c.groups.iter().map(|g| g.members.clone()).collect(),
        }
    }

    /// All contributing annotation ids, flattened and deduplicated.
    pub fn all_annotations(&self) -> Vec<AnnotId> {
        let mut ids: Vec<AnnotId> = self.elements().into_iter().flatten().collect();
        ids.sort_unstable();
        ids.dedup();
        ids
    }

    /// Whether the object summarizes no annotations.
    pub fn is_empty(&self) -> bool {
        match &self.rep {
            Rep::Classifier(c) => c.total() == 0,
            Rep::Snippet(s) => s.entries.is_empty(),
            Rep::Cluster(c) => c.groups.is_empty(),
        }
    }

    /// Serialize for the de-normalized SummaryStorage heap rows.
    pub fn encode(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.obj_id.0.to_le_bytes());
        out.extend_from_slice(&self.instance_id.0.to_le_bytes());
        put_str(out, &self.instance_name);
        out.extend_from_slice(&self.tuple_id.0.to_le_bytes());
        match &self.rep {
            Rep::Classifier(c) => {
                out.push(0);
                put_u32(out, c.labels.len() as u32);
                for i in 0..c.labels.len() {
                    put_str(out, &c.labels[i]);
                    out.extend_from_slice(&c.counts[i].to_le_bytes());
                    put_u32(out, c.elements[i].len() as u32);
                    for a in &c.elements[i] {
                        out.extend_from_slice(&a.0.to_le_bytes());
                    }
                }
            }
            Rep::Snippet(s) => {
                out.push(1);
                put_u32(out, s.entries.len() as u32);
                for e in &s.entries {
                    put_str(out, &e.snippet);
                    out.extend_from_slice(&e.source.0.to_le_bytes());
                }
            }
            Rep::Cluster(c) => {
                out.push(2);
                put_u32(out, c.groups.len() as u32);
                for g in &c.groups {
                    out.extend_from_slice(&g.rep_annot.0.to_le_bytes());
                    put_str(out, &g.rep_text);
                    out.extend_from_slice(&g.size.to_le_bytes());
                    put_u32(out, g.members.len() as u32);
                    for m in &g.members {
                        out.extend_from_slice(&m.0.to_le_bytes());
                    }
                    put_u32(out, g.ls.len() as u32);
                    for x in &g.ls {
                        out.extend_from_slice(&x.to_le_bytes());
                    }
                }
            }
        }
    }

    /// Deserialize one object, advancing `pos`: read its header through
    /// the borrowed reader, then copy the representatives out as that
    /// reader walks them.
    pub fn decode(bytes: &[u8], pos: &mut usize) -> Result<SummaryObject> {
        let mut rest = bytes.get(*pos..).ok_or_else(corrupt)?;
        let object = ObjectView::read(&mut rest)
            .and_then(|view| view.decode(&mut rest, check_text))
            .ok_or_else(corrupt)?;
        *pos = bytes.len() - rest.len();
        Ok(object)
    }
}

/// Encode a whole summary set (one SummaryStorage row).
pub fn encode_objects(objects: &[SummaryObject]) -> Vec<u8> {
    let mut out = Vec::with_capacity(64 * objects.len());
    put_u32(&mut out, objects.len() as u32);
    for o in objects {
        o.encode(&mut out);
    }
    out
}

/// Decode a summary set: one walk of the row's reader that checks and
/// copies out as it goes.
pub fn decode_objects(bytes: &[u8]) -> Result<Vec<SummaryObject>> {
    let mut rest = bytes;
    let count = take_u32(&mut rest).ok_or_else(corrupt)? as usize;
    decode_set(rest, count, check_text).ok_or_else(corrupt)
}

/// Smallest encoded object: ids, an empty name, the tag and the rep count.
const MIN_OBJECT_LEN: usize = 8 + 4 + 4 + 8 + 1 + 4;
/// Smallest encoded representative (a snippet: empty text and its source).
const MIN_REP_LEN: usize = 4 + 8;

/// Decode `count` objects from `objects` (the row after its count prefix),
/// making each text's bytes a `String` with `to_string`.
fn decode_set(
    mut objects: &[u8],
    count: usize,
    to_string: impl Fn(&[u8]) -> Option<String> + Copy,
) -> Option<Vec<SummaryObject>> {
    // A corrupt count must not size the allocation.
    let mut out = Vec::with_capacity(count.min(objects.len() / MIN_OBJECT_LEN));
    for _ in 0..count {
        out.push(ObjectView::read(&mut objects)?.decode(&mut objects, to_string)?);
    }
    Some(out)
}

/// Text nobody has looked at yet: a `String` only if it is UTF-8.
fn check_text(bytes: &[u8]) -> Option<String> {
    String::from_utf8(bytes.to_vec()).ok()
}

/// A borrowed reader over one encoded summary set (one `R_SummaryStorage`
/// row). [`SummarySetView::parse`] walks every object once without
/// allocating, so a view exists only over a well-formed row and its
/// accessors cannot fail.
#[derive(Debug, Clone, Copy)]
pub struct SummarySetView<'a> {
    /// The objects, after the count prefix.
    objects: &'a [u8],
    count: usize,
}

impl<'a> SummarySetView<'a> {
    /// Check `bytes` as an encoded summary set: structure, counts and
    /// UTF-8. A corrupt count sizes nothing — the walk fails at the first
    /// thing the row does not hold.
    pub fn parse(bytes: &'a [u8]) -> Result<Self> {
        let mut rest = bytes;
        let count = take_u32(&mut rest).ok_or_else(corrupt)? as usize;
        let objects = rest;
        for _ in 0..count {
            rest = ObjectView::read(&mut rest)
                .filter(|view| is_utf8(view.instance_name))
                .and_then(|view| view.after_reps(true))
                .ok_or_else(corrupt)?;
        }
        Ok(Self { objects, count })
    }

    /// `$.getSize()`: number of objects.
    pub fn len(&self) -> usize {
        self.count
    }

    /// Whether the set holds no object.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// The objects in stored order. Reaching an object steps over the ones
    /// before it; reading the first steps over nothing.
    pub fn iter(&self) -> impl Iterator<Item = ObjectView<'a>> + 'a {
        let mut rest = self.objects;
        let mut last: Option<ObjectView<'a>> = None;
        (0..self.count).map_while(move |_| {
            if let Some(prev) = last {
                rest = prev.after_reps(false)?;
            }
            last = ObjectView::read(&mut rest);
            last
        })
    }

    /// Copy every object out (one walk). The texts were checked once, by
    /// [`SummarySetView::parse`]; they are not checked again.
    pub fn to_owned(&self) -> Vec<SummaryObject> {
        let trust_text = |t: &[u8]| {
            debug_assert!(std::str::from_utf8(t).is_ok());
            // SAFETY: `objects` and `count` are private and set only by
            // `SummarySetView::parse` and `EncodedSummaries::view`, both
            // from bytes `parse` walked with the same `ObjectView::read`
            // and `RepView::read`s this decode uses, finding every text —
            // this one among them — to be UTF-8; the bytes are borrowed
            // immutably for `'a`, so they have not changed since.
            Some(unsafe { String::from_utf8_unchecked(t.to_vec()) })
        };
        // `parse` accepted these bytes, so the decode cannot fail.
        decode_set(self.objects, self.count, trust_text).unwrap_or_default()
    }
}

/// An encoded summary set that [`SummarySetView::parse`] accepted, kept as
/// bytes: what a raw fetch ([`crate::SummaryStorage::read_raw`]) hands up.
/// The default value is the empty set of an unannotated tuple (no row, no
/// bytes).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct EncodedSummaries(Vec<u8>);

impl EncodedSummaries {
    /// Check and keep `bytes`.
    pub fn new(bytes: Vec<u8>) -> Result<Self> {
        SummarySetView::parse(&bytes)?;
        Ok(Self(bytes))
    }

    /// The reader over the row.
    #[inline]
    pub fn view(&self) -> SummarySetView<'_> {
        let mut objects = &self.0[..];
        let count = take_u32(&mut objects).unwrap_or_default() as usize;
        SummarySetView { objects, count }
    }

    /// The row as stored (empty for an unannotated tuple).
    pub fn as_bytes(&self) -> &[u8] {
        &self.0
    }
}

/// A borrowed reader over one encoded summary object of a row
/// [`SummarySetView::parse`] accepted: the fixed header decoded, the
/// representatives still bytes. Texts are kept as the bytes they are and
/// turned into `&str` when asked for.
#[derive(Debug, Clone, Copy)]
pub struct ObjectView<'a> {
    obj_id: ObjId,
    instance_id: InstanceId,
    instance_name: &'a [u8],
    tuple_id: Oid,
    kind: SummaryType,
    reps: usize,
    /// The `reps` encoded representatives, and whatever follows them.
    body: &'a [u8],
}

/// One encoded representative: how to read it, and the text in it that a
/// check must find to be UTF-8. With [`ObjectView::read`], the three
/// implementations are the only code that knows the row's layout.
trait RepView<'a>: Sized {
    fn read(rest: &mut &'a [u8]) -> Option<Self>;
    fn text(&self) -> &'a [u8];
}

/// One classifier representative as stored.
struct LabelView<'a> {
    label: &'a [u8],
    count: u64,
    elements: &'a [u8],
}

/// One snippet representative as stored.
struct SnippetView<'a> {
    snippet: &'a [u8],
    source: AnnotId,
}

/// One cluster group as stored.
struct GroupView<'a> {
    rep_annot: AnnotId,
    rep_text: &'a [u8],
    size: u64,
    members: &'a [u8],
    ls: &'a [u8],
}

impl<'a> RepView<'a> for LabelView<'a> {
    #[inline]
    fn read(rest: &mut &'a [u8]) -> Option<Self> {
        Some(Self {
            label: take_text(rest)?,
            count: take_u64(rest)?,
            elements: take_array_of(rest, 8)?,
        })
    }

    fn text(&self) -> &'a [u8] {
        self.label
    }
}

impl<'a> RepView<'a> for SnippetView<'a> {
    #[inline]
    fn read(rest: &mut &'a [u8]) -> Option<Self> {
        Some(Self {
            snippet: take_text(rest)?,
            source: AnnotId(take_u64(rest)?),
        })
    }

    fn text(&self) -> &'a [u8] {
        self.snippet
    }
}

impl<'a> RepView<'a> for GroupView<'a> {
    #[inline]
    fn read(rest: &mut &'a [u8]) -> Option<Self> {
        Some(Self {
            rep_annot: AnnotId(take_u64(rest)?),
            rep_text: take_text(rest)?,
            size: take_u64(rest)?,
            members: take_array_of(rest, 8)?,
            ls: take_array_of(rest, 4)?,
        })
    }

    fn text(&self) -> &'a [u8] {
        self.rep_text
    }
}

/// Step over `n` representatives at the front of `rest`; with `check_text`,
/// also require their texts to be UTF-8.
fn after<'a, R: RepView<'a>>(mut rest: &'a [u8], n: usize, check_text: bool) -> Option<&'a [u8]> {
    for _ in 0..n {
        let rep = R::read(&mut rest)?;
        if check_text && !is_utf8(rep.text()) {
            return None;
        }
    }
    Some(rest)
}

fn annot_ids(raw: &[u8]) -> Vec<AnnotId> {
    let ids = raw.chunks_exact(8).map(|c| {
        let mut id = [0u8; 8];
        id.copy_from_slice(c);
        AnnotId(u64::from_le_bytes(id))
    });
    ids.collect()
}

impl<'a> ObjectView<'a> {
    /// Read the header of the encoded object at the front of `rest`,
    /// advancing to its first representative. The representatives are not
    /// walked: [`ObjectView::after_reps`] or [`ObjectView::decode`] does
    /// that.
    fn read(rest: &mut &'a [u8]) -> Option<Self> {
        let obj_id = ObjId(take_u64(rest)?);
        let instance_id = InstanceId(take_u32(rest)?);
        let instance_name = take_text(rest)?;
        let tuple_id = Oid(take_u64(rest)?);
        let kind = match take(rest, 1)? {
            [0] => SummaryType::Classifier,
            [1] => SummaryType::Snippet,
            [2] => SummaryType::Cluster,
            _ => return None,
        };
        let reps = take_u32(rest)? as usize;
        Some(Self {
            obj_id,
            instance_id,
            instance_name,
            tuple_id,
            kind,
            reps,
            body: rest,
        })
    }

    /// What follows this object's representatives. Every count is checked
    /// against the bytes that remain by stepping over what it counts;
    /// nothing is allocated.
    fn after_reps(&self, check_text: bool) -> Option<&'a [u8]> {
        match self.kind {
            SummaryType::Classifier => after::<LabelView>(self.body, self.reps, check_text),
            SummaryType::Snippet => after::<SnippetView>(self.body, self.reps, check_text),
            SummaryType::Cluster => after::<GroupView>(self.body, self.reps, check_text),
        }
    }

    /// Whether this is the object of the instance called `name`.
    pub fn is_named(&self, name: &str) -> bool {
        self.instance_name == name.as_bytes()
    }

    /// This object's representatives read as `R`s — none if it is of
    /// another family.
    fn reps<R: RepView<'a> + 'a>(&self, family: SummaryType) -> impl Iterator<Item = R> + 'a {
        let mut rest = self.body;
        let n = if self.kind == family { self.reps } else { 0 };
        (0..n).map_while(move |_| R::read(&mut rest))
    }

    /// Copy the object out, advancing `rest` (which [`ObjectView::read`]
    /// left at the first representative) past the last. A count sizes a
    /// `Vec` only as far as the bytes that remain could hold it.
    fn decode(
        &self,
        rest: &mut &'a [u8],
        to_string: impl Fn(&[u8]) -> Option<String>,
    ) -> Option<SummaryObject> {
        let cap = self.reps.min(rest.len() / MIN_REP_LEN);
        let rep = match self.kind {
            SummaryType::Classifier => {
                let mut c = ClassifierRep {
                    labels: Vec::with_capacity(cap),
                    counts: Vec::with_capacity(cap),
                    elements: Vec::with_capacity(cap),
                };
                for _ in 0..self.reps {
                    let l = LabelView::read(rest)?;
                    c.labels.push(to_string(l.label)?);
                    c.counts.push(l.count);
                    c.elements.push(annot_ids(l.elements));
                }
                Rep::Classifier(c)
            }
            SummaryType::Snippet => {
                let mut entries = Vec::with_capacity(cap);
                for _ in 0..self.reps {
                    let s = SnippetView::read(rest)?;
                    entries.push(SnippetEntry {
                        snippet: to_string(s.snippet)?,
                        source: s.source,
                    });
                }
                Rep::Snippet(SnippetRep { entries })
            }
            SummaryType::Cluster => {
                let mut groups = Vec::with_capacity(cap);
                for _ in 0..self.reps {
                    let g = GroupView::read(rest)?;
                    groups.push(ClusterGroup {
                        rep_annot: g.rep_annot,
                        rep_text: to_string(g.rep_text)?,
                        size: g.size,
                        members: annot_ids(g.members),
                        ls: g
                            .ls
                            .chunks_exact(4)
                            .map(|c| f32::from_le_bytes([c[0], c[1], c[2], c[3]]))
                            .collect(),
                    });
                }
                Rep::Cluster(ClusterRep { groups })
            }
        };
        Some(SummaryObject {
            obj_id: self.obj_id,
            instance_id: self.instance_id,
            instance_name: to_string(self.instance_name)?,
            tuple_id: self.tuple_id,
            rep,
        })
    }
}

/// One summary object, owned or still encoded. The per-object functions of
/// §3.1 (`getSummaryType()`, `getLabelValue(..)`, `getSnippet(i)`, …) need
/// exactly these six reads, so they are written once against this type and
/// serve a decoded [`SummaryObject`] and an [`ObjectView`] over stored bytes
/// alike. A read of the wrong family (labels of a snippet object, …) is
/// empty.
#[derive(Debug, Clone, Copy)]
pub enum SummaryRef<'a> {
    /// A decoded object.
    Owned(&'a SummaryObject),
    /// An object still in its `R_SummaryStorage` bytes.
    Encoded(ObjectView<'a>),
}

impl<'a> From<&'a SummaryObject> for SummaryRef<'a> {
    fn from(obj: &'a SummaryObject) -> Self {
        SummaryRef::Owned(obj)
    }
}

impl<'a> From<ObjectView<'a>> for SummaryRef<'a> {
    fn from(view: ObjectView<'a>) -> Self {
        SummaryRef::Encoded(view)
    }
}

/// An iterator that is one of two (the owned and the encoded reading of the
/// same thing).
enum Either<A, B> {
    Owned(A),
    Encoded(B),
}

impl<T, A: Iterator<Item = T>, B: Iterator<Item = T>> Iterator for Either<A, B> {
    type Item = T;
    fn next(&mut self) -> Option<T> {
        match self {
            Either::Owned(a) => a.next(),
            Either::Encoded(b) => b.next(),
        }
    }
}

impl<'a> SummaryRef<'a> {
    /// `getSummaryType()` (§3.1).
    pub fn summary_type(self) -> SummaryType {
        match self {
            SummaryRef::Owned(o) => o.summary_type(),
            SummaryRef::Encoded(v) => v.kind,
        }
    }

    /// `getSummaryName()` (§3.1).
    pub fn summary_name(self) -> &'a str {
        match self {
            SummaryRef::Owned(o) => &o.instance_name,
            SummaryRef::Encoded(v) => text(v.instance_name),
        }
    }

    /// `getSize()`: number of representatives in `Rep[]` (§3.1).
    pub fn size(self) -> usize {
        match self {
            SummaryRef::Owned(o) => o.size(),
            SummaryRef::Encoded(v) => v.reps,
        }
    }

    /// `annotationCnt` of the classifier label called `label`.
    pub fn label_count(self, label: &str) -> Option<u64> {
        match self {
            SummaryRef::Owned(o) => match &o.rep {
                Rep::Classifier(c) => c.count(label),
                _ => None,
            },
            SummaryRef::Encoded(v) => v
                .reps::<LabelView>(SummaryType::Classifier)
                .find(|l| l.label == label.as_bytes())
                .map(|l| l.count),
        }
    }

    /// Classifier `(classLabel, annotationCnt)` pairs in instance order.
    pub fn labels(self) -> impl Iterator<Item = (&'a str, u64)> + 'a {
        match self {
            SummaryRef::Owned(o) => {
                let (labels, counts): (&[String], &[u64]) = match &o.rep {
                    Rep::Classifier(c) => (&c.labels, &c.counts),
                    _ => (&[], &[]),
                };
                Either::Owned(
                    labels
                        .iter()
                        .map(String::as_str)
                        .zip(counts.iter().copied()),
                )
            }
            SummaryRef::Encoded(v) => Either::Encoded(
                v.reps::<LabelView>(SummaryType::Classifier)
                    .map(|l| (text(l.label), l.count)),
            ),
        }
    }

    /// Snippet values in stored order.
    pub fn snippets(self) -> impl Iterator<Item = &'a str> + 'a {
        match self {
            SummaryRef::Owned(o) => {
                let entries: &[SnippetEntry] = match &o.rep {
                    Rep::Snippet(s) => &s.entries,
                    _ => &[],
                };
                Either::Owned(entries.iter().map(|e| e.snippet.as_str()))
            }
            SummaryRef::Encoded(v) => Either::Encoded(
                v.reps::<SnippetView>(SummaryType::Snippet)
                    .map(|s| text(s.snippet)),
            ),
        }
    }

    /// Cluster `(representative text, groupSize)` pairs in stored order.
    pub fn groups(self) -> impl Iterator<Item = (&'a str, u64)> + 'a {
        match self {
            SummaryRef::Owned(o) => {
                let groups: &[ClusterGroup] = match &o.rep {
                    Rep::Cluster(c) => &c.groups,
                    _ => &[],
                };
                Either::Owned(groups.iter().map(|g| (g.rep_text.as_str(), g.size)))
            }
            SummaryRef::Encoded(v) => Either::Encoded(
                v.reps::<GroupView>(SummaryType::Cluster)
                    .map(|g| (text(g.rep_text), g.size)),
            ),
        }
    }
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    put_u32(out, s.len() as u32);
    out.extend_from_slice(s.as_bytes());
}

fn corrupt() -> CoreError {
    CoreError::Corrupt("malformed summary row".into())
}

/// The text of a row [`SummarySetView::parse`] accepted.
fn text(bytes: &[u8]) -> &str {
    std::str::from_utf8(bytes).unwrap_or_default()
}

fn is_utf8(bytes: &[u8]) -> bool {
    // ASCII needs no decoding to be known valid.
    bytes.is_ascii() || std::str::from_utf8(bytes).is_ok()
}

#[inline]
fn take<'a>(rest: &mut &'a [u8], n: usize) -> Option<&'a [u8]> {
    let (head, tail) = rest.split_at_checked(n)?;
    *rest = tail;
    Some(head)
}

#[inline]
fn take_u32(rest: &mut &[u8]) -> Option<u32> {
    let (v, tail) = rest.split_first_chunk()?;
    *rest = tail;
    Some(u32::from_le_bytes(*v))
}

#[inline]
fn take_u64(rest: &mut &[u8]) -> Option<u64> {
    let (v, tail) = rest.split_first_chunk()?;
    *rest = tail;
    Some(u64::from_le_bytes(*v))
}

/// A `u32` length followed by that many bytes of text.
#[inline]
fn take_text<'a>(rest: &mut &'a [u8]) -> Option<&'a [u8]> {
    let len = take_u32(rest)? as usize;
    take(rest, len)
}

/// A `u32` count followed by that many `width`-byte items: the items' bytes,
/// once the count has been checked against what remains.
#[inline]
fn take_array_of<'a>(rest: &mut &'a [u8], width: usize) -> Option<&'a [u8]> {
    let n = take_u32(rest)? as usize;
    take(rest, n.checked_mul(width)?)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn classifier_obj() -> SummaryObject {
        SummaryObject {
            obj_id: ObjId(1),
            instance_id: InstanceId(10),
            instance_name: "ClassBird1".into(),
            tuple_id: Oid(5),
            rep: Rep::Classifier(ClassifierRep {
                labels: vec!["Disease".into(), "Behavior".into()],
                counts: vec![8, 33],
                elements: vec![vec![AnnotId(1)], vec![AnnotId(2), AnnotId(3)]],
            }),
        }
    }

    fn snippet_obj() -> SummaryObject {
        SummaryObject {
            obj_id: ObjId(2),
            instance_id: InstanceId(11),
            instance_name: "TextSummary1".into(),
            tuple_id: Oid(5),
            rep: Rep::Snippet(SnippetRep {
                entries: vec![SnippetEntry {
                    snippet: "Experiment E …".into(),
                    source: AnnotId(9),
                }],
            }),
        }
    }

    fn cluster_obj() -> SummaryObject {
        SummaryObject {
            obj_id: ObjId(3),
            instance_id: InstanceId(12),
            instance_name: "SimCluster".into(),
            tuple_id: Oid(5),
            rep: Rep::Cluster(ClusterRep {
                groups: vec![ClusterGroup {
                    rep_annot: AnnotId(4),
                    rep_text: "Large one having size".into(),
                    size: 3,
                    members: vec![AnnotId(4), AnnotId(5), AnnotId(6)],
                    ls: vec![0.5; 4],
                }],
            }),
        }
    }

    #[test]
    fn encode_decode_each_type() {
        for obj in [classifier_obj(), snippet_obj(), cluster_obj()] {
            let mut bytes = Vec::new();
            obj.encode(&mut bytes);
            let mut pos = 0;
            let back = SummaryObject::decode(&bytes, &mut pos).unwrap();
            assert_eq!(back, obj);
            assert_eq!(pos, bytes.len());
        }
    }

    #[test]
    fn encode_decode_object_set() {
        let set = vec![classifier_obj(), snippet_obj(), cluster_obj()];
        let bytes = encode_objects(&set);
        assert_eq!(decode_objects(&bytes).unwrap(), set);
    }

    #[test]
    fn decode_rejects_truncation() {
        let mut bytes = Vec::new();
        classifier_obj().encode(&mut bytes);
        let mut pos = 0;
        assert!(SummaryObject::decode(&bytes[..bytes.len() - 3], &mut pos).is_err());
    }

    /// Offset of every count or length field in `encode_objects(set)`.
    fn count_offsets(set: &[SummaryObject]) -> Vec<usize> {
        let mut at = 0usize;
        let mut out = vec![at]; // objects in the set
        at += 4;
        for o in set {
            at += 8 + 4;
            out.push(at); // instance-name length
            at += 4 + o.instance_name.len() + 8 + 1;
            out.push(at); // representatives
            at += 4;
            match &o.rep {
                Rep::Classifier(c) => {
                    for (label, elements) in c.labels.iter().zip(&c.elements) {
                        out.push(at); // label length
                        at += 4 + label.len() + 8;
                        out.push(at); // elements of the label
                        at += 4 + 8 * elements.len();
                    }
                }
                Rep::Snippet(s) => {
                    for e in &s.entries {
                        out.push(at); // snippet length
                        at += 4 + e.snippet.len() + 8;
                    }
                }
                Rep::Cluster(c) => {
                    for g in &c.groups {
                        at += 8;
                        out.push(at); // representative-text length
                        at += 4 + g.rep_text.len() + 8;
                        out.push(at); // members
                        at += 4 + 8 * g.members.len();
                        out.push(at); // linear-sum components
                        at += 4 + 4 * g.ls.len();
                    }
                }
            }
        }
        assert_eq!(at, encode_objects(set).len(), "offsets mirror the encoding");
        out
    }

    /// One corrupt `u32` must not size an allocation: with any count field
    /// of a valid row overwritten by `u32::MAX` (4 Gi objects, labels,
    /// elements, members, …) every reader answers `Corrupt`.
    #[test]
    fn hostile_counts_are_corrupt_not_aborts() {
        let set = vec![classifier_obj(), snippet_obj(), cluster_obj()];
        let valid = encode_objects(&set);
        let offsets = count_offsets(&set);
        assert_eq!(offsets.len(), 1 + 3 * 2 + 2 * 2 + 1 + 3);
        for at in offsets {
            let mut bytes = valid.clone();
            bytes[at..at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
            let corrupt = |r: Result<usize>| matches!(r, Err(CoreError::Corrupt(_)));
            assert!(
                corrupt(decode_objects(&bytes).map(|s| s.len())),
                "decode_objects, count at {at}"
            );
            assert!(
                corrupt(SummarySetView::parse(&bytes).map(|v| v.len())),
                "SummarySetView::parse, count at {at}"
            );
            assert!(
                corrupt(EncodedSummaries::new(bytes.clone()).map(|e| e.view().len())),
                "EncodedSummaries::new, count at {at}"
            );
            if at >= 4 {
                // The set's first object alone, through the per-object door.
                let mut pos = 4;
                let first = SummaryObject::decode(&bytes, &mut pos);
                assert!(first.is_ok() || corrupt(first.map(|_| 0)));
            }
        }
    }

    #[test]
    fn accessors_match_paper_functions() {
        let c = classifier_obj();
        assert_eq!(c.summary_type(), SummaryType::Classifier);
        assert_eq!(c.summary_name(), "ClassBird1");
        assert_eq!(c.size(), 2);
        assert_eq!(c.elements().len(), 2);
        assert_eq!(
            c.all_annotations(),
            vec![AnnotId(1), AnnotId(2), AnnotId(3)]
        );
        assert!(!c.is_empty());

        let s = snippet_obj();
        assert_eq!(s.summary_type(), SummaryType::Snippet);
        assert_eq!(s.size(), 1);

        let cl = cluster_obj();
        assert_eq!(cl.summary_type(), SummaryType::Cluster);
        assert_eq!(cl.size(), 1);
        assert_eq!(cl.elements()[0].len(), 3);
    }

    #[test]
    fn classifier_rep_helpers() {
        let c = ClassifierRep {
            labels: vec!["A".into(), "B".into()],
            counts: vec![5, 7],
            elements: vec![vec![], vec![]],
        };
        assert_eq!(c.count("A"), Some(5));
        assert_eq!(c.count("C"), None);
        assert_eq!(c.total(), 12);
    }

    #[test]
    fn empty_objects_report_empty() {
        let c = SummaryObject {
            rep: Rep::Classifier(ClassifierRep::new(vec!["A".into()])),
            ..classifier_obj()
        };
        assert!(c.is_empty());
        let s = SummaryObject {
            rep: Rep::Snippet(SnippetRep::default()),
            ..snippet_obj()
        };
        assert!(s.is_empty());
    }

    #[test]
    fn summary_type_name_roundtrip() {
        for t in [
            SummaryType::Classifier,
            SummaryType::Snippet,
            SummaryType::Cluster,
        ] {
            assert_eq!(SummaryType::parse(t.name()), Some(t));
        }
        assert_eq!(SummaryType::parse("Foo"), None);
    }

    #[test]
    fn cluster_group_centroid() {
        let g = ClusterGroup {
            rep_annot: AnnotId(1),
            rep_text: "r".into(),
            size: 2,
            members: vec![AnnotId(1), AnnotId(2)],
            ls: vec![2.0, 4.0],
        };
        assert_eq!(g.centroid(), vec![1.0, 2.0]);
    }
}
