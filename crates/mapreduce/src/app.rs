//! The user-code interface: map/combine/reduce functions, cost profiles,
//! and partitioners.

use crate::types::{Record, K, V};
use serde::{Deserialize, Serialize};
use simcore::hash::FnvBuildHasher;
use std::collections::HashMap;

/// CPU cost model of an application, in guest cycles. The engine measures
/// real byte/record counts from the executed data and multiplies by these
/// coefficients to size the compute flows.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CostProfile {
    /// Map-side cycles per input byte.
    pub map_cpu_per_byte: f64,
    /// Map-side cycles per input record (function-call + object overhead).
    pub map_cpu_per_record: f64,
    /// Reduce-side cycles per shuffled byte.
    pub reduce_cpu_per_byte: f64,
    /// Reduce-side cycles per intermediate record.
    pub reduce_cpu_per_record: f64,
    /// Merge-sort cycles per byte per log2(segment) during the sort phase.
    pub sort_cpu_per_byte: f64,
}

impl Default for CostProfile {
    fn default() -> Self {
        // Calibrated to 2012-era Hadoop on Java: tens of cycles per byte,
        // thousands per record (deserialization, object churn).
        CostProfile {
            map_cpu_per_byte: 40.0,
            map_cpu_per_record: 4_000.0,
            reduce_cpu_per_byte: 30.0,
            reduce_cpu_per_record: 3_000.0,
            sort_cpu_per_byte: 12.0,
        }
    }
}

/// Decides which reduce partition a key belongs to.
pub trait Partitioner: Send + Sync {
    /// Partition index in `0..n` for `key`.
    fn partition(&self, key: &K, n: u32) -> u32;
}

/// Hadoop's default: `hash(key) mod n`.
#[derive(Debug, Clone, Copy, Default)]
pub struct HashPartitioner;

impl Partitioner for HashPartitioner {
    fn partition(&self, key: &K, n: u32) -> u32 {
        (key.stable_hash() % u64::from(n.max(1))) as u32
    }
}

/// Range partitioner over byte keys (TeraSort's total-order partitioner):
/// splits the key space into `n` equal lexicographic ranges by the first
/// two bytes.
#[derive(Debug, Clone, Copy, Default)]
pub struct RangePartitioner;

impl Partitioner for RangePartitioner {
    fn partition(&self, key: &K, n: u32) -> u32 {
        let n = n.max(1);
        let prefix: u32 = match key {
            K::Bytes(b) => {
                let b0 = b.first().copied().unwrap_or(0) as u32;
                let b1 = b.get(1).copied().unwrap_or(0) as u32;
                (b0 << 8) | b1
            }
            K::Int(i) => (*i as u64 % 65536) as u32,
            K::Text(s) => {
                let b = s.as_bytes();
                let b0 = b.first().copied().unwrap_or(0) as u32;
                let b1 = b.get(1).copied().unwrap_or(0) as u32;
                (b0 << 8) | b1
            }
        };
        ((u64::from(prefix) * u64::from(n)) / 65536) as u32
    }
}

/// A MapReduce application. Implementations run for real inside the
/// simulation: `map` over every input record, `reduce` over every grouped
/// key, with output sizes measured from the records actually emitted.
pub trait MapReduceApp {
    /// Human-readable job name.
    fn name(&self) -> &str;

    /// Map one input record, emitting intermediate records through `out`.
    fn map(&self, key: &K, value: &V, out: &mut dyn FnMut(K, V));

    /// Reduce all values of one key, emitting output records through `out`.
    fn reduce(&self, key: &K, values: &[V], out: &mut dyn FnMut(K, V));

    /// Optional map-side combiner over one key's map-local values. Emitting
    /// through `out` and returning `true` replaces the group before it is
    /// spilled and shuffled; returning `false` (the default) declines, and
    /// the group is shuffled verbatim.
    fn combine(&self, _key: &K, _values: &[V], _out: &mut dyn FnMut(K, V)) -> bool {
        false
    }

    /// The partitioner to shuffle with.
    fn partitioner(&self) -> Box<dyn Partitioner> {
        Box::new(HashPartitioner)
    }

    /// CPU cost coefficients.
    fn cost(&self) -> CostProfile {
        CostProfile::default()
    }
}

/// One key's records on the map side, in [`hash_combine`].
struct Group {
    /// Arrival index of the key's first record.
    first: usize,
    /// Number of records with the key.
    len: usize,
    /// The key's values, in arrival order.
    values: Vec<V>,
    /// The key's partition.
    part: usize,
    /// How many records the combiner emitted for the group.
    emitted: usize,
    /// Whether the combiner took the group (`combine` returned `true`).
    combined: bool,
}

/// Partitions and combines one map's output into `n` partitions.
///
/// The records are grouped by key in one hash pass, only the distinct keys
/// are sorted, and the partitioner and `app.combine` run once per distinct
/// key, in key order, so every partition comes out sorted by key. A group
/// the combiner declines goes back verbatim, after anything it emitted. A
/// partition in which no group was combined keeps its records in arrival
/// order, exactly as with the combiner off.
pub(crate) fn hash_combine(
    app: &dyn MapReduceApp,
    partitioner: &dyn Partitioner,
    n: usize,
    mut records: Vec<Record>,
) -> Vec<Vec<Record>> {
    // Group ids are handed out in first-arrival order. The index is only
    // probed, never iterated, so its layout cannot reach the output.
    let mut ids = Vec::with_capacity(records.len());
    let mut groups: Vec<Group> = Vec::new();
    let mut index: HashMap<&K, usize, FnvBuildHasher> = HashMap::default();
    for (i, (k, _)) in records.iter().enumerate() {
        let g = *index.entry(k).or_insert_with(|| {
            let part = (partitioner.partition(k, n as u32) as usize).min(n - 1);
            let values = Vec::new();
            groups.push(Group { first: i, len: 0, values, part, emitted: 0, combined: false });
            groups.len() - 1
        });
        groups[g].len += 1;
        ids.push(g);
    }
    drop(index);
    // Move the values next to each other per group, as `combine` takes a
    // slice; each group allocates once, at its counted size.
    for grp in &mut groups {
        grp.values.reserve_exact(grp.len);
    }
    for ((_, v), &g) in records.iter_mut().zip(&ids) {
        groups[g].values.push(std::mem::replace(v, V::Null));
    }

    let key = |grp: &Group| &records[grp.first].0;
    let mut order: Vec<usize> = (0..groups.len()).collect();
    order.sort_unstable_by(|&a, &b| key(&groups[a]).cmp(key(&groups[b])));
    let mut out: Vec<Record> = Vec::new();
    let mut kept = vec![false; n];
    for &g in &order {
        let grp = &mut groups[g];
        let before = out.len();
        grp.combined = app.combine(key(grp), &grp.values, &mut |k, v| out.push((k, v)));
        grp.emitted = out.len() - before;
        kept[grp.part] |= grp.combined;
    }

    // Partitions with a combined group: the combiner's output in key order.
    let mut parts: Vec<Vec<Record>> = vec![Vec::new(); n];
    let mut out = out.into_iter();
    for &g in &order {
        let grp = &mut groups[g];
        let emitted = out.by_ref().take(grp.emitted);
        if !kept[grp.part] {
            emitted.for_each(drop);
            continue;
        }
        let part = &mut parts[grp.part];
        part.extend(emitted);
        if !grp.combined {
            let k = key(grp);
            part.extend(std::mem::take(&mut grp.values).into_iter().map(|v| (k.clone(), v)));
        }
    }
    // The other partitions: the records as they arrived.
    if groups.iter().any(|grp| !kept[grp.part]) {
        let mut rest: Vec<_> = groups.into_iter().map(|g| (g.part, g.values.into_iter())).collect();
        for ((k, _), g) in records.into_iter().zip(ids) {
            let (p, values) = &mut rest[g];
            if !kept[*p] {
                parts[*p].push((k, values.next().expect("one value per record")));
            }
        }
    }
    parts
}

/// Groups one reduce partition's input, `segments` (one per map, in map
/// order), and calls `f` once per distinct key, in key order, with the
/// key's values in arrival order. Records are borrowed: only references are
/// stable-sorted, and one reused buffer holds each group's values. Returns
/// the number of groups.
pub(crate) fn sort_groups<'a>(
    segments: impl IntoIterator<Item = &'a [Record]>,
    mut f: impl FnMut(&K, &[V]),
) -> u64 {
    let mut recs: Vec<&Record> = segments.into_iter().flatten().collect();
    recs.sort_by(|a, b| a.0.cmp(&b.0));
    let mut values: Vec<V> = Vec::new();
    let mut groups = 0;
    for run in recs.chunk_by(|a, b| a.0 == b.0) {
        values.clear();
        values.extend(run.iter().map(|r| r.1.clone()));
        f(&run[0].0, &values);
        groups += 1;
    }
    groups
}

#[cfg(test)]
mod tests {
    use super::*;

    struct CountApp;
    impl MapReduceApp for CountApp {
        fn name(&self) -> &str {
            "count"
        }
        fn map(&self, _k: &K, value: &V, out: &mut dyn FnMut(K, V)) {
            for w in value.as_text().split_whitespace() {
                out(K::from(w), V::Int(1));
            }
        }
        fn reduce(&self, key: &K, values: &[V], out: &mut dyn FnMut(K, V)) {
            out(key.clone(), V::Int(values.iter().map(V::as_int).sum()));
        }
        fn combine(&self, key: &K, values: &[V], out: &mut dyn FnMut(K, V)) -> bool {
            out(key.clone(), V::Int(values.iter().map(V::as_int).sum()));
            true
        }
    }

    /// Reference grouping: stable-sort every record by key, then cut runs.
    fn group_by_key(mut records: Vec<Record>) -> Vec<(K, Vec<V>)> {
        records.sort_by(|a, b| a.0.cmp(&b.0));
        let mut out: Vec<(K, Vec<V>)> = Vec::new();
        for (k, v) in records {
            match out.last_mut() {
                Some((lk, vals)) if *lk == k => vals.push(v),
                _ => out.push((k, vec![v])),
            }
        }
        out
    }

    /// Reference map side: partition per record, then per partition group
    /// by sorting and combine each group; a partition in which no group
    /// combined is kept as partitioned.
    fn reference_combine(
        app: &dyn MapReduceApp,
        partitioner: &dyn Partitioner,
        n: usize,
        records: Vec<Record>,
    ) -> Vec<Vec<Record>> {
        let mut parts: Vec<Vec<Record>> = vec![Vec::new(); n];
        for (k, v) in records {
            let p = partitioner.partition(&k, n as u32) as usize;
            parts[p.min(n - 1)].push((k, v));
        }
        parts
            .into_iter()
            .map(|p| {
                let mut out = Vec::new();
                let mut any = false;
                for (k, vals) in group_by_key(p.clone()) {
                    if app.combine(&k, &vals, &mut |ek, ev| out.push((ek, ev))) {
                        any = true;
                    } else {
                        out.extend(vals.into_iter().map(|v| (k.clone(), v)));
                    }
                }
                if any {
                    out
                } else {
                    p
                }
            })
            .collect()
    }

    fn collect_groups(segments: &[Vec<Record>]) -> Vec<(K, Vec<V>)> {
        let mut got = Vec::new();
        sort_groups(segments.iter().map(Vec::as_slice), |k, vs| got.push((k.clone(), vs.to_vec())));
        got
    }

    #[test]
    fn group_by_key_sorts_and_groups() {
        let segments = vec![
            vec![(K::from("b"), V::Int(1)), (K::from("a"), V::Int(2))],
            vec![],
            vec![(K::from("b"), V::Int(3))],
        ];
        let grouped = collect_groups(&segments);
        assert_eq!(grouped.len(), 2);
        assert_eq!(grouped[0].0, K::from("a"));
        assert_eq!(grouped[1].1, vec![V::Int(1), V::Int(3)]);
    }

    #[test]
    fn combiner_shrinks_output() {
        let recs =
            vec![(K::from("x"), V::Int(1)), (K::from("x"), V::Int(1)), (K::from("y"), V::Int(1))];
        let parts = hash_combine(&CountApp, &HashPartitioner, 1, recs);
        assert_eq!(parts[0], vec![(K::from("x"), V::Int(2)), (K::from("y"), V::Int(1))]);
    }

    #[test]
    fn hash_partitioner_is_stable_and_in_range() {
        let p = HashPartitioner;
        for i in 0..100i64 {
            let k = K::Int(i);
            let a = p.partition(&k, 7);
            assert_eq!(a, p.partition(&k, 7));
            assert!(a < 7);
        }
    }

    #[test]
    fn hash_partitioner_assignments_are_pinned() {
        // The map side calls the partitioner once per distinct key, so the
        // assignment must be a pure function of the key. Pinned on the
        // current toolchain: see `K::stable_hash` for why it may move.
        let keys = [
            K::from("the"),
            K::from("hadoop"),
            K::from(""),
            K::Int(0),
            K::Int(42),
            K::Int(-7),
            K::Bytes(vec![]),
            K::Bytes(vec![0xde, 0xad, 0xbe, 0xef]),
        ];
        let got: Vec<(u32, u32)> = keys
            .iter()
            .map(|k| (HashPartitioner.partition(k, 4), HashPartitioner.partition(k, 7)))
            .collect();
        assert_eq!(got, [(2, 1), (2, 2), (1, 3), (0, 4), (2, 2), (2, 5), (3, 6), (1, 4)]);
    }

    #[test]
    fn range_partitioner_is_monotone() {
        let p = RangePartitioner;
        let k1 = K::Bytes(vec![0, 0, 0]);
        let k2 = K::Bytes(vec![128, 0, 0]);
        let k3 = K::Bytes(vec![255, 255, 0]);
        let (a, b, c) = (p.partition(&k1, 4), p.partition(&k2, 4), p.partition(&k3, 4));
        assert!(a <= b && b <= c);
        assert_eq!(a, 0);
        assert_eq!(c, 3);
    }

    #[test]
    fn partition_zero_n_is_safe() {
        assert_eq!(HashPartitioner.partition(&K::Int(1), 0), 0);
        assert_eq!(RangePartitioner.partition(&K::Int(1), 0), 0);
    }

    /// Combines the keys `take` accepts into one tuple of their values (so
    /// value order shows), emits a marker and declines the rest.
    struct PickyApp {
        take: fn(&K) -> bool,
    }
    impl MapReduceApp for PickyApp {
        fn name(&self) -> &str {
            "picky"
        }
        fn map(&self, _k: &K, _v: &V, _out: &mut dyn FnMut(K, V)) {}
        fn reduce(&self, _k: &K, _vs: &[V], _out: &mut dyn FnMut(K, V)) {}
        fn combine(&self, key: &K, values: &[V], out: &mut dyn FnMut(K, V)) -> bool {
            if (self.take)(key) {
                out(key.clone(), V::Tuple(values.to_vec()));
                true
            } else {
                if values.len() > 2 {
                    out(K::Int(-1), V::Null);
                }
                false
            }
        }
    }

    /// Adversarial key sets: all one key, all distinct, every kind mixed,
    /// or a few keys spread over many partitions (most left empty).
    fn gen_records(g: &mut proptest::Gen) -> Vec<Record> {
        let n = g.usize_in(0, 200);
        let shape = g.usize_in(0, 3);
        let distinct = g.usize_in(1, 12);
        (0..n)
            .map(|i| {
                let key = match shape {
                    0 => K::from("same"),
                    1 => K::Int(i as i64 * 7919 % 1009),
                    _ => {
                        let j = g.usize_in(0, distinct - 1);
                        match g.usize_in(0, 2) {
                            0 => K::Int(j as i64 - 3),
                            1 => K::Text(format!("w{j}")),
                            _ => K::Bytes(vec![j as u8; j % 3]),
                        }
                    }
                };
                (key, V::Int(i as i64))
            })
            .collect()
    }

    #[test]
    fn groupings_match_the_sort_reference() {
        fn everything(_: &K) -> bool {
            true
        }
        fn nothing(_: &K) -> bool {
            false
        }
        fn ints(k: &K) -> bool {
            matches!(k, K::Int(_))
        }
        let pickers: [fn(&K) -> bool; 3] = [everything, nothing, ints];
        proptest::check("map-and-reduce-grouping", proptest::Config::with_cases(200), |g| {
            let records = gen_records(g);
            let n = g.usize_in(1, 9);
            let partitioner: &dyn Partitioner =
                if g.bool(0.5) { &HashPartitioner } else { &RangePartitioner };
            let app = PickyApp { take: *g.choose(&pickers) };
            let got = hash_combine(&app, partitioner, n, records.clone());
            assert_eq!(got, reference_combine(&app, partitioner, n, records.clone()));

            // The reduce side sees several maps' partitions in map order.
            let cut = g.usize_in(0, records.len());
            let segments = vec![records[..cut].to_vec(), vec![], records[cut..].to_vec()];
            assert_eq!(collect_groups(&segments), group_by_key(records));
        });
    }
}
