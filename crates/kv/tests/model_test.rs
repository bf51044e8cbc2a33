//! Model-based property test: the store must agree with a plain
//! `BTreeMap` under arbitrary interleavings of puts, deletes, batches,
//! point reads and range reads.

use proptest::prelude::*;
use std::collections::BTreeMap;
use vdisk_kv::LsmStore;

#[derive(Debug, Clone)]
enum Op {
    Put(u16, Vec<u8>),
    Delete(u16),
    Batch(Vec<(u16, Option<Vec<u8>>)>),
    CheckGet(u16),
    CheckRange(u16, u16),
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (any::<u16>(), proptest::collection::vec(any::<u8>(), 0..24))
            .prop_map(|(k, v)| Op::Put(k % 64, v)),
        any::<u16>().prop_map(|k| Op::Delete(k % 64)),
        proptest::collection::vec(
            (
                any::<u16>(),
                proptest::option::of(proptest::collection::vec(any::<u8>(), 0..16))
            ),
            1..6
        )
        .prop_map(|entries| Op::Batch(entries.into_iter().map(|(k, v)| (k % 64, v)).collect())),
        any::<u16>().prop_map(|k| Op::CheckGet(k % 64)),
        (any::<u16>(), any::<u16>()).prop_map(|(a, b)| Op::CheckRange(a % 64, b % 64)),
    ]
}

fn key_bytes(k: u16) -> Vec<u8> {
    k.to_be_bytes().to_vec()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn lsm_matches_btreemap_model(ops in proptest::collection::vec(arb_op(), 1..120)) {
        let mut store = LsmStore::default();
        let mut model: BTreeMap<Vec<u8>, Vec<u8>> = BTreeMap::new();

        for op in ops {
            match op {
                Op::Put(k, v) => {
                    store.put(key_bytes(k), v.clone());
                    model.insert(key_bytes(k), v);
                }
                Op::Delete(k) => {
                    store.write_batch(vec![(key_bytes(k), None)]);
                    model.remove(&key_bytes(k));
                }
                Op::Batch(entries) => {
                    let batch: Vec<(Vec<u8>, Option<Vec<u8>>)> = entries
                        .iter()
                        .map(|(k, v)| (key_bytes(*k), v.clone()))
                        .collect();
                    store.write_batch(batch);
                    for (k, v) in entries {
                        match v {
                            Some(v) => {
                                model.insert(key_bytes(k), v);
                            }
                            None => {
                                model.remove(&key_bytes(k));
                            }
                        }
                    }
                }
                Op::CheckGet(k) => {
                    let (got, _) = store.get(&key_bytes(k));
                    prop_assert_eq!(
                        got.as_deref(),
                        model.get(&key_bytes(k)).map(Vec::as_slice),
                        "get({}) diverged", k
                    );
                }
                Op::CheckRange(a, b) => {
                    let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
                    let (got, _) = store.range(&key_bytes(lo), &key_bytes(hi));
                    let expected: Vec<(Vec<u8>, Vec<u8>)> = model
                        .range(key_bytes(lo)..key_bytes(hi))
                        .map(|(k, v)| (k.clone(), v.clone()))
                        .collect();
                    prop_assert_eq!(got, expected, "range [{}, {}) diverged", lo, hi);
                }
            }
        }

        // Final full sweep.
        let (got, _) = store.range(&[], &[0xFF; 3]);
        let expected: Vec<(Vec<u8>, Vec<u8>)> =
            model.iter().map(|(k, v)| (k.clone(), v.clone())).collect();
        prop_assert_eq!(got, expected, "final full range diverged");
    }
}
