//! Property-based round-trips for the compressed-postings codecs: block
//! encode/decode, whole-store twins and partial-block posting
//! subranges must enumerate exactly what the raw layout holds.

use proptest::prelude::*;
use shift_search::codec;
use shift_search::postings::{DocNum, PostingsStore, BLOCK_LEN};

/// Sorts and dedups into a strictly-increasing doc-id list.
fn ascending(mut v: Vec<u32>) -> Vec<u32> {
    v.sort_unstable();
    v.dedup();
    v
}

/// Arbitrary strictly-increasing doc-id lists over the full `u32`
/// range: huge deltas, doc id 0 and `u32::MAX`, and runs of adjacent
/// ids all occur.
fn doc_id_list() -> impl Strategy<Value = Vec<u32>> {
    prop_oneof![
        // Full-range ids (deltas up to ~u32::MAX).
        prop::collection::vec(0u32..=u32::MAX, 1..150).prop_map(ascending),
        // Dense runs: equal gaps of 1 pack at width 0.
        (0u32..1000, 1usize..200).prop_map(|(start, n)| (start..start + n as u32).collect()),
        // Small constant gaps (runs of equal deltas).
        (0u32..1000, 1u32..16, 1usize..200)
            .prop_map(|(start, gap, n)| (0..n as u32).map(|i| start + i * gap).collect()),
    ]
}

/// Builds one raw and one compressed store over the same synthetic
/// corpus. Documents are added densely from 0 through the largest
/// listed id (the store requires sequential doc numbers); term "t" is
/// posted only in the listed docs (tf pattern derived from the
/// posting index), so its list carries exactly the requested gaps.
/// Filler terms in every doc make lists end mid-block.
fn twin_stores(docs: &[DocNum]) -> (PostingsStore, PostingsStore) {
    let mut raw = PostingsStore::new();
    let mut packed = PostingsStore::new_compressed();
    let last = *docs.last().expect("non-empty doc list");
    let mut next = 0usize;
    for d in 0..=last {
        let (title, mut body): (Vec<String>, Vec<String>) = if next < docs.len() && docs[next] == d
        {
            let i = next;
            next += 1;
            (
                std::iter::repeat_with(|| "t".to_string())
                    .take((i % 3) + 1)
                    .collect(),
                std::iter::repeat_with(|| "t".to_string())
                    .take(i % 4)
                    .collect(),
            )
        } else {
            (Vec::new(), Vec::new())
        };
        body.push(format!("filler{}", d % 7));
        raw.add_document(d, &title, &body);
        packed.add_document(d, &title, &body);
    }
    raw.finish();
    packed.finish();
    (raw, packed)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Block codec round-trip over adversarial doc-id lists, including
    /// partial final blocks and full-range deltas.
    #[test]
    fn block_codec_roundtrips(docs in doc_id_list()) {
        for chunk in docs.chunks(BLOCK_LEN) {
            let titles: Vec<u32> = (0..chunk.len() as u32).map(|i| i % 5).collect();
            let bodies: Vec<u32> = (0..chunk.len() as u32).map(|i| (i * 7) % 9).collect();
            let mut buf = Vec::new();
            codec::encode_block(&mut buf, chunk, &titles, &bodies);
            let mut d = [0u32; BLOCK_LEN];
            let mut t = [0u32; BLOCK_LEN];
            let mut b = [0u32; BLOCK_LEN];
            let n = chunk.len();
            let doc_sec = codec::decode_block_docs(&buf, n, &mut d);
            prop_assert_eq!(doc_sec, codec::doc_section_len(&buf, n));
            codec::decode_block_tfs(&buf, doc_sec, n, &mut t, &mut b);
            prop_assert_eq!(&d[..n], chunk);
            prop_assert_eq!(&t[..n], titles.as_slice());
            prop_assert_eq!(&b[..n], bodies.as_slice());
        }
    }

    /// Position codec round-trip over arbitrary strictly-increasing
    /// position lists (empty lists included).
    #[test]
    fn position_codec_roundtrips(
        positions in prop::collection::vec(0u32..=u32::MAX, 0..100).prop_map(ascending)
    ) {
        let mut out = Vec::new();
        codec::encode_positions(&mut out, &positions);
        let mut back = Vec::new();
        codec::decode_positions(&out, |p| back.push(p));
        prop_assert_eq!(back, positions);
    }

    /// A compressed store iterates exactly the postings and positions
    /// its raw twin holds.
    #[test]
    fn compressed_store_mirrors_raw(docs in prop::collection::vec(0u32..5000, 1..260).prop_map(ascending)) {
        let (raw, packed) = twin_stores(&docs);
        let id_r = raw.term_id("t").expect("term indexed");
        let id_p = packed.term_id("t").expect("term indexed");
        prop_assert_eq!(raw.doc_freq_by_id(id_r), packed.doc_freq_by_id(id_p));

        let collect = |store: &PostingsStore, id| {
            let mut v: Vec<(usize, DocNum, u32, u32)> = Vec::new();
            store.for_each_posting(id, |at, doc, tt, bt| v.push((at, doc, tt, bt)));
            v
        };
        let r = collect(&raw, id_r);
        let p = collect(&packed, id_p);
        prop_assert_eq!(&r, &p);
        for &(at, _, _, _) in &r {
            let mut pr = Vec::new();
            raw.for_each_position(id_r, at, |pos| pr.push(pos));
            let mut pp = Vec::new();
            packed.for_each_position(id_p, at, |pos| pp.push(pos));
            prop_assert_eq!(pr, pp);
        }
    }

    /// Partial-block subranges decode head and tail cuts exactly: any
    /// `[lo, hi)` of the list enumerates the same postings as the raw
    /// slice.
    #[test]
    fn posting_subranges_cut_blocks_exactly(
        docs in prop::collection::vec(0u32..4000, 1..300).prop_map(ascending),
        cuts in prop::collection::vec((0.0f64..1.0, 0.0f64..1.0), 1..12),
    ) {
        let (raw, packed) = twin_stores(&docs);
        let id_r = raw.term_id("t").expect("term indexed");
        let id_p = packed.term_id("t").expect("term indexed");
        let n = docs.len() as u32;
        for (a, b) in cuts {
            let lo = (a * n as f64) as u32;
            let hi = lo + ((b * (n - lo.min(n)) as f64) as u32);
            let collect = |store: &PostingsStore, id| {
                let mut v: Vec<(usize, DocNum, u32, u32)> = Vec::new();
                store.for_each_posting_range(id, lo, hi.min(n), &mut |at, doc, tt, bt| {
                    v.push((at, doc, tt, bt))
                });
                v
            };
            prop_assert_eq!(collect(&raw, id_r), collect(&packed, id_p));
        }
    }
}

/// Handwritten adversarial shapes the generators hit only rarely: doc
/// id 0, a lone posting, extreme deltas and an exactly-full block.
#[test]
fn adversarial_edge_lists_roundtrip() {
    for docs in [
        vec![0u32],
        vec![u32::MAX],
        vec![0, u32::MAX - 1, u32::MAX],
        (0..BLOCK_LEN as u32).collect::<Vec<u32>>(),
        (0..=BLOCK_LEN as u32).collect::<Vec<u32>>(),
    ] {
        let titles = vec![1u32; docs.len()];
        let bodies = vec![0u32; docs.len()];
        for chunk_docs in docs.chunks(BLOCK_LEN) {
            let mut buf = Vec::new();
            codec::encode_block(
                &mut buf,
                chunk_docs,
                &titles[..chunk_docs.len()],
                &bodies[..chunk_docs.len()],
            );
            let mut d = [0u32; BLOCK_LEN];
            let sec = codec::decode_block_docs(&buf, chunk_docs.len(), &mut d);
            assert_eq!(sec, codec::doc_section_len(&buf, chunk_docs.len()));
            assert_eq!(&d[..chunk_docs.len()], chunk_docs);
        }
    }
}
