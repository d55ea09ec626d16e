//! Block codecs for the compressed postings read path.
//!
//! The immutable index stores each term's postings in blocks of
//! [`crate::BLOCK_LEN`] entries, aligned with the block table so the
//! kernel can skip and decode at block granularity. One encoded block is a single byte stream:
//!
//! ```text
//! [varint first_doc] [u8 width] [bit-packed (count-1) × (delta-1)]
//! [u8 tw] [u8 bw] [bit-packed count × title_tf] [bit-packed count × body_tf]
//! ```
//!
//! Document ids are strictly increasing inside a list, so consecutive
//! gaps are ≥ 1 and the codec stores `delta - 1`; a run of adjacent
//! documents packs at width 0 (no payload bytes at all). All widths are
//! fixed per block (the bit width of the largest value), LSB-first.
//! The document section's byte length is computable from its header
//! alone (`varint` length + 1 + ceil((count-1)·width / 8)), so term
//! frequencies can be located without decoding the ids and vice versa.
//!
//! Position streams are encoded per posting as varints (first position
//! raw, then gaps, which are ≥ 1 inside one posting) and addressed by a
//! per-posting byte-offset array; decoding walks the byte range, so no
//! explicit count is stored.
//!
//! Everything here is lossless: `encode → decode` reproduces the exact
//! `u32` sequences, which is what keeps compressed-path SERPs
//! byte-identical to the raw layout.

/// Appends `v` to `out` as an LEB128 varint (7 bits per byte, low
/// bits first, high bit = continuation).
#[inline]
pub fn write_varint(out: &mut Vec<u8>, mut v: u32) {
    while v >= 0x80 {
        out.push((v as u8 & 0x7f) | 0x80);
        v >>= 7;
    }
    out.push(v as u8);
}

/// Decodes one LEB128 varint from `data` starting at `*pos`, advancing
/// `*pos` past it.
#[inline]
pub fn read_varint(data: &[u8], pos: &mut usize) -> u32 {
    let mut v = 0u32;
    let mut shift = 0u32;
    loop {
        let b = data[*pos];
        *pos += 1;
        v |= u32::from(b & 0x7f) << shift;
        if b < 0x80 {
            return v;
        }
        shift += 7;
    }
}

/// Encoded byte length of `v` as an LEB128 varint.
#[inline]
pub fn varint_len(v: u32) -> usize {
    match v {
        0..=0x7f => 1,
        0x80..=0x3fff => 2,
        0x4000..=0x1f_ffff => 3,
        0x20_0000..=0xfff_ffff => 4,
        _ => 5,
    }
}

/// Minimal bit width (0..=32) that can represent `v`.
#[inline]
pub fn bits_for(v: u32) -> u8 {
    (32 - v.leading_zeros()) as u8
}

/// Appends `values` to `out` bit-packed at fixed `width` bits each,
/// LSB-first, padded with zero bits to the next byte boundary. A width
/// of 0 writes nothing.
pub fn pack_bits(out: &mut Vec<u8>, values: &[u32], width: u8) {
    if width == 0 {
        return;
    }
    let mut acc = 0u64;
    let mut used = 0u32;
    for &v in values {
        debug_assert!(width == 32 || v < (1u32 << width), "value exceeds width");
        acc |= u64::from(v) << used;
        used += u32::from(width);
        while used >= 8 {
            out.push(acc as u8);
            acc >>= 8;
            used -= 8;
        }
    }
    if used > 0 {
        out.push(acc as u8);
    }
}

/// Decodes `out.len()` values of fixed `width` bits each from the
/// start of `data` (LSB-first), the inverse of [`pack_bits`]. A width
/// of 0 fills `out` with zeros. Returns the number of payload bytes
/// consumed: `ceil(out.len() · width / 8)`.
pub fn unpack_bits(data: &[u8], width: u8, out: &mut [u32]) -> usize {
    if width == 0 {
        out.fill(0);
        return 0;
    }
    let mask = if width == 32 {
        u64::from(u32::MAX)
    } else {
        (1u64 << width) - 1
    };
    let mut acc = 0u64;
    let mut avail = 0u32;
    let mut byte = 0usize;
    for slot in out.iter_mut() {
        while avail < u32::from(width) {
            acc |= u64::from(data[byte]) << avail;
            byte += 1;
            avail += 8;
        }
        *slot = (acc & mask) as u32;
        acc >>= width;
        avail -= u32::from(width);
    }
    byte
}

/// Number of payload bytes [`pack_bits`] emits for `count` values at
/// `width` bits.
#[inline]
pub fn packed_len(count: usize, width: u8) -> usize {
    (count * width as usize).div_ceil(8)
}

/// Encodes one block of `docs.len()` postings (1..=[`crate::BLOCK_LEN`])
/// into `out` in the layout described at module level. `docs` must be
/// strictly increasing; the three slices must be the same length.
pub fn encode_block(out: &mut Vec<u8>, docs: &[u32], title_tfs: &[u32], body_tfs: &[u32]) {
    let count = docs.len();
    debug_assert!((1..=crate::BLOCK_LEN).contains(&count));
    debug_assert_eq!(count, title_tfs.len());
    debug_assert_eq!(count, body_tfs.len());

    write_varint(out, docs[0]);
    let mut deltas = [0u32; crate::BLOCK_LEN];
    let mut max_delta = 0u32;
    for i in 1..count {
        debug_assert!(docs[i] > docs[i - 1], "doc ids must be strictly increasing");
        let d = docs[i] - docs[i - 1] - 1;
        deltas[i - 1] = d;
        max_delta = max_delta.max(d);
    }
    let width = bits_for(max_delta);
    out.push(width);
    pack_bits(out, &deltas[..count - 1], width);

    let tw = bits_for(title_tfs.iter().copied().max().unwrap_or(0));
    let bw = bits_for(body_tfs.iter().copied().max().unwrap_or(0));
    out.push(tw);
    out.push(bw);
    pack_bits(out, title_tfs, tw);
    pack_bits(out, body_tfs, bw);
}

/// Decodes the document ids of one encoded block into `out[..count]`.
/// Returns the byte length of the document section (header + packed
/// deltas), i.e. the offset at which the term-frequency section starts.
pub fn decode_block_docs(data: &[u8], count: usize, out: &mut [u32]) -> usize {
    debug_assert!(count >= 1 && count <= out.len());
    let mut pos = 0usize;
    let first = read_varint(data, &mut pos);
    let width = data[pos];
    pos += 1;
    out[0] = first;
    if count > 1 {
        pos += unpack_bits(&data[pos..], width, &mut out[1..count]);
        let mut prev = first;
        for slot in &mut out[1..count] {
            prev = prev + *slot + 1;
            *slot = prev;
        }
    }
    pos
}

/// Byte length of the document section of an encoded block without
/// decoding the ids, from the header alone.
pub fn doc_section_len(data: &[u8], count: usize) -> usize {
    let mut pos = 0usize;
    let first = read_varint(data, &mut pos);
    let _ = first;
    let width = data[pos];
    pos + 1 + packed_len(count - 1, width)
}

/// Decodes the term-frequency section of one encoded block, given the
/// document-section length returned by [`decode_block_docs`] or
/// [`doc_section_len`]. Fills `titles[..count]` and `bodies[..count]`.
pub fn decode_block_tfs(
    data: &[u8],
    doc_section: usize,
    count: usize,
    titles: &mut [u32],
    bodies: &mut [u32],
) {
    let mut pos = doc_section;
    let tw = data[pos];
    let bw = data[pos + 1];
    pos += 2;
    pos += unpack_bits(&data[pos..], tw, &mut titles[..count]);
    unpack_bits(&data[pos..], bw, &mut bodies[..count]);
}

/// Appends one posting's position list to `out` (first position raw,
/// then gaps as varints; positions are strictly increasing inside one
/// posting so gaps are ≥ 1 and stored as `gap - 1`).
pub fn encode_positions<'a>(out: &mut Vec<u8>, positions: impl IntoIterator<Item = &'a u32>) {
    let mut prev = None;
    for &p in positions {
        match prev {
            None => write_varint(out, p),
            Some(q) => {
                debug_assert!(p > q, "positions must be strictly increasing");
                write_varint(out, p - q - 1);
            }
        }
        prev = Some(p);
    }
}

/// Decodes a position byte range produced by [`encode_positions`],
/// invoking `f` for each position in order. The range length implies
/// the count; no terminator is stored.
#[inline]
pub fn decode_positions(data: &[u8], mut f: impl FnMut(u32)) {
    let mut pos = 0usize;
    if pos < data.len() {
        let mut cur = read_varint(data, &mut pos);
        f(cur);
        while pos < data.len() {
            cur = cur + read_varint(data, &mut pos) + 1;
            f(cur);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip_block(docs: &[u32], tts: &[u32], bts: &[u32]) {
        let mut buf = Vec::new();
        encode_block(&mut buf, docs, tts, bts);
        let mut d = [0u32; crate::BLOCK_LEN];
        let mut t = [0u32; crate::BLOCK_LEN];
        let mut b = [0u32; crate::BLOCK_LEN];
        let n = docs.len();
        let doc_sec = decode_block_docs(&buf, n, &mut d);
        assert_eq!(doc_sec, doc_section_len(&buf, n));
        decode_block_tfs(&buf, doc_sec, n, &mut t, &mut b);
        assert_eq!(&d[..n], docs);
        assert_eq!(&t[..n], tts);
        assert_eq!(&b[..n], bts);
    }

    #[test]
    fn varint_roundtrip_boundaries() {
        for v in [
            0u32,
            1,
            0x7f,
            0x80,
            0x3fff,
            0x4000,
            0x1f_ffff,
            0x20_0000,
            0xfff_ffff,
            0x1000_0000,
            u32::MAX - 1,
            u32::MAX,
        ] {
            let mut out = Vec::new();
            write_varint(&mut out, v);
            assert_eq!(out.len(), varint_len(v));
            let mut pos = 0;
            assert_eq!(read_varint(&out, &mut pos), v);
            assert_eq!(pos, out.len());
        }
    }

    #[test]
    fn pack_bits_roundtrip_all_widths() {
        for width in 0..=32u8 {
            let mask = if width == 0 {
                0
            } else if width == 32 {
                u32::MAX
            } else {
                (1u32 << width) - 1
            };
            let values: Vec<u32> = (0..67u32)
                .map(|i| i.wrapping_mul(0x9e37_79b9) & mask)
                .collect();
            let mut out = Vec::new();
            pack_bits(&mut out, &values, width);
            assert_eq!(out.len(), packed_len(values.len(), width));
            let mut back = vec![0u32; values.len()];
            let used = unpack_bits(&out, width, &mut back);
            assert_eq!(used, out.len());
            assert_eq!(back, values);
        }
    }

    #[test]
    fn block_roundtrip_single_posting_doc_zero() {
        roundtrip_block(&[0], &[3], &[0]);
    }

    #[test]
    fn block_roundtrip_consecutive_docs_pack_to_width_zero() {
        let docs: Vec<u32> = (100..164).collect();
        let tts = vec![0u32; 64];
        let bts = vec![1u32; 64];
        let mut buf = Vec::new();
        encode_block(&mut buf, &docs, &tts, &bts);
        // first_doc varint + width byte (0 ⇒ no payload) + tw/bw
        // bytes + 0-bit titles + 8 bytes of 1-bit bodies.
        assert_eq!(buf.len(), varint_len(docs[0]) + 1 + 2 + 8);
        roundtrip_block(&docs, &tts, &bts);
    }

    #[test]
    fn block_roundtrip_extreme_gaps() {
        roundtrip_block(&[0, u32::MAX - 1, u32::MAX], &[1, 2, 3], &[9, 0, 1]);
        roundtrip_block(&[u32::MAX], &[0], &[0]);
    }

    #[test]
    fn positions_roundtrip() {
        for positions in [
            vec![],
            vec![0u32],
            vec![5],
            vec![0, 1, 2, 3],
            vec![0, 7, 300, 301, 65536],
            vec![u32::MAX - 2, u32::MAX],
        ] {
            let mut out = Vec::new();
            encode_positions(&mut out, &positions);
            let mut back = Vec::new();
            decode_positions(&out, |p| back.push(p));
            assert_eq!(back, positions);
        }
    }
}
