//! Packed input objects: several small staged buffers carried by one
//! store object, so a fan-in over many small inputs pays one put and one
//! get per pack instead of one of each per buffer.
//!
//! Which buffers share an object is decided before any byte moves
//! ([`plan`]): buffers of at most `cap` raw bytes are grouped in request
//! order into packs of at most `cap` raw bytes; a group of one goes out
//! as the plain object it would have been anyway.
//! A pack never spans two key directories: its key is
//! `<dir>/<first member>.pack`, and the header names each member
//! relative to `<dir>/`, so the sealed bytes do not depend on where the
//! pack is staged. Members keep their own wire encoding (each is
//! compressed or raw on its own `plan_wire` decision) and are decoded
//! from slices of the one fetched object. Layout, all integers
//! little-endian:
//!
//! ```text
//! +------+-----------+--------------------------------------------------+-------------+
//! | OPK1 | count u32 | count x (name_len u16, name, flags u8,           | member wire |
//! |      |           |          wire_len u64, wire_crc32 u32)           | bytes ...   |
//! +------+-----------+--------------------------------------------------+-------------+
//! ```
//!
//! The member wire bytes follow the header in header order and must tile
//! the rest of the object exactly. [`open`] checks every offset and
//! length for overflow and range before it hands out a slice.

use std::ops::Range;

/// Pack magic: "OPK1".
pub const PACK_MAGIC: [u8; 4] = *b"OPK1";

/// Member flag: the wire bytes are a gzlite frame or stream (raw
/// otherwise). Raw bytes that happen to start with a gzlite magic are
/// therefore never mistaken for a frame.
const FLAG_COMPRESSED: u8 = 1;

/// Fixed bytes of one header entry besides the name itself.
const ENTRY_FIXED: usize = 2 + 1 + 8 + 4;

/// One member of a pack: its name, how its wire bytes are encoded,
/// their crc32, and the wire bytes themselves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PackMember<'a> {
    /// The member's key relative to the pack's directory (see
    /// [`split_key`]).
    pub name: &'a str,
    /// Whether `wire` is a gzlite frame/stream rather than raw bytes.
    pub compressed: bool,
    /// crc32 of `wire`.
    pub wire_crc: u32,
    /// The member's wire bytes.
    pub wire: &'a [u8],
}

/// Split a storage key into its directory (through the last `/`, empty
/// when there is none) and its name within that directory.
pub fn split_key(key: &str) -> (&str, &str) {
    key.split_at(key.rfind('/').map_or(0, |i| i + 1))
}

/// The key a pack whose first member is `first_key` is staged under.
pub fn pack_key(first_key: &str) -> String {
    format!("{first_key}.pack")
}

/// Group put items into packs by raw size: items of at most `cap`
/// bytes, in request order, into groups of at most `cap` bytes, one key
/// directory per group. `items` are `(key, raw size)`. Returns the
/// groups of two or more (indices into `items`); every other item
/// travels as a plain object.
pub fn plan(items: &[(&str, usize)], cap: usize) -> Vec<Vec<usize>> {
    let mut packs = Vec::new();
    let mut current: Vec<usize> = Vec::new();
    let mut current_bytes = 0usize;
    let mut current_dir = "";
    for (i, &(key, n)) in items.iter().enumerate() {
        if n > cap {
            continue;
        }
        let dir = split_key(key).0;
        if !current.is_empty() && (current_bytes + n > cap || dir != current_dir) {
            packs.push(std::mem::take(&mut current));
            current_bytes = 0;
        }
        current.push(i);
        current_bytes += n;
        current_dir = dir;
    }
    packs.push(current);
    packs.retain(|p| p.len() > 1);
    packs
}

/// Exact sealed size of a pack holding `members`.
fn sealed_len(members: &[PackMember<'_>]) -> usize {
    PACK_MAGIC.len()
        + 4
        + members
            .iter()
            .map(|m| ENTRY_FIXED + m.name.len() + m.wire.len())
            .sum::<usize>()
}

/// Seal the pack holding `members` into an exactly sized buffer. Names
/// must be at most `u16::MAX` bytes (storage keys are far shorter).
pub fn seal(members: &[PackMember<'_>]) -> Vec<u8> {
    let mut out = Vec::with_capacity(sealed_len(members));
    out.extend_from_slice(&PACK_MAGIC);
    out.extend_from_slice(&(members.len() as u32).to_le_bytes());
    for m in members {
        let name_len = u16::try_from(m.name.len()).expect("storage keys fit a u16 length");
        out.extend_from_slice(&name_len.to_le_bytes());
        out.extend_from_slice(m.name.as_bytes());
        out.push(if m.compressed { FLAG_COMPRESSED } else { 0 });
        out.extend_from_slice(&(m.wire.len() as u64).to_le_bytes());
        out.extend_from_slice(&m.wire_crc.to_le_bytes());
    }
    for m in members {
        out.extend_from_slice(m.wire);
    }
    out
}

/// Parse a sealed pack. Every length and offset is range- and
/// overflow-checked, and the member bytes must tile the object exactly;
/// any violation is an `Err`, never a panic. Member crcs are returned,
/// not verified — the caller decides whether integrity checks are on.
pub fn open(bytes: &[u8]) -> Result<Vec<PackMember<'_>>, &'static str> {
    let mut r = Reader { bytes, pos: 0 };
    if r.take(PACK_MAGIC.len())? != PACK_MAGIC {
        return Err("bad pack magic");
    }
    let count = r.u32()? as usize;
    // Each entry needs at least its fixed fields: a count the rest of the
    // object cannot hold is rejected before anything is allocated for it.
    if count > (bytes.len() - r.pos) / ENTRY_FIXED {
        return Err("pack member count exceeds the object");
    }
    let mut entries: Vec<(&str, bool, usize, u32)> = Vec::with_capacity(count);
    for _ in 0..count {
        let name_len = usize::from(r.u16()?);
        let name =
            std::str::from_utf8(r.take(name_len)?).map_err(|_| "pack member name is not utf-8")?;
        let flags = r.take(1)?[0];
        if flags & !FLAG_COMPRESSED != 0 {
            return Err("unknown pack member flags");
        }
        let wire_len =
            usize::try_from(r.u64()?).map_err(|_| "pack member length overflows usize")?;
        let wire_crc = r.u32()?;
        entries.push((name, flags & FLAG_COMPRESSED != 0, wire_len, wire_crc));
    }
    let mut members = Vec::with_capacity(count);
    for (name, compressed, wire_len, wire_crc) in entries {
        members.push(PackMember {
            name,
            compressed,
            wire_crc,
            wire: r.take(wire_len)?,
        });
    }
    if r.pos != bytes.len() {
        return Err("pack has bytes after its last member");
    }
    Ok(members)
}

/// Bounds-checked little-endian cursor.
struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], &'static str> {
        let range: Range<usize> =
            self.pos..self.pos.checked_add(n).ok_or("pack length overflow")?;
        let out = self.bytes.get(range).ok_or("pack truncated")?;
        self.pos += n;
        Ok(out)
    }

    fn array<const N: usize>(&mut self) -> Result<[u8; N], &'static str> {
        let mut out = [0u8; N];
        out.copy_from_slice(self.take(N)?);
        Ok(out)
    }

    fn u16(&mut self) -> Result<u16, &'static str> {
        self.array().map(u16::from_le_bytes)
    }

    fn u32(&mut self) -> Result<u32, &'static str> {
        self.array().map(u32::from_le_bytes)
    }

    fn u64(&mut self) -> Result<u64, &'static str> {
        self.array().map(u64::from_le_bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn member<'a>(name: &'a str, compressed: bool, wire: &'a [u8]) -> PackMember<'a> {
        PackMember {
            name,
            compressed,
            wire_crc: gzlite::crc32(wire),
            wire,
        }
    }

    #[test]
    fn seal_open_roundtrip() {
        let a = vec![1u8; 100];
        let b: Vec<u8> = (0..50u8).collect();
        let members = [
            member("a", true, &a),
            member("b", false, &b),
            member("empty", false, &[]),
        ];
        let bytes = seal(&members);
        assert_eq!(bytes.len(), sealed_len(&members));
        assert_eq!(open(&bytes).unwrap(), members);
    }

    #[test]
    fn plan_groups_small_items_in_request_order() {
        const K: usize = 1024;
        let sized = |sizes: &[usize]| -> Vec<Vec<usize>> {
            let items: Vec<(&str, usize)> = sizes.iter().map(|&n| ("job/in/x", n)).collect();
            plan(&items, 256 * K)
        };
        // 17 x 64 KiB under a 256 KiB cap: four packs of four, and the
        // seventeenth would be a pack of one, so it goes out plain.
        assert_eq!(
            sized(&[64 * K; 17]),
            vec![
                vec![0, 1, 2, 3],
                vec![4, 5, 6, 7],
                vec![8, 9, 10, 11],
                vec![12, 13, 14, 15]
            ]
        );
        // Items above the cap are skipped, not pack boundaries.
        assert_eq!(sized(&[10, 300 * K, 20, 30]), vec![vec![0, 2, 3]]);
        // A lone small item never forms a pack.
        assert!(sized(&[10, 300 * K]).is_empty());
        assert!(sized(&[]).is_empty());
        // Packs close at the byte cap ...
        assert_eq!(sized(&[100 * K; 5]), vec![vec![0, 1], vec![2, 3]]);
        // ... and at a change of key directory.
        let items = [("a/x", 1), ("a/y", 1), ("b/x", 1), ("b/y", 1), ("z", 1)];
        assert_eq!(plan(&items, 10), vec![vec![0, 1], vec![2, 3]]);
    }

    #[test]
    fn keys_split_at_the_last_slash() {
        assert_eq!(split_key("job-0/in/x"), ("job-0/in/", "x"));
        assert_eq!(split_key("x"), ("", "x"));
        assert_eq!(split_key(&pack_key("job-0/in/x")), ("job-0/in/", "x.pack"));
    }

    #[test]
    fn offsets_must_tile_the_object_exactly() {
        let bytes = seal(&[member("a", false, b"xyz"), member("b", false, b"pq")]);
        // One trailing byte too many.
        let mut long = bytes.clone();
        long.push(0);
        assert!(open(&long).is_err());
        // One byte short.
        assert!(open(&bytes[..bytes.len() - 1]).is_err());
        // A member length pointing past the end, and one that overflows.
        let len_at = PACK_MAGIC.len() + 4 + 2 + 1 + 1;
        for forged in [4u64, u64::MAX, u64::MAX / 2] {
            let mut bad = bytes.clone();
            bad[len_at..len_at + 8].copy_from_slice(&forged.to_le_bytes());
            assert!(open(&bad).is_err(), "wire_len {forged}");
        }
        // A count the object cannot hold.
        let mut bad = bytes.clone();
        bad[4..8].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(open(&bad).is_err());
        // Unknown flags.
        let mut bad = bytes;
        bad[PACK_MAGIC.len() + 4 + 2 + 1] = 0x80;
        assert!(open(&bad).is_err());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Arbitrary bytes, with or without the magic, never panic.
        #[test]
        fn arbitrary_bytes_never_panic(body in proptest::collection::vec(any::<u8>(), 0..256), magic in any::<bool>()) {
            let mut bytes = if magic { PACK_MAGIC.to_vec() } else { Vec::new() };
            bytes.extend_from_slice(&body);
            let _ = open(&bytes);
        }

        /// Every truncation and every single-bit flip of a valid pack
        /// either parses or errs; a parse that succeeds still tiles the
        /// object exactly.
        #[test]
        fn truncations_and_bit_flips_never_panic(
            a in proptest::collection::vec(any::<u8>(), 0..64),
            b in proptest::collection::vec(any::<u8>(), 0..64),
            bit in 0usize..4096,
        ) {
            let bytes = seal(&[member("a", true, &a), member("b", false, &b)]);
            for cut in 0..bytes.len() {
                prop_assert!(open(&bytes[..cut]).is_err());
            }
            let mut flipped = bytes.clone();
            let bit = bit % (bytes.len() * 8);
            flipped[bit / 8] ^= 1 << (bit % 8);
            if let Ok(members) = open(&flipped) {
                let header: usize = sealed_len(&members) - members.iter().map(|m| m.wire.len()).sum::<usize>();
                let body: usize = members.iter().map(|m| m.wire.len()).sum();
                prop_assert_eq!(header + body, flipped.len());
            }
        }
    }
}
