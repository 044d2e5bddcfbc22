//! The global-memory access coalescer.

/// Size of one global-memory transaction segment in bytes (a full warp's
/// worth of consecutive 32-bit words, matching the 128-byte L1 sector the
/// hardware fetches).
pub const SEGMENT_BYTES: u64 = 128;

/// One coalesced memory transaction.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Transaction {
    /// Segment-aligned base address.
    pub addr: u64,
    /// Number of lanes this transaction serves (diagnostics only).
    pub lanes: u32,
}

/// Lanes in a warp: the most addresses, and so transactions, one access has.
const MAX_LANES: usize = 32;

/// The transactions of one warp access in first-touch order, held on the
/// stack (reads like a `[Transaction]` slice).
#[derive(Clone, Copy, Debug)]
pub struct Transactions {
    txs: [Transaction; MAX_LANES],
    len: usize,
}

impl std::ops::Deref for Transactions {
    type Target = [Transaction];

    fn deref(&self) -> &[Transaction] {
        &self.txs[..self.len]
    }
}

/// Coalesces a warp's per-lane byte addresses into the minimal set of
/// 128-byte segment transactions, preserving first-touch order.
///
/// A fully coalesced unit-stride access produces a single transaction; a
/// worst-case scatter produces one per lane. The transaction count drives
/// both cache-port serialization and DRAM traffic in the timing model.
///
/// # Panics
///
/// Panics if `addrs` touches more than 32 segments (a warp has 32 lanes).
pub fn coalesce(addrs: &[u64]) -> Transactions {
    let mut out = Transactions {
        txs: [Transaction { addr: 0, lanes: 0 }; MAX_LANES],
        len: 0,
    };
    for &a in addrs {
        let seg = a / SEGMENT_BYTES * SEGMENT_BYTES;
        match out.txs[..out.len].iter_mut().find(|t| t.addr == seg) {
            Some(t) => t.lanes += 1,
            None => {
                out.txs[out.len] = Transaction {
                    addr: seg,
                    lanes: 1,
                };
                out.len += 1;
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unit_stride_coalesces_to_one() {
        let addrs: Vec<u64> = (0..32).map(|i| 0x1000 + i * 4).collect();
        let txs = coalesce(&addrs);
        assert_eq!(txs.len(), 1);
        assert_eq!(txs[0].addr, 0x1000);
        assert_eq!(txs[0].lanes, 32);
    }

    #[test]
    fn misaligned_unit_stride_spans_two_segments() {
        let addrs: Vec<u64> = (0..32).map(|i| 0x1040 + i * 4).collect();
        assert_eq!(coalesce(&addrs).len(), 2);
    }

    #[test]
    fn full_scatter_is_one_per_lane() {
        let addrs: Vec<u64> = (0..32).map(|i| i * 4096).collect();
        assert_eq!(coalesce(&addrs).len(), 32);
    }

    #[test]
    fn duplicate_addresses_share_a_transaction() {
        let addrs = vec![0u64; 32];
        let txs = coalesce(&addrs);
        assert_eq!(txs.len(), 1);
        assert_eq!(txs[0].lanes, 32);
    }

    #[test]
    fn empty_access_produces_no_transactions() {
        assert!(coalesce(&[]).is_empty());
    }

    #[test]
    fn order_is_first_touch() {
        let txs = coalesce(&[0x2000, 0x1000, 0x2004]);
        assert_eq!(txs[0].addr, 0x2000);
        assert_eq!(txs[1].addr, 0x1000);
    }
}
