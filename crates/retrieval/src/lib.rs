//! Hierarchical hyperbolic retrieval: sub-linear candidate generation
//! over the trained taxonomy.
//!
//! The exhaustive scoring path is `O(n_items)` per query no matter how
//! fast the fused kernels sweep. This crate turns the structure the
//! model already trains — a Poincaré taxonomy whose internal nodes
//! summarize coherent item clusters — into a serving data structure: a
//! [`TaxoIndex`] whose tree of Einstein-midpoint cluster centroids is
//! descended by a beam-search router, so only the items of the top-B
//! candidate clusters are fused-scored.
//!
//! Three properties anchor the design:
//!
//! 1. **Bit-compatible scoring.** Candidate items are ranked by the same
//!    `taxorec_data::Scorer` as the exhaustive path, over caches whose
//!    per-item arithmetic is position-independent, and merged through
//!    the order-independent `TopKAccumulator`. A beam wide enough to
//!    select every leaf therefore reproduces the exhaustive ranking
//!    *bit-identically* — the approximate path degrades coverage, never
//!    arithmetic.
//! 2. **Contiguity.** Items are permuted so every tree node owns one
//!    contiguous slot range, and node ids are breadth-first so every
//!    node's children are contiguous centroid rows: both the routing
//!    sweeps and the candidate sweeps run the block kernels over dense
//!    ranges instead of gathers.
//! 3. **Exact escape hatch.** [`RetrievalMode::Exact`] (and
//!    [`TaxoIndex::search_exact`]) fall back to the full exhaustive
//!    sweep, and the recall@K harness in `taxorec-eval` measures the
//!    approximate path against it.

pub mod index;

pub use index::{
    derived_beam, IndexConfig, IndexParts, ItemEmbeddings, SearchStats, TaxoIndex, INDEX_MAX_DEPTH,
};

/// How a consumer (serve, eval, bench) retrieves candidates.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RetrievalMode {
    /// Exhaustive fused sweep over the full catalogue (the default).
    Exact,
    /// Beam-search candidate generation with the given beam width.
    Beam(usize),
}

impl RetrievalMode {
    /// Parses the CLI surface shared by eval, serve, and the bench bin:
    /// `"exact"`, or `"beam:B"` with `B ≥ 1` (plain `"beam"` takes the
    /// index default at use-site, encoded here as `Beam(0)`).
    pub fn parse(s: &str) -> Result<Self, String> {
        let s = s.trim();
        if s.eq_ignore_ascii_case("exact") {
            return Ok(Self::Exact);
        }
        if s.eq_ignore_ascii_case("beam") {
            return Ok(Self::Beam(0));
        }
        if let Some(rest) = s.strip_prefix("beam:").or_else(|| s.strip_prefix("BEAM:")) {
            let b: usize = rest
                .parse()
                .map_err(|_| format!("invalid beam width {rest:?} (expected beam:B)"))?;
            if b == 0 {
                return Err("beam width must be >= 1".into());
            }
            return Ok(Self::Beam(b));
        }
        Err(format!(
            "unknown retrieval mode {s:?} (expected \"exact\" or \"beam:B\")"
        ))
    }

    /// Stable textual form (`"exact"` / `"beam:B"`), the inverse of
    /// [`RetrievalMode::parse`].
    pub fn label(&self) -> String {
        match self {
            Self::Exact => "exact".into(),
            Self::Beam(b) => format!("beam:{b}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mode_parse_round_trips() {
        assert_eq!(RetrievalMode::parse("exact").unwrap(), RetrievalMode::Exact);
        assert_eq!(RetrievalMode::parse("EXACT").unwrap(), RetrievalMode::Exact);
        assert_eq!(
            RetrievalMode::parse("beam:8").unwrap(),
            RetrievalMode::Beam(8)
        );
        assert_eq!(
            RetrievalMode::parse("beam").unwrap(),
            RetrievalMode::Beam(0)
        );
        assert!(RetrievalMode::parse("beam:0").is_err());
        assert!(RetrievalMode::parse("beam:x").is_err());
        assert!(RetrievalMode::parse("annoy").is_err());
        assert_eq!(RetrievalMode::Beam(8).label(), "beam:8");
        assert_eq!(RetrievalMode::Exact.label(), "exact");
        assert_eq!(
            RetrievalMode::parse(&RetrievalMode::Beam(3).label()).unwrap(),
            RetrievalMode::Beam(3)
        );
    }
}
