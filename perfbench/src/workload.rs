//! Input generation. Every input is a pure function of the run's
//! `--seed`, a stream number and an index, so the same seed always yields
//! the same inputs and the programs under test only ever see the
//! generated matrices.

use mutree_bench::data;
use mutree_bnb::hash::splitmix64;
use mutree_distmat::DistanceMatrix;
use mutree_seqgen::{
    distance_matrix, evolve, random_coalescent, random_root_sequence, DistanceKind,
    EvolutionParams, SubstitutionModel,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Taxa per exact instance. At 16 or more taxa single instances of this
/// family run for seconds (one measured 7.7 s at 17 taxa), and at 14 the
/// mean over 250 instances still varied by a third between batches; at
/// 12 the search still dominates every solve and the slowest of 4000
/// instances took 27 ms.
pub const EXACT_TAXA: usize = 12;

/// Smallest and largest decomposed instance.
pub const DECOMPOSE_TAXA: (usize, usize) = (64, 128);

/// Taxa per decomposed request in the serving mix.
pub const SERVE_DECOMPOSE_TAXA: usize = 48;

/// Sequence length of the HMDNA-family generator (as in
/// `mutree_bench::data::hmdna_matrix`).
const HMDNA_SITES: usize = 80;

/// Independent random streams, so that changing how many items one
/// stream draws never shifts another.
#[derive(Debug, Clone, Copy)]
pub enum Stream {
    /// Exact instances.
    Exact = 1,
    /// Decomposed instances.
    Decompose = 3,
    /// Exact requests of the serving mix.
    ServeExact = 4,
    /// Decomposed requests of the serving mix.
    ServeDecompose = 5,
    /// Serving clients' request choices.
    Client = 6,
}

/// A 64-bit value determined by `(seed, stream, index)`.
pub fn draw(seed: u64, stream: Stream, index: u64) -> u64 {
    splitmix64(splitmix64(seed ^ splitmix64(stream as u64)) ^ index)
}

/// The `i`-th exact instance: the paper's random-species family
/// (Fig. 8–9).
pub fn exact_instance(seed: u64, i: u64) -> DistanceMatrix {
    data::random_species_matrix(EXACT_TAXA, draw(seed, Stream::Exact, i))
}

/// An HMDNA-family matrix over `n` sequences determined by `key`: the
/// genealogy, substitution model and sequence length of
/// `mutree_bench::data::hmdna_matrix`, without its indel process, so the
/// integer distances are Hamming counts. Edit distances cost an `O(L²)`
/// alignment per pair (~90 ms per 128-taxon matrix), which would leave a
/// run either a handful of distinct instances or mostly generation time;
/// Hamming counts take well under a millisecond.
pub fn hmdna_instance(n: usize, key: u64) -> DistanceMatrix {
    let mut rng = StdRng::seed_from_u64(key);
    let params = EvolutionParams {
        model: SubstitutionModel::Kimura {
            transition_rate: 0.25,
            transversion_rate: 0.08,
        },
        indel_rate: 0.0,
        rate_variation: 0.4,
    };
    let tree = random_coalescent(n, 1.0, &mut rng);
    let root = random_root_sequence(HMDNA_SITES, &mut rng);
    let seqs = evolve(&tree, &root, &params, &mut rng);
    distance_matrix(&seqs, DistanceKind::PDistance)
}

/// The `i`-th decomposed in-process instance. Sizes cycle through
/// 64–128 taxa in index order rather than at random, so that every seed
/// solves the same mix of sizes.
pub fn decompose_instance(seed: u64, i: u64) -> DistanceMatrix {
    let (lo, hi) = DECOMPOSE_TAXA;
    let n = lo + (i % (hi - lo + 1) as u64) as usize;
    hmdna_instance(n, draw(seed, Stream::Decompose, i))
}

/// The `i`-th exact request matrix of the serving mix: the `exp_serve`
/// clustered family, one 16-taxon matrix in twenty and 12 taxa
/// otherwise.
pub fn serve_exact(seed: u64, i: u64) -> DistanceMatrix {
    let key = draw(seed, Stream::ServeExact, i);
    let size = if key.is_multiple_of(20) { 4 } else { 3 };
    data::clustered_matrix(4, size, key)
}

/// The `i`-th decomposed request matrix of the serving mix.
pub fn serve_decompose(seed: u64, i: u64) -> DistanceMatrix {
    hmdna_instance(SERVE_DECOMPOSE_TAXA, draw(seed, Stream::ServeDecompose, i))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_instances_repeat_per_seed_and_differ_across_seeds() {
        assert_eq!(exact_instance(3, 5), exact_instance(3, 5));
        assert_ne!(exact_instance(3, 5), exact_instance(4, 5));
        assert_ne!(exact_instance(3, 5), exact_instance(3, 6));
        assert_eq!(exact_instance(3, 0).len(), EXACT_TAXA);
    }

    #[test]
    fn decomposed_instances_repeat_per_seed_and_differ_across_seeds() {
        for i in 0..4 {
            let m = decompose_instance(11, i);
            assert!((DECOMPOSE_TAXA.0..=DECOMPOSE_TAXA.1).contains(&m.len()));
            assert_eq!(m, decompose_instance(11, i));
            assert_ne!(m, decompose_instance(12, i));
            assert!(m.is_metric(1e-9));
        }
        assert_ne!(decompose_instance(11, 0), decompose_instance(11, 1));
    }

    #[test]
    fn serving_inputs_repeat_per_seed_and_differ_across_seeds() {
        assert_eq!(serve_exact(1, 9), serve_exact(1, 9));
        assert_ne!(serve_exact(1, 9), serve_exact(2, 9));
        let m = serve_decompose(1, 3);
        assert_eq!(m.len(), SERVE_DECOMPOSE_TAXA);
        assert_eq!(m, serve_decompose(1, 3));
        assert_ne!(m, serve_decompose(1, 4));
        assert_ne!(m, serve_decompose(2, 3));
    }

    #[test]
    fn draws_are_uniform_enough() {
        let n = 10_000u64;
        let low = (0..n)
            .filter(|&i| draw(5, Stream::Client, i) & 0xffff < 0x8000)
            .count();
        assert!((low as f64 / n as f64 - 0.5).abs() < 0.02, "{low} of {n}");
    }
}
