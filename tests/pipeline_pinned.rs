//! Pinned pipeline answers: the compact-set pipeline at paper defaults on
//! 64–128-taxon HMDNA-family matrices must keep returning exactly the
//! recorded tree weight, species groups and compact-set count. The values
//! were recorded from the Kruskal-based `O(n³)` compact-set detector; the
//! `O(n²)` detector that replaced it must reproduce them bit for bit.

use mutree::bnb::hash::{fnv1a, fnv1a_continue};
use mutree::core::CompactPipeline;
use mutree::distmat::DistanceMatrix;
use mutree::seqgen::{
    distance_matrix, evolve, random_coalescent, random_root_sequence, DistanceKind,
    EvolutionParams, SubstitutionModel,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// An HMDNA-family matrix: 80 sites evolved along a random coalescent
/// genealogy under Kimura-2P with rate variation and no indels, scored by
/// Hamming distance (integer mismatch counts, heavily tied).
fn hmdna_hamming(n: usize, key: u64) -> DistanceMatrix {
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
    let root = random_root_sequence(80, &mut rng);
    let seqs = evolve(&tree, &root, &params, &mut rng);
    distance_matrix(&seqs, DistanceKind::PDistance)
}

/// FNV-1a digest of a group list: each member as little-endian `u64`,
/// groups separated by `u64::MAX`.
fn groups_digest(groups: &[Vec<usize>]) -> u64 {
    let mut h = fnv1a(b"groups");
    for g in groups {
        for &v in g {
            h = fnv1a_continue(h, &(v as u64).to_le_bytes());
        }
        h = fnv1a_continue(h, &u64::MAX.to_le_bytes());
    }
    h
}

/// `(taxa, key, weight bits, group count, groups digest, compact sets)`.
const PINNED: [(usize, u64, u64, usize, u64, usize); 6] = [
    (
        64,
        0x9e37_0000,
        0x406c_5000_0000_0000,
        24,
        0xa9b1_a431_ff11_737d,
        32,
    ),
    (
        77,
        0x9e37_0001,
        0x406e_5000_0000_0000,
        32,
        0x52d4_d504_7115_3ca1,
        37,
    ),
    (
        90,
        0x9e37_0002,
        0x406d_3000_0000_0000,
        26,
        0x1957_5e62_5458_70dc,
        40,
    ),
    (
        103,
        0x9e37_0003,
        0x4070_a800_0000_0000,
        24,
        0x9089_0d95_14e1_cb0a,
        51,
    ),
    (
        116,
        0x9e37_0004,
        0x4070_9800_0000_0000,
        46,
        0xd71e_d621_df32_a84d,
        39,
    ),
    (
        128,
        0x9e37_0005,
        0x4072_f000_0000_0000,
        35,
        0xaad5_14cc_5a8a_02c5,
        56,
    ),
];

#[test]
fn pipeline_answers_are_pinned() {
    for &(n, key, weight_bits, group_count, digest, compact_sets) in &PINNED {
        let m = hmdna_hamming(n, key);
        let sol = CompactPipeline::new().solve(&m).unwrap();
        assert!(sol.is_complete(), "n={n} key={key}: run incomplete");
        assert_eq!(sol.weight.to_bits(), weight_bits, "n={n} key={key}: weight");
        assert_eq!(sol.groups.len(), group_count, "n={n} key={key}: groups");
        assert_eq!(
            groups_digest(&sol.groups),
            digest,
            "n={n} key={key}: groups"
        );
        assert_eq!(sol.compact_sets, compact_sets, "n={n} key={key}: sets");
    }
}
