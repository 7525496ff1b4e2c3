//! The shared-work search cube build against its serial reference, on the
//! calibrated Google study with its default result noise.
//!
//! `FBox::from_search` evaluates every cell through `SearchCellEval`: one
//! dense interning pass, counting kernels and an `n × n` distance memo
//! filled from both sides. `FBox::from_search_serial` calls the generic
//! per-pair entry points for every `(cell, group)`. Both must give the
//! same cube bit for bit, for both measures, at any worker count.
//!
//! The 3-participant case is the paper's study size and runs in every
//! profile. The 12-participant case is the `google-scaled` benchmark
//! shape; it is release-only (`cargo test --release --test
//! kernel_equivalence`), since the serial reference is slow in debug.

use fbox::core::model::{GroupId, LocationId, QueryId};
use fbox::core::UnfairnessCube;
use fbox::par::with_threads;
use fbox::repro::calibrate;
use fbox::search::extension::ExtensionRunner;
use fbox::search::noise::NoiseModel;
use fbox::search::study::{run_study, StudyDesign};
use fbox::search::SearchEngine;
use fbox::{FBox, SearchMeasure};

fn cube_bits(cube: &UnfairnessCube) -> Vec<Option<u64>> {
    let mut bits = Vec::new();
    for g in 0..cube.n_groups() as u32 {
        for q in 0..cube.n_queries() as u32 {
            for l in 0..cube.n_locations() as u32 {
                bits.push(cube.get(GroupId(g), QueryId(q), LocationId(l)).map(f64::to_bits));
            }
        }
    }
    bits
}

fn assert_build_matches_serial(participants_per_group: usize, seed: u64) {
    let engine =
        SearchEngine::new(calibrate::google_personalization(), NoiseModel::default(), seed);
    let design = StudyDesign { participants_per_group, seed };
    let (universe, obs, _) = run_study(&design, &engine, &ExtensionRunner::default());
    for measure in [SearchMeasure::kendall(), SearchMeasure::JaccardDistance] {
        let reference = FBox::from_search_serial(universe.clone(), &obs, measure);
        let expected = cube_bits(reference.cube());
        assert!(expected.iter().any(Option::is_some), "{measure:?}: empty reference cube");
        for threads in [1, 2, 8] {
            let built =
                with_threads(threads, || FBox::from_search(universe.clone(), &obs, measure));
            let got = cube_bits(built.cube());
            let first_diff = expected.iter().zip(&got).position(|(a, b)| a != b);
            assert_eq!(
                first_diff, None,
                "{measure:?} at {participants_per_group} participants per group, \
                 FBOX_THREADS={threads}: first differing cell (flat index)"
            );
        }
    }
}

#[test]
fn paper_sized_noisy_study_builds_bit_identically() {
    assert_build_matches_serial(3, 0xF0CA);
}

#[test]
#[cfg_attr(debug_assertions, ignore = "release-only: the serial reference is slow in debug")]
fn google_scaled_noisy_study_builds_bit_identically() {
    assert_build_matches_serial(12, 1);
}
