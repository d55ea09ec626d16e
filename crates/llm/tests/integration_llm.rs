//! Integration tests: the llm simulator must reproduce the *shape* of the
//! paper's Section 3 findings on a generated world.

use shift_corpus::{EntityId, World, WorldConfig};
use shift_llm::{GroundingMode, Llm, LlmConfig, Snippet};
use shift_metrics::mean_abs_rank_deviation;

fn setup() -> (World, Llm) {
    let world = World::generate(&WorldConfig::small(), 77);
    let llm = Llm::pretrain(&world, LlmConfig::default());
    (world, llm)
}

/// Builds synthetic evidence: three snippets per entity with noisy scores,
/// so presentation order genuinely matters (position-weighted averaging
/// only reacts to order when an entity has several, differing snippets).
fn evidence_for(world: &World, ids: &[EntityId]) -> Vec<Snippet> {
    let mut out = Vec::new();
    for (i, &e) in ids.iter().enumerate() {
        let q = world.entity(e).quality;
        for j in 0..3u64 {
            let jitter = ((i as u64 * 31 + j * 17) % 13) as f64 / 13.0 - 0.5;
            out.push(Snippet {
                url: format!("https://evidence.com/{i}/{j}").into(),
                text: "".into(),
                entities: vec![(e, (q + 0.3 * jitter).clamp(0.02, 0.98))].into(),
                age_days: 30.0,
            });
        }
    }
    out
}

fn shuffle<T: Clone>(items: &[T], seed: u64) -> Vec<T> {
    use rand::seq::SliceRandom;
    use rand::SeedableRng;
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let mut v = items.to_vec();
    v.shuffle(&mut rng);
    v
}

fn topic_ids(world: &World, key: &str, popular: bool) -> Vec<EntityId> {
    let (tid, _) = shift_corpus::topics::topic_by_key(key).unwrap();
    world
        .entities_of_topic(tid)
        .iter()
        .copied()
        .filter(|e| world.entity(*e).is_popular() == popular)
        .collect()
}

/// Mean Δ across snippet-shuffle runs for a candidate set.
fn shuffle_delta(
    world: &World,
    llm: &Llm,
    ids: &[EntityId],
    mode: GroundingMode,
    runs: u64,
) -> f64 {
    let evidence = evidence_for(world, ids);
    let base = llm.rank_entities(ids, &evidence, mode, 0).ranking;
    let mut total = 0.0;
    for run in 1..=runs {
        // Each perturbation run is a fresh generation: new snippet order
        // *and* new decision noise, as in the paper's 10-runs protocol.
        let shuffled = shuffle(&evidence, run);
        let perturbed = llm.rank_entities(ids, &shuffled, mode, run).ranking;
        total += mean_abs_rank_deviation(&base, &perturbed);
    }
    total / runs as f64
}

#[test]
fn popular_priors_are_strong_niche_priors_weak() {
    let (world, llm) = setup();
    let popular_strengths: Vec<f64> = world
        .entities()
        .iter()
        .filter(|e| e.popularity > 0.8)
        .map(|e| llm.prior(e.id).strength)
        .collect();
    let niche_strengths: Vec<f64> = world
        .entities()
        .iter()
        .filter(|e| e.popularity < 0.2)
        .map(|e| llm.prior(e.id).strength)
        .collect();
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
    assert!(
        mean(&popular_strengths) > 0.6,
        "headline popular strength too weak: {:.2}",
        mean(&popular_strengths)
    );
    assert!(
        mean(&niche_strengths) < 0.45,
        "niche strength too strong: {:.2}",
        mean(&niche_strengths)
    );
}

#[test]
fn snippet_shuffle_hits_niche_harder_than_popular() {
    let (world, llm) = setup();
    let popular = topic_ids(&world, "suvs", true);
    let niche = topic_ids(&world, "toronto-family-law", false);
    let d_pop = shuffle_delta(&world, &llm, &popular, GroundingMode::Normal, 10);
    let d_niche = shuffle_delta(&world, &llm, &niche, GroundingMode::Normal, 10);
    assert!(
        d_niche > d_pop,
        "niche Δ ({d_niche:.2}) must exceed popular Δ ({d_pop:.2})"
    );
}

#[test]
fn strict_grounding_stabilizes_shuffles() {
    let (world, llm) = setup();
    for (key, popular) in [("suvs", true), ("toronto-family-law", false)] {
        let ids = topic_ids(&world, key, popular);
        let normal = shuffle_delta(&world, &llm, &ids, GroundingMode::Normal, 10);
        let strict = shuffle_delta(&world, &llm, &ids, GroundingMode::Strict, 10);
        assert!(
            strict <= normal + 1e-9,
            "{key}: strict Δ ({strict:.2}) must not exceed normal Δ ({normal:.2})"
        );
    }
}

#[test]
fn pairwise_consistency_higher_for_popular_than_niche() {
    let (world, llm) = setup();
    let mut taus = Vec::new();
    for (key, popular) in [("suvs", true), ("toronto-family-law", false)] {
        let ids = topic_ids(&world, key, popular);
        let evidence = evidence_for(&world, &ids);
        let mut per_mode = Vec::new();
        for mode in [GroundingMode::Normal, GroundingMode::Strict] {
            let r = llm.rank_entities(&ids, &evidence, mode, 3).ranking;
            let rp = llm.pairwise_ranking_for(&ids, &evidence, mode, 3);
            per_mode.push(shift_metrics::kendall_tau(&r, &rp).unwrap());
        }
        taus.push((key, per_mode));
    }
    let (_, pop_taus) = &taus[0];
    let (_, niche_taus) = &taus[1];
    assert!(
        pop_taus[0] > niche_taus[0],
        "normal-mode τ: popular {:.2} must exceed niche {:.2}",
        pop_taus[0],
        niche_taus[0]
    );
    assert!(
        pop_taus[1] > 0.9,
        "strict-mode τ for popular entities should be near-perfect, got {:.2}",
        pop_taus[1]
    );
}

#[test]
fn unsupported_popular_entities_still_get_ranked_in_normal_mode() {
    let (world, llm) = setup();
    let ids = topic_ids(&world, "suvs", true);
    // Evidence for only half the entities.
    let half = &ids[..ids.len() / 2];
    let evidence = evidence_for(&world, half);
    let answer = llm.rank_entities(&ids, &evidence, GroundingMode::Normal, 5);
    assert_eq!(answer.ranking.len(), ids.len());
    let misses = answer.support.iter().filter(|s| **s == 0.0).count();
    assert_eq!(
        misses,
        ids.len() - half.len(),
        "unsupported slots must be flagged"
    );
}
