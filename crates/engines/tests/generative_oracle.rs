//! The generative half of an answer — citation selection, synthesis,
//! listwise ranking and the pairwise judge — checked bit for bit
//! against frozen copies of the code that computed each factor per
//! result and rescanned the evidence per entity, on the paper world.
//!
//! The paper world's page bodies are longer than the persona snippet
//! windows, so windows start and end inside names: the snippets' entity
//! lists there are the ones attribution can get wrong, and the evidence
//! the oracles read is the evidence real answers carry.

use std::collections::{BTreeMap, HashMap};
use std::sync::{Arc, OnceLock};

use proptest::prelude::*;
use shift_classify::classify_intent;
use shift_classify::intent::QueryIntentLabel;
use shift_corpus::{EntityId, TopicId, Vertical, World, WorldConfig};
use shift_engines::{AnswerEngines, Citation, EngineKind, Persona};
use shift_llm::generate::STRICT_SALIENCE_ATTENUATION;
use shift_llm::{GroundingMode, Llm, Snippet, SnippetEntities};
use shift_metrics::bootstrap::SplitMix64;
use shift_metrics::rank::ranking_from_wins;
use shift_queries::{comparison_queries, intent_queries, ranking_queries, vertical_queries};
use shift_search::serp::excerpt_contains_lowercase;
use shift_search::{with_thread_scratch, Serp, SerpResult};

fn stack() -> &'static AnswerEngines {
    static STACK: OnceLock<AnswerEngines> = OnceLock::new();
    STACK.get_or_init(|| {
        let world = World::generate(&WorldConfig::default_scale(), 20251101);
        AnswerEngines::build(Arc::new(world))
    })
}

/// About 120 queries pooled from all four generators.
fn queries() -> &'static [String] {
    static QUERIES: OnceLock<Vec<String>> = OnceLock::new();
    QUERIES.get_or_init(|| {
        let world = stack().world();
        let mut pool = ranking_queries(world, 50, 21);
        pool.extend(comparison_queries(world, 10, 10, 22));
        pool.extend(intent_queries(world, 6, 23));
        for vertical in [Vertical::ConsumerElectronics, Vertical::Travel] {
            pool.extend(vertical_queries(world, vertical, 8, 24));
        }
        pool.into_iter().map(|q| q.text).collect()
    })
}

fn pool(kind: EngineKind, query: &str) -> Arc<Serp> {
    with_thread_scratch(|s| stack().retrieval_with(s, kind, query, 10))
}

// ---------------------------------------------------------------------
// Frozen copies of the code the generative half replaced.
// ---------------------------------------------------------------------

fn hash_str(s: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in s.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

fn unit_noise(key: u64) -> f64 {
    let mut rng = SplitMix64::new(key);
    2.0 * (rng.next_u64() as f64 / u64::MAX as f64) - 1.0
}

/// Citation selection as it was: every factor computed per result, the
/// whole pool sorted, a `HashMap` per-domain cap.
fn frozen_select_citations(
    stack: &AnswerEngines,
    persona: &Persona,
    intent: QueryIntentLabel,
    query: &str,
    pool: &Serp,
    k: usize,
    seed: u64,
) -> Vec<Citation> {
    let world = stack.world();
    let affinity = persona.affinity(intent);
    let query_hash = hash_str(query);
    let mut scored: Vec<(f64, &SerpResult, &str)> = pool
        .results
        .iter()
        .enumerate()
        .filter_map(|(pos, r)| {
            let cited = stack.citation_domain(r.page)?;
            let cited_hash = hash_str(cited);
            let domain = world.domain(world.page(r.page).domain);
            let rank_w = 1.0 / (1.0 + 0.05 * pos as f64);
            let aff = affinity[r.source_type.index()];
            let fresh = (-r.age_days / 90.0).exp();
            let u_dom = unit_noise(persona.seed_salt ^ cited_hash);
            let u_query = unit_noise(persona.seed_salt ^ cited_hash ^ query_hash ^ seed);
            let jitter = 1.0 + persona.domain_jitter * (0.7 * u_dom + 0.3 * u_query);
            let score = rank_w
                * aff
                * (1.0 + persona.freshness_pref * fresh)
                * (1.0 + persona.authority_pref * domain.authority)
                * jitter.max(0.05);
            Some((score, r, cited))
        })
        .collect();
    scored.sort_by(|a, b| b.0.total_cmp(&a.0).then_with(|| a.1.url.cmp(&b.1.url)));

    let mut out: Vec<Citation> = Vec::with_capacity(k);
    let mut per_domain: HashMap<&str, usize> = HashMap::new();
    for (_, r, cited) in scored {
        let n = per_domain.entry(cited).or_insert(0);
        if *n < persona.max_per_domain {
            *n += 1;
            out.push(Citation {
                url: Arc::clone(&r.url),
                domain: cited.into(),
                page: r.page,
                source_type: r.source_type,
                age_days: r.age_days,
            });
            if out.len() == k {
                break;
            }
        }
    }
    out
}

/// The answer's citations as they were: the off-consideration
/// suppression draw, then selection.
fn frozen_citations(
    stack: &AnswerEngines,
    kind: EngineKind,
    query: &str,
    k: usize,
    seed: u64,
) -> Vec<Citation> {
    let persona = stack.persona(kind);
    let intent = classify_intent(query);
    let cites = intent == QueryIntentLabel::Consideration || {
        let mut rng =
            SplitMix64::new(persona.seed_salt ^ hash_str(query) ^ seed.wrapping_mul(0x9E37));
        ((rng.next_u64() % 1000) as f64) < persona.off_consideration_citation_rate * 1000.0
    };
    if !cites {
        return Vec::new();
    }
    let pool = pool(kind, query);
    let k = k.min(persona.citations_k);
    frozen_select_citations(stack, persona, intent, query, &pool, k, seed)
}

/// Synthesis as it was: candidates collected, sorted and deduped, the
/// modal topic from a `BTreeMap`, then the frozen listwise ranking.
fn frozen_synthesize_text(
    stack: &AnswerEngines,
    kind: EngineKind,
    query: &str,
    snippets: &[Snippet],
    seed: u64,
) -> String {
    let world = stack.world();
    let mut candidates: Vec<EntityId> = snippets
        .iter()
        .flat_map(|s| s.entities.iter().map(|(e, _)| *e))
        .collect();
    candidates.sort();
    candidates.dedup();
    let mut topic_mass: BTreeMap<TopicId, usize> = BTreeMap::new();
    for e in &candidates {
        *topic_mass.entry(world.entity(*e).topic).or_insert(0) += 1;
    }
    if let Some((&modal, _)) = topic_mass
        .iter()
        .max_by(|a, b| a.1.cmp(b.1).then_with(|| b.0.cmp(a.0)))
    {
        candidates.retain(|e| world.entity(*e).topic == modal);
    }
    if candidates.is_empty() {
        return format!("{}: no ranked entities for \"{query}\".", kind.name());
    }
    let (ranking, _) = frozen_rank_entities(
        stack.llm(),
        &candidates,
        snippets,
        GroundingMode::Normal,
        seed,
    );
    let names: Vec<&str> = ranking
        .iter()
        .take(5)
        .map(|e| world.entity(*e).name.as_str())
        .collect();
    format!(
        "{} — top picks for \"{query}\": {}.",
        kind.name(),
        names.join(", ")
    )
}

fn frozen_score_for(snippet: &Snippet, entity: EntityId) -> Option<f64> {
    snippet
        .entities
        .iter()
        .find(|(e, _)| *e == entity)
        .map(|(_, s)| *s)
}

/// One entity's `(score, support)`, rescanning every snippet.
fn frozen_entity_signal(
    llm: &Llm,
    entity: EntityId,
    evidence: &[Snippet],
    mode: GroundingMode,
    noise: f64,
) -> (f64, f64) {
    let cfg = llm.config();
    let bias = match mode {
        GroundingMode::Normal => cfg.position_bias,
        GroundingMode::Strict => cfg.strict_position_bias,
    };
    let mut weight_sum = 0.0;
    let mut score_sum = 0.0;
    let mut first_weight = 0.0;
    for (pos, snippet) in evidence.iter().enumerate() {
        if let Some(s) = frozen_score_for(snippet, entity) {
            let w = 1.0 / (1.0 + bias * pos as f64);
            if weight_sum == 0.0 {
                first_weight = w;
            }
            weight_sum += w;
            score_sum += w * s;
        }
    }
    let evidence_mean = if weight_sum > 0.0 {
        let mean = score_sum / weight_sum;
        let sw = match mode {
            GroundingMode::Normal => cfg.salience_weight,
            GroundingMode::Strict => cfg.salience_weight * STRICT_SALIENCE_ATTENUATION,
        };
        (1.0 - sw) * mean + sw * first_weight
    } else {
        0.5
    };
    let prior = llm.prior(entity);
    let score = match mode {
        GroundingMode::Normal => {
            let w_prior = if weight_sum > 0.0 {
                cfg.prior_weight_scale * prior.strength
            } else {
                0.5 + 0.5 * prior.strength
            };
            w_prior * prior.quality + (1.0 - w_prior) * evidence_mean
        }
        GroundingMode::Strict => evidence_mean,
    };
    (score + noise, weight_sum)
}

fn frozen_noise(llm: &Llm, entity: EntityId, mode: GroundingMode, seed: u64) -> f64 {
    let cfg = llm.config();
    let scale = match mode {
        GroundingMode::Normal => {
            let unfamiliar = 1.0 - llm.prior(entity).strength;
            cfg.base_noise + cfg.weak_prior_noise * unfamiliar * unfamiliar
        }
        GroundingMode::Strict => cfg.base_noise * 0.15,
    };
    let mut rng = SplitMix64::new(
        seed ^ (0x9E37_79B9 ^ u64::from(entity.0)).wrapping_mul(0xBF58_476D_1CE4_E5B9),
    );
    let u = rng.next_u64() as f64 / u64::MAX as f64;
    (2.0 * u - 1.0) * scale
}

/// The listwise ranking and each ranked entity's support.
fn frozen_rank_entities(
    llm: &Llm,
    candidates: &[EntityId],
    evidence: &[Snippet],
    mode: GroundingMode,
    seed: u64,
) -> (Vec<EntityId>, Vec<f64>) {
    let mut scored: Vec<(EntityId, (f64, f64))> = candidates
        .iter()
        .map(|&e| {
            let noise = frozen_noise(llm, e, mode, seed);
            (e, frozen_entity_signal(llm, e, evidence, mode, noise))
        })
        .collect();
    scored.sort_by(|a, b| {
        let demote_a = mode == GroundingMode::Strict && a.1 .1 == 0.0;
        let demote_b = mode == GroundingMode::Strict && b.1 .1 == 0.0;
        demote_a
            .cmp(&demote_b)
            .then_with(|| b.1 .0.total_cmp(&a.1 .0))
            .then_with(|| a.0.cmp(&b.0))
    });
    (
        scored.iter().map(|(e, _)| *e).collect(),
        scored.iter().map(|(_, s)| s.1).collect(),
    )
}

fn frozen_pair_noise(llm: &Llm, entity: EntityId, mode: GroundingMode, seed: u64) -> f64 {
    let cfg = llm.config();
    let strength = llm.prior(entity).strength;
    let scale = match mode {
        GroundingMode::Normal => {
            0.15 * cfg.base_noise + cfg.weak_prior_noise * 0.3 * (1.0 - strength) * (1.0 - strength)
        }
        GroundingMode::Strict => 0.0,
    };
    let mut rng = SplitMix64::new(seed ^ (u64::from(entity.0).wrapping_mul(0x94D0_49BB_1331_11EB)));
    let u = rng.next_u64() as f64 / u64::MAX as f64;
    (2.0 * u - 1.0) * scale
}

/// The pairwise judge, rescanning the evidence for both contestants.
fn frozen_pairwise_judgment(
    llm: &Llm,
    a: EntityId,
    b: EntityId,
    evidence: &[Snippet],
    mode: GroundingMode,
    pair_seed: u64,
) -> EntityId {
    let noise_a = frozen_pair_noise(llm, a, mode, pair_seed);
    let noise_b = frozen_pair_noise(llm, b, mode, pair_seed.wrapping_add(1));
    let (mut score_a, support_a) = frozen_entity_signal(llm, a, evidence, mode, noise_a);
    let (mut score_b, support_b) = frozen_entity_signal(llm, b, evidence, mode, noise_b);
    if mode == GroundingMode::Strict {
        let thin = |support: f64, strength: f64, salt: u64| {
            let scale =
                llm.config().strict_pair_noise * (1.0 - strength).powi(2) / (1.0 + 0.8 * support);
            let mut rng = SplitMix64::new(pair_seed ^ salt);
            (2.0 * (rng.next_u64() as f64 / u64::MAX as f64) - 1.0) * scale
        };
        score_a += thin(
            support_a,
            llm.prior(a).strength,
            0x7468_696e_0041 ^ u64::from(a.0),
        );
        score_b += thin(
            support_b,
            llm.prior(b).strength,
            0x7468_696e_0042 ^ u64::from(b.0),
        );
        match (support_a > 0.0, support_b > 0.0) {
            (true, false) => return a,
            (false, true) => return b,
            (false, false) => {
                let mut rng = SplitMix64::new(pair_seed ^ 0x6a75_6467_0e31);
                return if rng.next_u64().is_multiple_of(2) {
                    a
                } else {
                    b
                };
            }
            (true, true) => {}
        }
    }
    if score_a >= score_b {
        a
    } else {
        b
    }
}

fn frozen_pairwise_ranking(
    llm: &Llm,
    candidates: &[EntityId],
    evidence: &[Snippet],
    mode: GroundingMode,
    seed: u64,
) -> Vec<EntityId> {
    let mut wins: HashMap<EntityId, usize> = candidates.iter().map(|&e| (e, 0)).collect();
    for i in 0..candidates.len() {
        for j in i + 1..candidates.len() {
            let pair_seed = seed
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .wrapping_add((i as u64) << 32 | j as u64);
            let winner = frozen_pairwise_judgment(
                llm,
                candidates[i],
                candidates[j],
                evidence,
                mode,
                pair_seed,
            );
            *wins.entry(winner).or_insert(0) += 1;
        }
    }
    ranking_from_wins(&wins, candidates)
}

// ---------------------------------------------------------------------
// The world: windows cut names, and attribution still reads them right.
// ---------------------------------------------------------------------

/// The entities a snippet of `r` speaks about, by scanning its window
/// for each mentioned name: the attribution the mention table replaced.
fn scanned_entities(stack: &AnswerEngines, r: &SerpResult) -> Vec<(EntityId, f64)> {
    let world = stack.world();
    let page = world.page(r.page);
    let names: Vec<String> = page
        .mentions
        .iter()
        .map(|m| world.entity(m.entity).name.to_lowercase())
        .collect();
    let mut shown = vec![false; names.len()];
    excerpt_contains_lowercase(&r.snippet, &names, &mut shown);
    let mut entities: Vec<(EntityId, f64)> = page
        .mentions
        .iter()
        .zip(&shown)
        .filter(|(_, &s)| s)
        .map(|(m, _)| (m.entity, m.score))
        .collect();
    if entities.is_empty() {
        entities.extend(page.primary_mention().map(|m| (m.entity, m.score)));
    }
    entities
}

#[test]
fn windows_cut_names_and_lookup_attribution_equals_the_scan() {
    let stack = stack();
    let mut cut_at_start = 0usize;
    let mut cut_at_end = 0usize;
    let mut results = 0usize;
    for query in queries() {
        for kind in EngineKind::ALL {
            let serp = pool(kind, query);
            let snippets = stack.snippets_from_serp(&serp);
            for (r, snippet) in serp.results.iter().zip(snippets.iter()) {
                results += 1;
                assert_eq!(
                    snippet.entities,
                    scanned_entities(stack, r),
                    "{kind:?} {query:?} {}",
                    r.url
                );
                let window = r.snippet.range();
                let occurrences = stack
                    .mention_occurrences(r.page)
                    .expect("every paper-world page has a mention table");
                let inside = |at: usize| {
                    occurrences
                        .iter()
                        .any(|o| (o.start as usize) < at && at < o.end as usize)
                };
                if window.start > 0 && inside(window.start) {
                    cut_at_start += 1;
                }
                if inside(window.end) {
                    cut_at_end += 1;
                }
            }
        }
    }
    // Windows that start past their body's start inside a name, and
    // windows that end inside one: the cases a lookup can get wrong.
    assert!(
        cut_at_start > 0 && cut_at_end > 0,
        "{cut_at_start} windows start and {cut_at_end} end inside a name, of {results}"
    );
}

#[test]
fn answers_match_the_frozen_generative_half() {
    let stack = stack();
    let mut cited = 0usize;
    let mut named = 0usize;
    for (i, query) in queries().iter().enumerate() {
        for kind in EngineKind::GENERATIVE {
            let seed = i as u64 * 7 + 3;
            let answer = stack.answer(kind, query, 10, seed);
            let expected = frozen_citations(stack, kind, query, 10, seed);
            assert_eq!(&answer.citations[..], &expected[..], "{kind:?} {query:?}");
            let snippets = stack.snippets_from_serp(&pool(kind, query));
            let text = frozen_synthesize_text(stack, kind, query, &snippets, seed);
            assert_eq!(&*answer.text, text, "{kind:?} {query:?}");
            cited += answer.citations.len();
            named += usize::from(answer.text.contains("top picks"));
        }
    }
    assert!(cited > queries().len(), "{cited} citations");
    assert!(named > queries().len(), "{named} named answers");
}

#[test]
fn selection_matches_at_every_depth() {
    // `k` below, at and above each persona's citation cap, and zero.
    let stack = stack();
    for (i, query) in queries().iter().enumerate().step_by(4) {
        for kind in EngineKind::GENERATIVE {
            for k in [0, 1, 3, 8, 10, 60] {
                let seed = i as u64 ^ k as u64;
                let answer = stack.answer(kind, query, k, seed);
                let expected = frozen_citations(stack, kind, query, k, seed);
                assert_eq!(
                    &answer.citations[..],
                    &expected[..],
                    "{kind:?} {query:?} k={k}"
                );
            }
        }
    }
}

// ---------------------------------------------------------------------
// The listwise ranking and the pairwise judge, on perturbed evidence.
// ---------------------------------------------------------------------

/// Ways to perturb an answer's evidence: as is, reversed, every
/// snippet repeating its first entity with another score (only the
/// first counts), and the lists of neighbouring snippets swapped.
fn perturbed(snippets: &[Snippet], variant: usize) -> Vec<Snippet> {
    let mut out = snippets.to_vec();
    match variant {
        0 => {}
        1 => out.reverse(),
        2 => {
            for s in &mut out {
                let mut list = s.entities.to_vec();
                if let Some(&(e, score)) = list.first() {
                    list.push((e, 1.0 - score));
                    list.insert(1.min(list.len()), (e, score * 0.5));
                }
                s.entities = SnippetEntities::from(list);
            }
        }
        _ => {
            for pair in out.chunks_mut(2) {
                if let [a, b] = pair {
                    std::mem::swap(&mut a.entities, &mut b.entities);
                }
            }
        }
    }
    out
}

fn candidates_of(evidence: &[Snippet]) -> Vec<EntityId> {
    let mut candidates: Vec<EntityId> = evidence
        .iter()
        .flat_map(|s| s.entities.iter().map(|(e, _)| *e))
        .collect();
    candidates.sort();
    candidates.dedup();
    candidates
}

fn mode_of(strict: u8) -> GroundingMode {
    if strict == 1 {
        GroundingMode::Strict
    } else {
        GroundingMode::Normal
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn rank_entities_matches_the_frozen_ranking(
        at in 0usize..1000,
        engine in 0usize..5,
        variant in 0usize..4,
        strict in 0u8..2,
        seed in 0u64..10_000,
    ) {
        let stack = stack();
        let query = &queries()[at % queries().len()];
        let kind = EngineKind::ALL[engine];
        let evidence = perturbed(&stack.snippets_from_serp(&pool(kind, query)), variant);
        let mode = mode_of(strict);
        let mut candidates = candidates_of(&evidence);
        // Candidates the evidence never names rank from their priors.
        candidates.extend([EntityId(0), EntityId(1)]);
        candidates.sort();
        candidates.dedup();
        let answer = stack.llm().rank_entities(&candidates, &evidence, mode, seed);
        let (ranking, support) = frozen_rank_entities(stack.llm(), &candidates, &evidence, mode, seed);
        prop_assert_eq!(&answer.ranking, &ranking);
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        prop_assert_eq!(bits(&answer.support), bits(&support));
    }

    #[test]
    fn pairwise_judge_matches_the_frozen_judge(
        at in 0usize..1000,
        engine in 0usize..5,
        variant in 0usize..4,
        strict in 0u8..2,
        seed in 0u64..10_000,
    ) {
        let stack = stack();
        let llm = stack.llm();
        let query = &queries()[at % queries().len()];
        let kind = EngineKind::ALL[engine];
        let evidence = perturbed(&stack.snippets_from_serp(&pool(kind, query)), variant);
        let mode = mode_of(strict);
        let mut candidates = candidates_of(&evidence);
        candidates.truncate(12);
        candidates.push(EntityId(2));
        prop_assert_eq!(
            llm.pairwise_ranking_for(&candidates, &evidence, mode, seed),
            frozen_pairwise_ranking(llm, &candidates, &evidence, mode, seed)
        );
        for (i, &a) in candidates.iter().enumerate() {
            let b = candidates[(i + 1) % candidates.len()];
            let pair_seed = seed ^ (i as u64) << 20;
            prop_assert_eq!(
                llm.pairwise_judgment(a, b, &evidence, mode, pair_seed),
                frozen_pairwise_judgment(llm, a, b, &evidence, mode, pair_seed)
            );
        }
    }
}
