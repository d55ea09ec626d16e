//! The answer path's build-time text tables, checked at paper scale:
//! each page's precomputed citation domain and its mention-name
//! occurrences give exactly what deriving them per result did, and every
//! page of the paper world has a mention table, so no snippet takes the
//! scan.

use std::collections::HashMap;
use std::sync::{Arc, OnceLock};

use shift_corpus::{PageId, SourceType, Vertical, World, WorldConfig};
use shift_engines::{AnswerEngines, Citation, EngineKind};
use shift_queries::{comparison_queries, intent_queries, ranking_queries, vertical_queries};

fn stack() -> &'static AnswerEngines {
    static STACK: OnceLock<AnswerEngines> = OnceLock::new();
    STACK.get_or_init(|| {
        let world = World::generate(&WorldConfig::default_scale(), 20251101);
        AnswerEngines::build(Arc::new(world))
    })
}

/// About 200 queries pooled from all four generators.
fn pooled_queries(world: &World) -> Vec<String> {
    let mut pool = ranking_queries(world, 80, 11);
    pool.extend(comparison_queries(world, 20, 20, 12));
    pool.extend(intent_queries(world, 10, 13));
    for vertical in [
        Vertical::ConsumerElectronics,
        Vertical::Automotive,
        Vertical::Travel,
        Vertical::Finance,
    ] {
        pool.extend(vertical_queries(world, vertical, 10, 14));
    }
    pool.into_iter().map(|q| q.text).collect()
}

#[test]
fn citation_domains_match_from_url() {
    let stack = stack();
    for page in stack.world().pages() {
        let expected = Citation::from_url(&page.url, page.id, SourceType::Earned, 0.0);
        assert_eq!(
            stack.citation_domain(page.id),
            expected.as_ref().map(|c| &*c.domain),
            "{}",
            page.url
        );
    }
}

#[test]
fn every_page_has_a_mention_table_of_its_names_occurrences() {
    let stack = stack();
    let world = stack.world();
    let mut total = 0;
    for page in world.pages() {
        let occurrences = stack
            .mention_occurrences(page.id)
            .unwrap_or_else(|| panic!("{} has no mention table", page.url));
        let lower = page.body.to_lowercase();
        assert_eq!(lower.len(), page.body.len(), "{}", page.url);
        let names: Vec<String> = page
            .mentions
            .iter()
            .map(|m| world.entity(m.entity).name.to_lowercase())
            .collect();
        // Every occurrence is a match, in start order, and none is missed:
        // each name's count is its overlapping match count.
        assert!(occurrences.windows(2).all(|w| w[0].start <= w[1].start));
        for o in occurrences {
            let name = &names[o.needle as usize];
            assert_eq!(
                &lower[o.start as usize..o.end as usize],
                name,
                "{}",
                page.url
            );
        }
        for (j, name) in names.iter().enumerate() {
            let matches = (0..lower.len())
                .filter(|&at| lower.as_bytes()[at..].starts_with(name.as_bytes()))
                .count();
            let listed = occurrences
                .iter()
                .filter(|o| o.needle as usize == j)
                .count();
            assert_eq!(listed, matches, "{name:?} in {}", page.url);
        }
        total += occurrences.len();
    }
    assert!(total > world.pages().len(), "{total} occurrences");
}

#[test]
fn answers_match_per_result_derivation() {
    let stack = stack();
    let world = stack.world();
    let by_url: HashMap<&str, PageId> = world
        .pages()
        .iter()
        .map(|p| (p.url.as_str(), p.id))
        .collect();
    let queries = pooled_queries(world);
    assert!(queries.len() >= 190, "{} queries", queries.len());
    for (i, query) in queries.iter().enumerate() {
        for kind in EngineKind::ALL {
            let answer = stack.answer(kind, query, 10, i as u64);
            for snippet in answer.snippets.iter() {
                // The attribution filter as it was: lowercase the snippet
                // and each mentioned name, then `contains`.
                let page = world.page(by_url[&*snippet.url]);
                let lower = snippet.text.to_string().to_lowercase();
                let mut expected: Vec<_> = page
                    .mentions
                    .iter()
                    .filter(|m| lower.contains(&world.entity(m.entity).name.to_lowercase()))
                    .map(|m| (m.entity, m.score))
                    .collect();
                if expected.is_empty() {
                    expected.extend(page.primary_mention().map(|m| (m.entity, m.score)));
                }
                assert_eq!(
                    snippet.entities, expected,
                    "{kind:?} {query:?} {}",
                    snippet.url
                );
            }
            for c in answer.citations.iter() {
                let expected = Citation::from_url(&c.url, c.page, c.source_type, c.age_days);
                assert_eq!(Some(c), expected.as_ref(), "{kind:?} {query:?}");
            }
        }
    }
}
