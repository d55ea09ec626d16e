//! Per-engine visibility measurement for one entity.

use shift_corpus::{topic_specs, EntityId};
use shift_engines::{AnswerEngines, EngineKind};
use shift_llm::supported_entities;

/// Visibility of one entity in one engine, over a query sweep.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EngineVisibility {
    /// Fraction of queries where the entity's brand domain was cited.
    pub citation_share: f64,
    /// Fraction of queries where the entity appeared in the synthesized
    /// answer's top picks.
    pub mention_share: f64,
    /// Mean 1-based position in the answer text when mentioned
    /// (`f64::NAN` when never mentioned).
    pub mean_position: f64,
    /// Of the mentions, the fraction backed by retrieved evidence (the
    /// rest are prior-carried — fragile visibility that new content can
    /// consolidate or competitors can take).
    pub support_rate: f64,
}

/// Visibility across all five engines.
#[derive(Debug, Clone)]
pub struct VisibilityReport {
    /// The measured entity.
    pub entity: EntityId,
    /// `(engine, visibility)` in [`EngineKind::ALL`] order.
    pub per_engine: Vec<(EngineKind, EngineVisibility)>,
    /// Queries swept.
    pub queries: usize,
}

impl VisibilityReport {
    /// Visibility for one engine.
    pub fn engine(&self, kind: EngineKind) -> Option<EngineVisibility> {
        self.per_engine
            .iter()
            .find(|(k, _)| *k == kind)
            .map(|(_, v)| *v)
    }

    /// Mean mention share across the four generative engines — the
    /// headline "AI visibility" number.
    pub fn ai_mention_share(&self) -> f64 {
        let vals: Vec<f64> = self
            .per_engine
            .iter()
            .filter(|(k, _)| *k != EngineKind::Google)
            .map(|(_, v)| v.mention_share)
            .collect();
        vals.iter().sum::<f64>() / vals.len().max(1) as f64
    }

    /// Renders a compact text table.
    pub fn render(&self) -> String {
        let mut out = format!(
            "{:<14} {:>8} {:>9} {:>9} {:>9}\n",
            "engine", "cited", "mentioned", "mean-pos", "supported"
        );
        for (kind, v) in &self.per_engine {
            out.push_str(&format!(
                "{:<14} {:>7.0}% {:>8.0}% {:>9} {:>8.0}%\n",
                kind.name(),
                100.0 * v.citation_share,
                100.0 * v.mention_share,
                if v.mean_position.is_nan() {
                    "-".to_string()
                } else {
                    format!("{:.1}", v.mean_position)
                },
                100.0 * v.support_rate,
            ));
        }
        out
    }
}

/// The standard ranking-query sweep for an entity's topic.
pub fn topic_query_sweep(world: &shift_corpus::World, entity: EntityId) -> Vec<String> {
    let spec = &topic_specs()[world.entity(entity).topic.index()];
    vec![
        format!("Top 10 best {} 2025", spec.plural),
        format!("most reliable {}", spec.plural),
        format!("best {} for the money", spec.plural),
        format!("top rated {} reviewed", spec.plural),
        format!("best {} overall this year", spec.plural),
        format!("{} ranked by overall quality", spec.plural),
    ]
}

/// Measures an entity's visibility across all engines over `queries`.
pub fn measure_visibility(
    stack: &AnswerEngines,
    entity: EntityId,
    queries: &[String],
    k: usize,
    seed: u64,
) -> VisibilityReport {
    let world = stack.world();
    let e = world.entity(entity);
    let mut per_engine = Vec::with_capacity(EngineKind::ALL.len());

    for kind in EngineKind::ALL {
        let mut cited = 0usize;
        let mut mentioned = 0usize;
        let mut supported = 0usize;
        let mut positions = Vec::new();

        for (qi, q) in queries.iter().enumerate() {
            let answer = stack.answer(kind, q, k, seed.wrapping_add(qi as u64));
            if answer.citations.iter().any(|c| *c.domain == e.brand_domain) {
                cited += 1;
            }
            // Position in the synthesized "top picks" sentence: the names
            // are comma-separated after the colon.
            if let Some(idx) = answer.text.find(&e.name) {
                mentioned += 1;
                let before = &answer.text[..idx];
                positions.push(1.0 + before.matches(", ").count() as f64);
                if supported_entities(&answer.snippets).contains(&entity) {
                    supported += 1;
                }
            }
        }

        let n = queries.len().max(1) as f64;
        per_engine.push((
            kind,
            EngineVisibility {
                citation_share: cited as f64 / n,
                mention_share: mentioned as f64 / n,
                mean_position: if positions.is_empty() {
                    f64::NAN
                } else {
                    positions.iter().sum::<f64>() / positions.len() as f64
                },
                support_rate: if mentioned == 0 {
                    0.0
                } else {
                    supported as f64 / mentioned as f64
                },
            },
        ));
    }

    VisibilityReport {
        entity,
        per_engine,
        queries: queries.len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use shift_corpus::{World, WorldConfig};
    use std::sync::Arc;

    fn stack() -> AnswerEngines {
        let world = Arc::new(World::generate(&WorldConfig::small(), 2121));
        AnswerEngines::build(world)
    }

    #[test]
    fn popular_entity_is_visible_somewhere() {
        let stack = stack();
        // The strongest-prior SUV is the entity the LLM ranks first almost
        // regardless of evidence — it must be widely visible.
        let world = stack.world();
        let (suv, _) = shift_corpus::topic_by_key("suvs").unwrap();
        let strongest = world
            .entities_of_topic(suv)
            .iter()
            .copied()
            .max_by(|a, b| {
                let pa = stack.llm().prior(*a);
                let pb = stack.llm().prior(*b);
                (pa.quality * pa.strength).total_cmp(&(pb.quality * pb.strength))
            })
            .unwrap();
        let queries = topic_query_sweep(world, strongest);
        let report = measure_visibility(&stack, strongest, &queries, 10, 7);
        assert_eq!(report.per_engine.len(), 5);
        assert!(
            report.ai_mention_share() > 0.3,
            "{} should be widely mentioned, got {:.2}",
            world.entity(strongest).name,
            report.ai_mention_share()
        );
        for (_, v) in &report.per_engine {
            assert!((0.0..=1.0).contains(&v.citation_share));
            assert!((0.0..=1.0).contains(&v.mention_share));
            assert!((0.0..=1.0).contains(&v.support_rate));
        }
    }

    #[test]
    fn strong_prior_entity_is_more_visible_than_weak_one() {
        let stack = stack();
        let world = stack.world();
        let (suv, _) = shift_corpus::topic_by_key("suvs").unwrap();
        let score = |e: shift_corpus::EntityId| {
            let p = stack.llm().prior(e);
            p.quality * p.strength
        };
        let ids = world.entities_of_topic(suv);
        let strongest = ids
            .iter()
            .copied()
            .max_by(|a, b| score(*a).total_cmp(&score(*b)))
            .unwrap();
        let weakest = ids
            .iter()
            .copied()
            .min_by(|a, b| score(*a).total_cmp(&score(*b)))
            .unwrap();
        let queries = topic_query_sweep(world, strongest);
        let a = measure_visibility(&stack, strongest, &queries, 10, 7);
        let b = measure_visibility(&stack, weakest, &queries, 10, 7);
        assert!(
            a.ai_mention_share() >= b.ai_mention_share(),
            "{} {:.2} vs {} {:.2}",
            world.entity(strongest).name,
            a.ai_mention_share(),
            world.entity(weakest).name,
            b.ai_mention_share()
        );
    }

    #[test]
    fn report_renders_all_engines() {
        let stack = stack();
        let e = stack.world().entities()[0].id;
        let queries = topic_query_sweep(stack.world(), e);
        let s = measure_visibility(&stack, e, &queries, 10, 1).render();
        for kind in EngineKind::ALL {
            assert!(s.contains(kind.name()));
        }
    }

    #[test]
    fn engine_accessor_works() {
        let stack = stack();
        let e = stack.world().entities()[0].id;
        let queries = topic_query_sweep(stack.world(), e);
        let report = measure_visibility(&stack, e, &queries, 10, 1);
        assert!(report.engine(EngineKind::Google).is_some());
        assert_eq!(report.queries, queries.len());
    }
}
