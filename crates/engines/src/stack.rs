//! The engine stack: five answer systems over shared substrates.

use std::collections::HashMap;
use std::sync::Arc;

use shift_classify::classify_intent;
use shift_classify::intent::QueryIntentLabel;
use shift_corpus::{PageId, World};
use shift_llm::{GroundingMode, Llm, LlmConfig, Snippet};
use shift_metrics::bootstrap::SplitMix64;
use shift_search::serp::contains_lowercase;
use shift_search::{
    with_thread_scratch, QueryScratch, RankingParams, SearchEngine, SearchIndex, Serp, SerpResult,
};
use shift_urlkit::{registrable_domain, Url};

use crate::answer::{Citation, EngineAnswer};
use crate::persona::{EngineKind, Persona};
use crate::serp_cache::{SerpCache, SerpCacheConfig, SerpCacheKey, SerpCacheStats};
use crate::single_flight::{SingleFlight, SingleFlightStats};

/// All five answer systems built over one world, one index build and one
/// pre-trained LLM. The world is shared via [`Arc`], so a stack is
/// self-contained and cheap to pass around.
pub struct AnswerEngines {
    world: Arc<World>,
    google: SearchEngine,
    retrievers: HashMap<EngineKind, SearchEngine>,
    personas: HashMap<EngineKind, Persona>,
    llm: Llm,
    // Per-result text work done once at build. Entity names lowercased
    // for snippet attribution, by `EntityId`.
    entity_names: Vec<String>,
    // Each page's citation domain, by `PageId`: `None` where its URL has
    // no registrable domain. Result URLs are their pages' URLs, since
    // every index is built from the world.
    page_domains: Vec<Option<CitedDomain>>,
    // SERP-level retrieval cache shared by every persona: entries are
    // keyed on (analyzed query, params fingerprint, k), so Gemini's
    // grounding through Google's ranking and repeated serving traffic
    // hit the same entries their first run populated.
    serp_cache: SerpCache,
    // Collapses concurrent identical cache misses: while one worker
    // runs the kernel for a key, others with the same key wait for its
    // result instead of re-running the same retrieval.
    single_flight: SingleFlight,
}

/// A page's registrable domain and its FNV-1a hash, which seeds the
/// personas' per-domain citation preference.
#[derive(Clone)]
struct CitedDomain {
    name: Arc<str>,
    hash: u64,
}

// The serving layer (`shift-serve`) and the parallel study runner share
// one stack across worker threads behind an `Arc`, so the whole engine
// stack must stay `Send + Sync`: no interior mutability anywhere in the
// tree — decision noise is derived from per-request seeds instead of
// shared RNG state. This assertion turns any regression into a compile
// error at the source rather than a trait-bound error at a use site.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<AnswerEngines>();
};

impl AnswerEngines {
    /// Builds the stack: one shared index, Google's organic parameters,
    /// one retrieval engine per persona, and the pre-trained LLM.
    pub fn build(world: Arc<World>) -> AnswerEngines {
        Self::build_with_llm_config(world, LlmConfig::default())
    }

    /// Builds the stack with a custom LLM configuration (used by the
    /// pre-training ablations).
    pub fn build_with_llm_config(world: Arc<World>, llm_config: LlmConfig) -> AnswerEngines {
        let google = SearchEngine::build(&world, RankingParams::google());
        let index = google.index_handle();
        let mut retrievers = HashMap::new();
        let mut personas = HashMap::new();
        for kind in EngineKind::GENERATIVE {
            let persona = Persona::for_kind(kind);
            let engine = SearchEngine::with_index(index.clone(), persona.retrieval.clone());
            retrievers.insert(kind, engine);
            personas.insert(kind, persona);
        }
        let llm = Llm::pretrain(&world, llm_config);
        let entity_names = world
            .entities()
            .iter()
            .map(|e| e.name.to_lowercase())
            .collect();
        let page_domains = page_domains(&world);
        AnswerEngines {
            world,
            google,
            retrievers,
            personas,
            llm,
            entity_names,
            page_domains,
            serp_cache: SerpCache::new(&SerpCacheConfig::default()),
            single_flight: SingleFlight::new(),
        }
    }

    /// Snapshot of the SERP-level retrieval cache counters.
    pub fn serp_cache_stats(&self) -> SerpCacheStats {
        self.serp_cache.stats()
    }

    /// Snapshot of the single-flight dedup counters under the cache.
    pub fn single_flight_stats(&self) -> SingleFlightStats {
        self.single_flight.stats()
    }

    /// Retrieval through the SERP cache: a hit returns the shared
    /// cached result list; a miss runs the kernel under single-flight —
    /// concurrent misses on the same key collapse into one kernel run
    /// whose result every waiter shares — and populates the cache. The
    /// returned SERP's `query` echo may be another raw query with the
    /// same key, so the answer path reads the caller's query instead.
    fn cached_serp(
        &self,
        engine: &SearchEngine,
        scratch: &mut QueryScratch,
        query: &str,
        k: usize,
    ) -> Arc<Serp> {
        let key = SerpCacheKey::new(query, engine.params().fingerprint(), k);
        if let Some(hit) = self.serp_cache.get(&key) {
            return hit;
        }
        self.single_flight.run(&key, || {
            let serp = Arc::new(engine.search_with(scratch, query, k));
            self.serp_cache.insert(key.clone(), Arc::clone(&serp));
            serp
        })
    }

    /// The retrieval an engine's answer reads, through the SERP cache:
    /// Google's k-deep organic SERP; Gemini's pool grounds through
    /// Google's own ranking; the other personas run their own retrieval
    /// parameters. Every answer of `kind` for `query` shares the
    /// returned SERP's strings while it stays cached.
    pub fn retrieval_with(
        &self,
        scratch: &mut QueryScratch,
        kind: EngineKind,
        query: &str,
        k: usize,
    ) -> Arc<Serp> {
        match kind {
            EngineKind::Google => self.cached_serp(&self.google, scratch, query, k),
            EngineKind::Gemini => {
                self.cached_serp(&self.google, scratch, query, self.personas[&kind].pool_size)
            }
            _ => self.cached_serp(
                &self.retrievers[&kind],
                scratch,
                query,
                self.personas[&kind].pool_size,
            ),
        }
    }

    /// The index every engine retrieves from.
    pub fn index(&self) -> &SearchIndex {
        self.google.index()
    }

    /// The world the stack runs over.
    pub fn world(&self) -> &World {
        &self.world
    }

    /// Clones the shared world handle.
    pub fn world_handle(&self) -> Arc<World> {
        Arc::clone(&self.world)
    }

    /// The shared pre-trained LLM.
    pub fn llm(&self) -> &Llm {
        &self.llm
    }

    /// Google's organic SERP (the study's reference ranking).
    pub fn google_serp(&self, query: &str, k: usize) -> Serp {
        with_thread_scratch(|scratch| self.google_serp_with(scratch, query, k))
    }

    /// Google's organic SERP using an explicitly managed query scratch.
    /// It echoes `query`, byte-identical to a kernel run for this call.
    pub fn google_serp_with(&self, scratch: &mut QueryScratch, query: &str, k: usize) -> Serp {
        let mut serp = Arc::unwrap_or_clone(self.cached_serp(&self.google, scratch, query, k));
        serp.query.clear();
        serp.query.push_str(query);
        serp
    }

    /// The registrable domain a citation of `page` carries, computed
    /// once at build; `None` where the page's URL has none.
    pub fn citation_domain(&self, page: PageId) -> Option<&str> {
        self.page_domains[page.index()].as_ref().map(|d| &*d.name)
    }

    /// The persona of a generative engine.
    pub fn persona(&self, kind: EngineKind) -> &Persona {
        &self.personas[&kind]
    }

    /// Converts a SERP into LLM evidence snippets (presentation order =
    /// retrieval order).
    ///
    /// A snippet only *speaks about* the entities whose names are visible
    /// in its text window — a snippet of a top-10 list usually shows the
    /// head of the list, so tail entities go unsupported. This is the
    /// mechanism behind Table 3's citation-miss rates. When the window
    /// names nobody, the page's primary mention stands in (the page is
    /// still "about" its subject).
    ///
    /// The snippets are collected straight into one shared slice, and
    /// each snippet's entity list is sized exactly: an answer keeps its
    /// evidence for as long as it stays in the answer cache.
    pub fn snippets_from_serp(&self, serp: &Serp) -> Arc<[Snippet]> {
        let mut names: Vec<&str> = Vec::new();
        let mut shown: Vec<bool> = Vec::new();
        serp.results
            .iter()
            .map(|r| {
                let page = self.world.page(r.page);
                names.clear();
                names.extend(
                    page.mentions
                        .iter()
                        .map(|m| self.entity_names[m.entity.index()].as_str()),
                );
                shown.resize(names.len(), false);
                contains_lowercase(&r.snippet, &names, &mut shown);
                let visible = shown.iter().filter(|&&s| s).count();
                let entities: Vec<(shift_corpus::EntityId, f64)> = if visible == 0 {
                    page.primary_mention()
                        .map(|primary| vec![(primary.entity, primary.score)])
                        .unwrap_or_default()
                } else {
                    let mut entities = Vec::with_capacity(visible);
                    entities.extend(
                        page.mentions
                            .iter()
                            .zip(&shown)
                            .filter(|(_, &shown)| shown)
                            .map(|(m, _)| (m.entity, m.score)),
                    );
                    entities
                };
                Snippet {
                    url: Arc::clone(&r.url),
                    text: Arc::clone(&r.snippet),
                    entities,
                    age_days: r.age_days,
                }
            })
            .collect()
    }

    /// Issues `query` to one engine and returns its answer with citations.
    ///
    /// `seed` controls the decision noise of the generative run (Google is
    /// fully deterministic and ignores it). Retrieval reuses this
    /// thread's shared [`QueryScratch`]; a long-lived worker should hold
    /// its own scratch and call [`AnswerEngines::answer_with`] instead.
    pub fn answer(&self, kind: EngineKind, query: &str, k: usize, seed: u64) -> EngineAnswer {
        with_thread_scratch(|scratch| self.answer_with(scratch, kind, query, k, seed))
    }

    /// [`AnswerEngines::answer`] with an explicitly managed query
    /// scratch: one scratch serves every retrieval a request performs,
    /// across all five personas, so a worker's steady-state retrievals
    /// allocate nothing.
    pub fn answer_with(
        &self,
        scratch: &mut QueryScratch,
        kind: EngineKind,
        query: &str,
        k: usize,
        seed: u64,
    ) -> EngineAnswer {
        match kind {
            EngineKind::Google => self.google_answer(scratch, query, k),
            _ => self.generative_answer(scratch, kind, query, k, seed),
        }
    }

    fn google_answer(&self, scratch: &mut QueryScratch, query: &str, k: usize) -> EngineAnswer {
        let serp = self.retrieval_with(scratch, EngineKind::Google, query, k);
        let citations = serp
            .results
            .iter()
            .filter_map(|r| {
                let domain = self.page_domains[r.page.index()].as_ref()?;
                Some(citation(r, domain))
            })
            .collect();
        let snippets = self.snippets_from_serp(&serp);
        EngineAnswer {
            engine: EngineKind::Google,
            query: query.into(),
            citations,
            snippets,
            text: "".into(), // ten blue links, no synthesis
        }
    }

    fn generative_answer(
        &self,
        scratch: &mut QueryScratch,
        kind: EngineKind,
        query: &str,
        k: usize,
        seed: u64,
    ) -> EngineAnswer {
        let persona = &self.personas[&kind];
        let intent = classify_intent(query);

        let pool = self.retrieval_with(scratch, kind, query, k);
        let snippets = self.snippets_from_serp(&pool);

        // Citation suppression outside consideration intent (Claude).
        let cites = if intent == QueryIntentLabel::Consideration {
            true
        } else {
            let mut rng =
                SplitMix64::new(persona.seed_salt ^ hash_str(query) ^ seed.wrapping_mul(0x9E37));
            ((rng.next_u64() % 1000) as f64) < persona.off_consideration_citation_rate * 1000.0
        };

        let citations: Arc<[Citation]> = if cites {
            self.select_citations(
                persona,
                intent,
                query,
                &pool,
                k.min(persona.citations_k),
                seed,
            )
            .into()
        } else {
            Arc::new([])
        };

        let text = self.synthesize_text(kind, query, &snippets, seed);

        EngineAnswer {
            engine: kind,
            query: query.into(),
            citations,
            snippets,
            text: text.into(),
        }
    }

    /// Citation selection: re-rank the retrieval pool with the persona's
    /// typology affinity, freshness/authority preferences and its
    /// idiosyncratic per-domain fingerprint, then take the top-k with a
    /// per-domain cap.
    fn select_citations(
        &self,
        persona: &Persona,
        intent: QueryIntentLabel,
        query: &str,
        pool: &Serp,
        k: usize,
        seed: u64,
    ) -> Vec<Citation> {
        let affinity = persona.affinity(intent);
        let query_hash = hash_str(query);
        let mut scored: Vec<(f64, &SerpResult, &CitedDomain)> = pool
            .results
            .iter()
            .enumerate()
            .filter_map(|(pos, r)| {
                let cited = self.page_domains[r.page.index()].as_ref()?;
                let domain = self.world.domain(self.world.page(r.page).domain);
                let rank_w = 1.0 / (1.0 + 0.05 * pos as f64);
                let aff = affinity[r.source_type.index()];
                let fresh = (-r.age_days / 90.0).exp();
                // Idiosyncratic fingerprint: mostly a stable per-domain
                // preference, partly query-specific.
                let u_dom = unit_noise(persona.seed_salt ^ cited.hash);
                let u_query = unit_noise(persona.seed_salt ^ cited.hash ^ query_hash ^ seed);
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
            let n = per_domain.entry(&cited.name).or_insert(0);
            if *n < persona.max_per_domain {
                *n += 1;
                out.push(citation(r, cited));
                if out.len() == k {
                    break;
                }
            }
        }
        out
    }

    /// A short synthesized answer: the model ranks the entities present in
    /// the evidence and verbalizes the top of the list.
    ///
    /// Retrieval pools contain lexical-accident results from other topics;
    /// the model, like a real LLM, answers within the query's subject — so
    /// candidates are restricted to the modal topic of the evidence.
    fn synthesize_text(
        &self,
        kind: EngineKind,
        query: &str,
        snippets: &[Snippet],
        seed: u64,
    ) -> String {
        let mut candidates: Vec<shift_corpus::EntityId> = snippets
            .iter()
            .flat_map(|s| s.entities.iter().map(|(e, _)| *e))
            .collect();
        candidates.sort();
        candidates.dedup();
        // Majority topic of the evidence = the query's subject (ties
        // break toward the lower topic id for determinism).
        let mut topic_mass: std::collections::BTreeMap<shift_corpus::TopicId, usize> =
            std::collections::BTreeMap::new();
        for e in &candidates {
            *topic_mass.entry(self.world.entity(*e).topic).or_insert(0) += 1;
        }
        if let Some((&modal, _)) = topic_mass
            .iter()
            .max_by(|a, b| a.1.cmp(b.1).then_with(|| b.0.cmp(a.0)))
        {
            candidates.retain(|e| self.world.entity(*e).topic == modal);
        }
        if candidates.is_empty() {
            return format!("{}: no ranked entities for \"{query}\".", kind.name());
        }
        let answer = self
            .llm
            .rank_entities(&candidates, snippets, GroundingMode::Normal, seed);
        let names: Vec<&str> = answer
            .ranking
            .iter()
            .take(5)
            .map(|e| self.world.entity(*e).name.as_str())
            .collect();
        format!(
            "{} — top picks for \"{query}\": {}.",
            kind.name(),
            names.join(", ")
        )
    }
}

/// Each page's citation domain, derived from its URL as
/// [`Citation::from_url`] derives it, with the registrable domain looked
/// up once per host.
fn page_domains(world: &World) -> Vec<Option<CitedDomain>> {
    let mut by_host: HashMap<String, Option<CitedDomain>> = HashMap::new();
    world
        .pages()
        .iter()
        .map(|page| {
            let url = Url::parse(&page.url).ok()?;
            if let Some(cited) = by_host.get(url.host()) {
                return cited.clone();
            }
            let cited = registrable_domain(url.host()).map(|name| CitedDomain {
                hash: hash_str(&name),
                name: name.into(),
            });
            by_host.insert(url.host().to_string(), cited.clone());
            cited
        })
        .collect()
}

/// The citation of a result whose page cites as `domain`: what
/// [`Citation::from_url`] builds from the result's URL, sharing the
/// result's url and the page's domain string.
fn citation(r: &SerpResult, domain: &CitedDomain) -> Citation {
    Citation {
        url: Arc::clone(&r.url),
        domain: Arc::clone(&domain.name),
        page: r.page,
        source_type: r.source_type,
        age_days: r.age_days,
    }
}

/// FNV-1a over a string (stable across runs).
fn hash_str(s: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in s.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// Deterministic noise in `[-1, 1]` from a key.
fn unit_noise(key: u64) -> f64 {
    let mut rng = SplitMix64::new(key);
    2.0 * (rng.next_u64() as f64 / u64::MAX as f64) - 1.0
}

#[cfg(test)]
mod tests {
    use super::*;
    use shift_corpus::{SourceType, WorldConfig};
    use shift_metrics::jaccard;

    fn world() -> Arc<World> {
        Arc::new(World::generate(&WorldConfig::small(), 55))
    }

    #[test]
    fn all_engines_answer_ranking_queries() {
        let w = world();
        let stack = AnswerEngines::build(w.clone());
        for kind in EngineKind::ALL {
            let a = stack.answer(kind, "Top 10 most reliable SUVs", 10, 1);
            assert_eq!(a.engine, kind);
            assert!(
                !a.citations.is_empty(),
                "{kind:?} returned no citations for a consideration query"
            );
            assert!(a.citations.len() <= 10);
            assert!(!a.snippets.is_empty());
        }
    }

    #[test]
    fn answers_are_deterministic_per_seed() {
        let w = world();
        let stack = AnswerEngines::build(w.clone());
        let a = stack.answer(EngineKind::Gpt4o, "best laptops 2025", 10, 3);
        let b = stack.answer(EngineKind::Gpt4o, "best laptops 2025", 10, 3);
        assert_eq!(a.domains(), b.domains());
        assert_eq!(a.text, b.text);
    }

    #[test]
    fn ai_engines_diverge_from_google_domains() {
        let w = world();
        let stack = AnswerEngines::build(w.clone());
        let queries = [
            "Top 10 most reliable smartphones",
            "best laptops for students",
            "top rated smartwatches 2025",
            "most reliable electric cars",
        ];
        for kind in EngineKind::GENERATIVE {
            let mut total = 0.0;
            for q in &queries {
                let g = stack.answer(EngineKind::Google, q, 10, 0);
                let a = stack.answer(kind, q, 10, 0);
                total += jaccard(&g.domains(), &a.domains());
            }
            let mean = total / queries.len() as f64;
            assert!(
                mean < 0.6,
                "{kind:?} overlaps too much with Google: {mean:.2}"
            );
        }
    }

    #[test]
    fn gpt_diverges_more_than_perplexity() {
        let w = world();
        let stack = AnswerEngines::build(w.clone());
        let queries: Vec<String> = (0..12)
            .map(|i| {
                let topics = ["smartphones", "laptops", "smartwatches", "electric cars"];
                format!("Top 10 best {} pick {}", topics[i % 4], i)
            })
            .collect();
        let mean_overlap = |kind: EngineKind| {
            let mut total = 0.0;
            for q in &queries {
                let g = stack.answer(EngineKind::Google, q, 10, 0);
                let a = stack.answer(kind, q, 10, 0);
                total += jaccard(&g.domains(), &a.domains());
            }
            total / queries.len() as f64
        };
        let gpt = mean_overlap(EngineKind::Gpt4o);
        let pplx = mean_overlap(EngineKind::Perplexity);
        assert!(
            gpt < pplx,
            "GPT overlap ({gpt:.3}) must be below Perplexity ({pplx:.3})"
        );
    }

    #[test]
    fn claude_suppresses_citations_off_consideration() {
        let w = world();
        let stack = AnswerEngines::build(w.clone());
        let mut empty = 0;
        let mut total = 0;
        for i in 0..20 {
            let q = format!("How does smartphone battery {i} work?");
            let a = stack.answer(EngineKind::Claude, &q, 10, 0);
            total += 1;
            if a.citations.is_empty() {
                empty += 1;
            }
        }
        assert!(
            empty > total / 3,
            "Claude should skip citations for most informational queries ({empty}/{total})"
        );
        // But consideration queries always cite.
        let a = stack.answer(EngineKind::Claude, "best smartphones 2025", 10, 0);
        assert!(!a.citations.is_empty());
    }

    #[test]
    fn claude_citations_avoid_social_sources() {
        let w = world();
        let stack = AnswerEngines::build(w.clone());
        let mut social = 0usize;
        let mut total = 0usize;
        for q in [
            "best smartphones 2025",
            "top rated laptops",
            "most reliable SUVs",
            "best smartwatches for runners",
        ] {
            let a = stack.answer(EngineKind::Claude, q, 10, 0);
            total += a.citations.len();
            social += a
                .citations
                .iter()
                .filter(|c| c.source_type == SourceType::Social)
                .count();
        }
        assert!(total > 0);
        assert!(
            (social as f64) < 0.1 * total as f64,
            "Claude cited {social}/{total} social sources"
        );
    }

    #[test]
    fn per_domain_cap_is_respected() {
        let w = world();
        let stack = AnswerEngines::build(w.clone());
        for kind in EngineKind::GENERATIVE {
            let a = stack.answer(kind, "Top 10 best laptops 2025", 10, 0);
            let cap = stack.persona(kind).max_per_domain;
            let mut counts: HashMap<&str, usize> = HashMap::new();
            for c in a.citations.iter() {
                *counts.entry(&*c.domain).or_insert(0) += 1;
            }
            for (d, n) in counts {
                assert!(n <= cap, "{kind:?} cited {d} {n} times (cap {cap})");
            }
        }
    }

    #[test]
    fn synthesized_text_names_entities() {
        let w = world();
        let stack = AnswerEngines::build(w.clone());
        let a = stack.answer(EngineKind::Gpt4o, "Top 10 most reliable SUVs", 10, 0);
        assert!(a.text.contains("GPT-4o"));
        assert!(a.text.contains("top picks"));
        // At least one SUV entity name should appear.
        let (suv_topic, _) = shift_corpus::topics::topic_by_key("suvs").unwrap();
        let named = w
            .entities_of_topic(suv_topic)
            .iter()
            .any(|e| a.text.contains(&w.entity(*e).name));
        assert!(named, "answer text: {}", a.text);
    }

    #[test]
    fn serp_cache_hits_are_byte_identical_to_kernel_runs() {
        let w = world();
        let stack = AnswerEngines::build(w.clone());
        let q = "Best Laptops for Students";
        let first = stack.google_serp(q, 10);
        let miss_stats = stack.serp_cache_stats();
        assert!(miss_stats.inserts > 0);
        let second = stack.google_serp(q, 10);
        let hit_stats = stack.serp_cache_stats();
        assert!(hit_stats.hits > miss_stats.hits, "second run must hit");
        assert_eq!(first.query, second.query);
        assert_eq!(first.results.len(), second.results.len());
        for (a, b) in first.results.iter().zip(&second.results) {
            assert_eq!(a.url, b.url);
            assert_eq!(a.score.to_bits(), b.score.to_bits());
            assert_eq!(a.snippet, b.snippet);
        }
        // A raw query normalizing identically hits the same entry but
        // echoes its own text.
        let cased = stack.google_serp("best laptops FOR students?", 10);
        assert_eq!(cased.query, "best laptops FOR students?");
        assert_eq!(cased.urls(), first.urls());
        assert!(stack.serp_cache_stats().hits > hit_stats.hits);
    }

    #[test]
    fn full_answers_are_identical_with_and_without_cache() {
        let w = world();
        let stack = AnswerEngines::build(w.clone());
        for kind in EngineKind::ALL {
            let cold = stack.answer(kind, "Top 10 most reliable SUVs", 10, 1);
            let warm = stack.answer(kind, "Top 10 most reliable SUVs", 10, 1);
            assert_eq!(cold.domains(), warm.domains());
            assert_eq!(cold.text, warm.text);
            assert_eq!(cold.snippets.len(), warm.snippets.len());
        }
        assert!(stack.serp_cache_stats().hits > 0);
    }

    #[test]
    fn hits_on_another_raw_querys_entry_answer_like_a_fresh_stack() {
        let w = world();
        let warmed = AnswerEngines::build(w.clone());
        let fresh = AnswerEngines::build(w.clone());
        // Same cache key, different raw text: the warmed stack answers
        // from entries whose echo is the first query's.
        for kind in EngineKind::ALL {
            warmed.answer(kind, "best laptops FOR students?", 10, 1);
        }
        let hits = warmed.serp_cache_stats().hits;
        for kind in EngineKind::ALL {
            let q = "Best Laptops for Students";
            let (a, b) = (warmed.answer(kind, q, 10, 1), fresh.answer(kind, q, 10, 1));
            assert_eq!(format!("{a:?}"), format!("{b:?}"), "{kind:?}");
        }
        assert!(warmed.serp_cache_stats().hits >= hits + 5);
    }

    #[test]
    fn concurrent_cold_misses_collapse_to_identical_bytes() {
        let w = world();
        let stack = Arc::new(AnswerEngines::build(w.clone()));
        let q = "Best Smartwatches for Runners";
        let reference = {
            // An independent stack gives the uncached kernel answer.
            let fresh = AnswerEngines::build(w.clone());
            fresh.google_serp(q, 10)
        };
        const N: usize = 8;
        let barrier = Arc::new(std::sync::Barrier::new(N));
        let handles: Vec<_> = (0..N)
            .map(|_| {
                let (stack, barrier) = (Arc::clone(&stack), Arc::clone(&barrier));
                std::thread::spawn(move || {
                    barrier.wait();
                    stack.google_serp(q, 10)
                })
            })
            .collect();
        let results: Vec<Serp> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        for serp in &results {
            assert_eq!(serp.query, reference.query);
            assert_eq!(serp.results.len(), reference.results.len());
            for (a, b) in serp.results.iter().zip(&reference.results) {
                assert_eq!(a.url, b.url);
                assert_eq!(a.score.to_bits(), b.score.to_bits());
                assert_eq!(a.snippet, b.snippet);
            }
        }
        // Accounting must balance: every thread either hit the cache,
        // led a flight, or waited on one.
        let sf = stack.single_flight_stats();
        let cache = stack.serp_cache_stats();
        assert_eq!(sf.leaders + sf.waiters + cache.hits, N as u64);
        assert!(sf.leaders >= 1);
        assert_eq!(cache.inserts, sf.leaders, "one insert per kernel run");
    }

    #[test]
    fn hash_and_noise_are_stable() {
        assert_eq!(hash_str("abc"), hash_str("abc"));
        assert_ne!(hash_str("abc"), hash_str("abd"));
        let n = unit_noise(42);
        assert!((-1.0..=1.0).contains(&n));
        assert_eq!(n, unit_noise(42));
    }
}
