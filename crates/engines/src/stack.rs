//! The engine stack: five answer systems over shared substrates.

use std::cell::RefCell;
use std::collections::HashMap;
use std::ops::Range;
use std::sync::Arc;

use shift_classify::classify_intent;
use shift_classify::intent::QueryIntentLabel;
use shift_corpus::{EntityId, PageId, World};
use shift_llm::{GroundingMode, Llm, LlmConfig, Snippet, SnippetEntities};
use shift_metrics::bootstrap::SplitMix64;
use shift_search::serp::{
    excerpt_contains_lowercase, lowercase_occurrences, occurrences_within, Occurrence,
};
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
    // The generative engines by `EngineKind::index()`; Google's slot is
    // empty.
    lanes: [Option<Lane>; EngineKind::ALL.len()],
    llm: Llm,
    // Per-result text work done once at build. Entity names lowercased,
    // by `EntityId`: the needles the mention table was built from, and
    // those a snippet of a page without a table is scanned for.
    entity_names: Vec<String>,
    // Where each page's mention names occur in its body, so attributing
    // a snippet is a range check over its window.
    mentions: MentionTable,
    // Each page's citation domain and rerank factors. Result URLs are
    // their pages' URLs, since every index is built from the world.
    citing: CitationTables,
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

/// One generative engine: its persona, its retrieval engine and the
/// stable part of its per-domain citation preference,
/// `0.7 * unit_noise(seed_salt ^ domain hash)`, by dense domain id.
struct Lane {
    persona: Persona,
    retriever: SearchEngine,
    fingerprint: Box<[f64]>,
}

/// Every page's mention-name occurrences, page after page, in one
/// exactly sized allocation: page `p`'s are `occurrences[start..end]`
/// for `pages[p] == Some((start, end))`, as [`lowercase_occurrences`]
/// lists the page's lowercased mention names (in mention order) in its
/// body. `None` marks a page that function declines (a body that is not
/// case-simple, a name that is empty or holds `…`); its snippets are
/// attributed by scanning their windows.
#[derive(Debug, PartialEq)]
struct MentionTable {
    occurrences: Box<[Occurrence]>,
    pages: Box<[Option<(u32, u32)>]>,
}

impl MentionTable {
    fn build(world: &World, entity_names: &[String]) -> MentionTable {
        let mut occurrences = Vec::new();
        let mut names: Vec<&str> = Vec::new();
        let offset = |len: usize| u32::try_from(len).expect("fewer than 2^32 name occurrences");
        let pages = world
            .pages()
            .iter()
            .map(|page| {
                names.clear();
                names.extend(
                    page.mentions
                        .iter()
                        .map(|m| entity_names[m.entity.index()].as_str()),
                );
                let start = offset(occurrences.len());
                lowercase_occurrences(&page.body, &names, &mut occurrences)
                    .then(|| (start, offset(occurrences.len())))
            })
            .collect();
        MentionTable {
            occurrences: occurrences.into_boxed_slice(),
            pages,
        }
    }

    /// Page `page`'s occurrences, or `None` where it has no table.
    fn page(&self, page: PageId) -> Option<&[Occurrence]> {
        let (start, end) = self.pages[page.index()]?;
        Some(&self.occurrences[start as usize..end as usize])
    }
}

/// A registrable domain and its FNV-1a hash, which seeds the personas'
/// per-domain citation preference.
#[derive(Clone, Debug, PartialEq)]
struct CitedDomain {
    name: Arc<str>,
    hash: u64,
}

/// The query-independent factors of citation selection, computed once
/// at build: each page's citation domain (interned to a dense id) and
/// its freshness and authority factors, and the rank weight of every
/// pool position.
#[derive(Debug, PartialEq)]
struct CitationTables {
    // By dense domain id, in order of first appearance over the pages.
    domains: Box<[CitedDomain]>,
    pages: Box<[PageCite]>,
    // `rank_weight(pos)` for every position of the deepest persona
    // pool: a pool holds at most its persona's `pool_size` results.
    rank_weights: Box<[f64]>,
}

/// A page's citation domain id (`None` where its URL has no registrable
/// domain), `exp(-age / 90)` and its domain's authority.
#[derive(Clone, Copy, Debug, PartialEq)]
struct PageCite {
    domain: Option<u32>,
    fresh: f64,
    authority: f64,
}

impl CitationTables {
    /// Derives each page's citation domain from its URL as
    /// [`Citation::from_url`] does, looking the registrable domain up
    /// once per host, and the rank weights of positions `0..depth`.
    fn build(world: &World, depth: usize) -> CitationTables {
        let mut by_host: HashMap<String, Option<u32>> = HashMap::new();
        let mut ids: HashMap<String, u32> = HashMap::new();
        let mut domains = Vec::new();
        let pages = world
            .pages()
            .iter()
            .map(|page| {
                let domain = Url::parse(&page.url).ok().and_then(|url| {
                    if let Some(&id) = by_host.get(url.host()) {
                        return id;
                    }
                    let id = registrable_domain(url.host()).map(|name| {
                        let next = u32::try_from(domains.len()).expect("fewer than 2^32 domains");
                        *ids.entry(name).or_insert_with_key(|name| {
                            domains.push(CitedDomain {
                                hash: hash_str(name),
                                name: name.as_str().into(),
                            });
                            next
                        })
                    });
                    by_host.insert(url.host().to_string(), id);
                    id
                });
                let age = page.age_days(world.now_day()) as f64;
                PageCite {
                    domain,
                    fresh: (-age / 90.0).exp(),
                    authority: world.domain(page.domain).authority,
                }
            })
            .collect();
        CitationTables {
            domains: domains.into_boxed_slice(),
            pages,
            rank_weights: (0..depth).map(rank_weight).collect(),
        }
    }

    /// A persona's stable per-domain preference, by domain id.
    fn fingerprint(&self, seed_salt: u64) -> Box<[f64]> {
        self.domains
            .iter()
            .map(|d| 0.7 * unit_noise(seed_salt ^ d.hash))
            .collect()
    }

    /// The domain a citation of `page` carries, if any.
    fn domain(&self, page: PageId) -> Option<&CitedDomain> {
        let id = self.pages[page.index()].domain?;
        Some(&self.domains[id as usize])
    }
}

/// The citation rerank's weight for pool position `pos`.
fn rank_weight(pos: usize) -> f64 {
    1.0 / (1.0 + 0.05 * pos as f64)
}

/// Per-thread working memory of the answer path, reused from answer to
/// answer so computing one allocates only what the answer keeps.
#[derive(Default)]
struct AnswerScratch {
    // Snippets: which of a page's mentions a window shows, the answer's
    // entity lists back to back, and each snippet's range of them.
    shown: Vec<bool>,
    entities: Vec<(EntityId, f64)>,
    ranges: Vec<Range<usize>>,
    // Citation selection: (score, pool position, domain id) per
    // citable result, the positions chosen, and citations so far per
    // domain id, valid where stamped with `stamp`.
    scored: Vec<(f64, u32, u32)>,
    chosen: Vec<u32>,
    per_domain: Vec<(u32, u32)>,
    stamp: u32,
    // Synthesis: candidate entities per topic id.
    topic_counts: Vec<u32>,
}

thread_local! {
    static ANSWER_SCRATCH: RefCell<AnswerScratch> = RefCell::new(AnswerScratch::default());
}

/// Runs `f` on this thread's answer scratch, or on a fresh one when the
/// thread's is already in use further up the stack.
fn with_answer_scratch<R>(f: impl FnOnce(&mut AnswerScratch) -> R) -> R {
    ANSWER_SCRATCH.with(|scratch| match scratch.try_borrow_mut() {
        Ok(mut scratch) => f(&mut scratch),
        Err(_) => f(&mut AnswerScratch::default()),
    })
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
    ///
    /// The answer path's per-page tables (lowercased entity names, the
    /// mention-name occurrences, citation domains and rerank factors,
    /// the personas' per-domain preferences) read only the world, so a
    /// helper thread builds them while this thread builds the index.
    pub fn build_with_llm_config(world: Arc<World>, llm_config: LlmConfig) -> AnswerEngines {
        let personas = EngineKind::GENERATIVE.map(Persona::for_kind);
        let (google, (entity_names, mentions, citing, fingerprints)) =
            std::thread::scope(|scope| {
                let tables = scope.spawn(|| {
                    let entity_names: Vec<String> = world
                        .entities()
                        .iter()
                        .map(|e| e.name.to_lowercase())
                        .collect();
                    let mentions = MentionTable::build(&world, &entity_names);
                    let depth = personas.iter().map(|p| p.pool_size).max().unwrap_or(0);
                    let citing = CitationTables::build(&world, depth);
                    let fingerprints = personas.each_ref().map(|p| citing.fingerprint(p.seed_salt));
                    (entity_names, mentions, citing, fingerprints)
                });
                let google = SearchEngine::build(&world, RankingParams::google());
                let tables = tables
                    .join()
                    .unwrap_or_else(|panic| std::panic::resume_unwind(panic));
                (google, tables)
            });
        let index = google.index_handle();
        let mut lanes: [Option<Lane>; EngineKind::ALL.len()] = Default::default();
        for (persona, fingerprint) in personas.into_iter().zip(fingerprints) {
            let retriever = SearchEngine::with_index(index.clone(), persona.retrieval.clone());
            let slot = persona.kind.index();
            lanes[slot] = Some(Lane {
                persona,
                retriever,
                fingerprint,
            });
        }
        let llm = Llm::pretrain(&world, llm_config);
        AnswerEngines {
            world,
            google,
            lanes,
            llm,
            entity_names,
            mentions,
            citing,
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
    /// kernel scores the key's own terms, so a miss analyzes its query
    /// once. The returned SERP's `query` echo may be another raw query
    /// with the same key, so the answer path reads the caller's query
    /// instead.
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
            let terms: Vec<&str> = key.terms().collect();
            let serp = Arc::new(engine.search_analyzed_with(scratch, query, &terms, k));
            self.serp_cache.insert(key.clone(), Arc::clone(&serp));
            serp
        })
    }

    /// The generative engine `kind`.
    ///
    /// # Panics
    /// Panics for [`EngineKind::Google`], which has no persona.
    fn lane(&self, kind: EngineKind) -> &Lane {
        self.lanes[kind.index()]
            .as_ref()
            .expect("Google is not a generative persona")
    }

    /// A generative engine's retrieval pool: Gemini grounds through
    /// Google's own ranking; the other personas run their own retrieval
    /// parameters.
    fn pool(&self, lane: &Lane, scratch: &mut QueryScratch, query: &str) -> Arc<Serp> {
        let engine = match lane.persona.kind {
            EngineKind::Gemini => &self.google,
            _ => &lane.retriever,
        };
        self.cached_serp(engine, scratch, query, lane.persona.pool_size)
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
            _ => self.pool(self.lane(kind), scratch, query),
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
        self.citing.domain(page).map(|d| &*d.name)
    }

    /// Where `page`'s lowercased mention names occur in its body, built
    /// once at build; `None` where its snippets are attributed by a scan.
    pub fn mention_occurrences(&self, page: PageId) -> Option<&[Occurrence]> {
        self.mentions.page(page)
    }

    /// The persona of a generative engine.
    ///
    /// # Panics
    /// Panics for [`EngineKind::Google`], which has no persona.
    pub fn persona(&self, kind: EngineKind) -> &Persona {
        &self.lane(kind).persona
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
    /// Which names a window shows is a lookup: a name is visible iff one
    /// of its occurrences in the page's mention table lies inside the
    /// window's range. A page without a table (text that is not
    /// case-simple) has its window scanned with
    /// [`excerpt_contains_lowercase`], which gives the same flags.
    ///
    /// The snippets are collected straight into one shared slice, each
    /// shares its result's url and text window, and all their entity
    /// lists are one shared list, so the answer's evidence is two
    /// allocations however many results it has. An answer keeps its
    /// evidence for as long as it stays in the answer cache.
    pub fn snippets_from_serp(&self, serp: &Serp) -> Arc<[Snippet]> {
        with_answer_scratch(|scratch| {
            let AnswerScratch {
                shown,
                entities,
                ranges,
                ..
            } = scratch;
            entities.clear();
            ranges.clear();
            // Only a page without a table needs its names as needles.
            let mut names: Vec<&str> = Vec::new();
            for r in &serp.results {
                let page = self.world.page(r.page);
                shown.resize(page.mentions.len(), false);
                if let Some(occurrences) = self.mentions.page(r.page) {
                    // The index uses the raw layout, where a result's
                    // text is its own page body, so the window's range in
                    // its source is a range of the body the table lists.
                    debug_assert_eq!(r.snippet.source().len(), page.body.len());
                    occurrences_within(occurrences, r.snippet.range(), shown);
                } else {
                    names.clear();
                    names.extend(
                        page.mentions
                            .iter()
                            .map(|m| self.entity_names[m.entity.index()].as_str()),
                    );
                    excerpt_contains_lowercase(&r.snippet, &names, shown);
                }
                let start = entities.len();
                entities.extend(
                    page.mentions
                        .iter()
                        .zip(shown.iter())
                        .filter(|(_, &shown)| shown)
                        .map(|(m, _)| (m.entity, m.score)),
                );
                if entities.len() == start {
                    entities.extend(page.primary_mention().map(|m| (m.entity, m.score)));
                }
                ranges.push(start..entities.len());
            }
            let list: Arc<[(EntityId, f64)]> = Arc::from(&entities[..]);
            serp.results
                .iter()
                .zip(ranges.iter())
                .map(|(r, range)| Snippet {
                    url: Arc::clone(&r.url),
                    text: r.snippet.clone(),
                    entities: SnippetEntities::new(Arc::clone(&list), range.clone()),
                    age_days: r.age_days,
                })
                .collect()
        })
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
            _ => self.generative_answer(scratch, self.lane(kind), query, k, seed),
        }
    }

    fn google_answer(&self, scratch: &mut QueryScratch, query: &str, k: usize) -> EngineAnswer {
        let serp = self.retrieval_with(scratch, EngineKind::Google, query, k);
        let citations = serp
            .results
            .iter()
            .filter_map(|r| Some(citation(r, self.citing.domain(r.page)?)))
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
        lane: &Lane,
        query: &str,
        k: usize,
        seed: u64,
    ) -> EngineAnswer {
        let persona = &lane.persona;
        let intent = classify_intent(query);

        let pool = self.pool(lane, scratch, query);
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
            self.select_citations(lane, intent, query, &pool, k.min(persona.citations_k), seed)
        } else {
            Arc::new([])
        };

        let text = self.synthesize_text(persona.kind, query, &snippets, seed);

        EngineAnswer {
            engine: persona.kind,
            query: query.into(),
            citations,
            snippets,
            text,
        }
    }

    /// Citation selection: re-rank the retrieval pool with the persona's
    /// typology affinity, freshness/authority preferences and its
    /// idiosyncratic per-domain fingerprint, then take the top-k with a
    /// per-domain cap.
    ///
    /// Every query-independent factor is a table read; each score is the
    /// same product, in the same operand order, as computing the factors
    /// here would give.
    fn select_citations(
        &self,
        lane: &Lane,
        intent: QueryIntentLabel,
        query: &str,
        pool: &Serp,
        k: usize,
        seed: u64,
    ) -> Arc<[Citation]> {
        let persona = &lane.persona;
        let affinity = persona.affinity(intent);
        let query_hash = hash_str(query);
        let results = &pool.results;
        with_answer_scratch(|scratch| {
            let AnswerScratch {
                scored,
                chosen,
                per_domain,
                stamp,
                ..
            } = scratch;
            scored.clear();
            for (pos, r) in results.iter().enumerate() {
                let page = &self.citing.pages[r.page.index()];
                let Some(domain) = page.domain else {
                    continue;
                };
                let rank_w = self.citing.rank_weights[pos];
                let aff = affinity[r.source_type.index()];
                // Idiosyncratic fingerprint: mostly a stable per-domain
                // preference, partly query-specific.
                let hash = self.citing.domains[domain as usize].hash;
                let u_query = unit_noise(persona.seed_salt ^ hash ^ query_hash ^ seed);
                let jitter = 1.0
                    + persona.domain_jitter * (lane.fingerprint[domain as usize] + 0.3 * u_query);
                let score = rank_w
                    * aff
                    * (1.0 + persona.freshness_pref * page.fresh)
                    * (1.0 + persona.authority_pref * page.authority)
                    * jitter.max(0.05);
                let pos = u32::try_from(pos).expect("fewer than 2^32 results");
                scored.push((score, pos, domain));
            }
            // Best first, ties by url, then by pool position: the order
            // a stable sort on (score, url) leaves.
            scored.sort_unstable_by(|a, b| {
                b.0.total_cmp(&a.0)
                    .then_with(|| results[a.1 as usize].url.cmp(&results[b.1 as usize].url))
                    .then(a.1.cmp(&b.1))
            });

            *stamp = stamp.wrapping_add(1);
            if *stamp == 0 {
                per_domain.fill((0, 0));
                *stamp = 1;
            }
            per_domain.resize(self.citing.domains.len(), (0, 0));
            chosen.clear();
            for &(_, pos, domain) in scored.iter() {
                let (seen, n) = &mut per_domain[domain as usize];
                if *seen != *stamp {
                    (*seen, *n) = (*stamp, 0);
                }
                if (*n as usize) < persona.max_per_domain {
                    *n += 1;
                    chosen.push(pos);
                    if chosen.len() == k {
                        break;
                    }
                }
            }
            chosen
                .iter()
                .map(|&pos| {
                    let r = &results[pos as usize];
                    let domain = self.citing.domain(r.page).expect("scored results cite");
                    citation(r, domain)
                })
                .collect()
        })
    }

    /// A short synthesized answer: the model ranks the entities present in
    /// the evidence and verbalizes the top of the list.
    ///
    /// Retrieval pools contain lexical-accident results from other topics;
    /// the model, like a real LLM, answers within the query's subject — so
    /// candidates are restricted to the modal topic of the evidence. One
    /// walk over the evidence lists the entities and scores them.
    fn synthesize_text(
        &self,
        kind: EngineKind,
        query: &str,
        snippets: &[Snippet],
        seed: u64,
    ) -> Arc<str> {
        let answer = self
            .llm
            .rank_evidence(snippets, GroundingMode::Normal, seed, |candidates| {
                if let Some(modal) = self.modal_topic(candidates) {
                    candidates.retain(|e| self.world.entity(*e).topic.index() == modal);
                }
            });
        if answer.ranking.is_empty() {
            return format!("{}: no ranked entities for \"{query}\".", kind.name()).into();
        }
        let mut text = format!("{} — top picks for \"{query}\": ", kind.name());
        for (i, e) in answer.ranking.iter().take(5).enumerate() {
            if i > 0 {
                text.push_str(", ");
            }
            text.push_str(&self.world.entity(*e).name);
        }
        text.push('.');
        text.into()
    }

    /// Majority topic of `entities` = the query's subject, by topic
    /// index (ties break toward the lower topic id for determinism).
    fn modal_topic(&self, entities: &[EntityId]) -> Option<usize> {
        with_answer_scratch(|scratch| {
            let counts = &mut scratch.topic_counts;
            counts.clear();
            for e in entities {
                let topic = self.world.entity(*e).topic.index();
                if topic >= counts.len() {
                    counts.resize(topic + 1, 0);
                }
                counts[topic] += 1;
            }
            let mut modal = None;
            for (topic, &n) in counts.iter().enumerate() {
                if n > modal.map_or(0, |(_, best)| best) {
                    modal = Some((topic, n));
                }
            }
            modal.map(|(topic, _)| topic)
        })
    }
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
    use shift_textkit::Excerpt;

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
    fn builds_beside_the_index_are_deterministic() {
        let w = world();
        let (a, b) = (
            AnswerEngines::build(w.clone()),
            AnswerEngines::build(w.clone()),
        );
        assert_eq!(a.mentions, b.mentions);
        assert_eq!(a.citing, b.citing);
        // And equal to building them on this thread.
        assert_eq!(a.mentions, MentionTable::build(&w, &a.entity_names));
        assert_eq!(a.citing, CitationTables::build(&w, 60));
        assert!(!a.mentions.occurrences.is_empty());
        assert_eq!(a.mentions.pages.len(), w.pages().len());
        for kind in EngineKind::GENERATIVE {
            let lane = a.lane(kind);
            assert_eq!(
                lane.fingerprint,
                a.citing.fingerprint(lane.persona.seed_salt)
            );
            assert_eq!(lane.fingerprint.len(), a.citing.domains.len());
        }
        // Each domain is interned once, and every page whose URL has a
        // registrable domain carries it.
        let mut names: Vec<&str> = a.citing.domains.iter().map(|d| &*d.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), a.citing.domains.len());
        for page in w.pages() {
            let expected = Url::parse(&page.url)
                .ok()
                .and_then(|url| registrable_domain(url.host()));
            assert_eq!(a.citation_domain(page.id), expected.as_deref());
        }
    }

    #[test]
    fn pages_without_a_table_attribute_by_scan_to_the_same_entities() {
        let w = world();
        let lookup = AnswerEngines::build(w.clone());
        let mut scan = AnswerEngines::build(w.clone());
        scan.mentions.pages = vec![None; w.pages().len()].into();
        let serp = with_thread_scratch(|s| {
            lookup.retrieval_with(s, EngineKind::Gpt4o, "Top 10 most reliable SUVs", 10)
        });
        // Every result's body cut into 24-byte windows at every fifth
        // byte, so windows cut names at both edges.
        for at in (0..)
            .step_by(5)
            .take_while(|&at| serp.results.iter().any(|r| at < r.snippet.source().len()))
        {
            let mut cut = Serp::clone(&serp);
            for r in &mut cut.results {
                let body = Arc::clone(r.snippet.source());
                let mut start = at.min(body.len());
                let mut end = (start + 24).min(body.len());
                while !body.is_char_boundary(start) {
                    start -= 1;
                }
                while !body.is_char_boundary(end) {
                    end += 1;
                }
                let (leads, trails) = (start > 0, end < body.len());
                r.snippet = Excerpt::new(body, start..end, leads, trails);
            }
            let (a, b) = (
                lookup.snippets_from_serp(&cut),
                scan.snippets_from_serp(&cut),
            );
            assert_eq!(a.len(), cut.results.len());
            for (a, b) in a.iter().zip(b.iter()) {
                assert_eq!(a.entities, b.entities, "{:?} of {}", a.text, a.url);
            }
        }
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
