//! World generation: the top-level synthetic-web assembly.

use std::collections::HashMap;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use shift_freshness::civil::CivilDate;

use crate::domain_gen::{generate_domains, Coverage, Domain};
use crate::entity::{generate_topic_entities, Entity};
use crate::html_gen::render_html;
use crate::ids::{DomainId, EntityId, PageId, TopicId};
use crate::page::{DateMarkup, Mention, Page, PageKind};
use crate::source::SourceType;
use crate::text_gen;
use crate::topics::{topic_specs, TopicSpec};

/// Scale and calibration knobs for world generation.
#[derive(Debug, Clone)]
pub struct WorldConfig {
    /// "Best X 2025" lists per topic.
    pub ranking_lists_per_topic: usize,
    /// Review count multiplier — a popularity-1.0 entity gets this many.
    pub reviews_per_popular_entity: usize,
    /// News items per topic.
    pub news_per_topic: usize,
    /// "X vs Y" pieces per topic.
    pub comparisons_per_topic: usize,
    /// Evergreen guides per topic.
    pub guides_per_topic: usize,
    /// Forum threads per topic.
    pub forum_threads_per_topic: usize,
    /// Video pages per topic.
    pub videos_per_topic: usize,
    /// Archive depth: a popularity-1.0 entity gets this many *old* pages
    /// (ages ≥ ~250 days). Archives are what pre-training actually reads —
    /// popular entities have years of coverage, niche ones almost none.
    pub archive_pages_per_entity: usize,
    /// The study's reference "today".
    pub now: CivilDate,
    /// Hard cap on page age in days.
    pub max_age_days: i64,
}

impl WorldConfig {
    /// The scale used for the committed EXPERIMENTS.md numbers
    /// (≈ 2,000 pages).
    pub fn default_scale() -> Self {
        WorldConfig {
            ranking_lists_per_topic: 12,
            reviews_per_popular_entity: 5,
            news_per_topic: 8,
            comparisons_per_topic: 8,
            guides_per_topic: 5,
            forum_threads_per_topic: 26,
            videos_per_topic: 12,
            archive_pages_per_entity: 8,
            now: CivilDate::new(2025, 11, 1).expect("valid reference date"),
            max_age_days: 1900,
        }
    }

    /// The paper-artifact scale: alias of [`WorldConfig::default_scale`],
    /// named for gates and docs that speak in terms of the paper's
    /// committed numbers.
    pub fn paper() -> Self {
        WorldConfig::default_scale()
    }

    /// A fast scale for unit tests (≈ 900 pages).
    pub fn small() -> Self {
        WorldConfig {
            ranking_lists_per_topic: 5,
            reviews_per_popular_entity: 2,
            news_per_topic: 3,
            comparisons_per_topic: 3,
            guides_per_topic: 2,
            forum_threads_per_topic: 12,
            videos_per_topic: 5,
            archive_pages_per_entity: 6,
            ..WorldConfig::default_scale()
        }
    }

    /// A stress scale for benchmarks (≈ 6,000 pages).
    pub fn large() -> Self {
        WorldConfig {
            ranking_lists_per_topic: 30,
            reviews_per_popular_entity: 12,
            news_per_topic: 24,
            comparisons_per_topic: 24,
            guides_per_topic: 12,
            forum_threads_per_topic: 70,
            videos_per_topic: 30,
            archive_pages_per_entity: 18,
            ..WorldConfig::default_scale()
        }
    }

    /// The paper scale with every per-topic/per-entity volume knob
    /// multiplied by `factor` — the corpus-size axis of the retrieval
    /// scale sweep (`factor` 10 ≈ 27k pages, 100 ≈ 270k pages). The
    /// topic/entity/domain structure is untouched, so the sweep measures
    /// posting-list *depth*, not vocabulary growth.
    pub fn scaled(factor: usize) -> Self {
        let base = WorldConfig::paper();
        let mul = |n: usize| (n * factor).max(1);
        WorldConfig {
            ranking_lists_per_topic: mul(base.ranking_lists_per_topic),
            reviews_per_popular_entity: mul(base.reviews_per_popular_entity),
            news_per_topic: mul(base.news_per_topic),
            comparisons_per_topic: mul(base.comparisons_per_topic),
            guides_per_topic: mul(base.guides_per_topic),
            forum_threads_per_topic: mul(base.forum_threads_per_topic),
            videos_per_topic: mul(base.videos_per_topic),
            archive_pages_per_entity: mul(base.archive_pages_per_entity),
            ..base
        }
    }
}

impl Default for WorldConfig {
    fn default() -> Self {
        WorldConfig::default_scale()
    }
}

/// The fully generated synthetic web.
#[derive(Debug)]
pub struct World {
    config: WorldConfig,
    seed: u64,
    now_day: i64,
    entities: Vec<Entity>,
    domains: Vec<Domain>,
    pages: Vec<Page>,
    entities_by_topic: Vec<Vec<EntityId>>,
    pages_by_topic: Vec<Vec<PageId>>,
    pages_by_entity: Vec<Vec<PageId>>,
    domain_by_host: HashMap<String, DomainId>,
    page_by_url: HashMap<String, PageId>,
}

impl World {
    /// Generates a world deterministically from `seed`.
    pub fn generate(config: &WorldConfig, seed: u64) -> World {
        let mut rng = StdRng::seed_from_u64(seed);
        let now_day = config.now.to_day_number();
        let specs = topic_specs();

        // Entities.
        let mut entities = Vec::new();
        let mut entities_by_topic = vec![Vec::new(); specs.len()];
        let mut next_entity = 0u32;
        for (ti, spec) in specs.iter().enumerate() {
            let batch =
                generate_topic_entities(TopicId::from(ti), spec, &mut next_entity, &mut rng);
            for e in &batch {
                entities_by_topic[ti].push(e.id);
            }
            entities.extend(batch);
        }

        // Domains.
        let domains = generate_domains(&entities);
        let domain_by_host: HashMap<String, DomainId> =
            domains.iter().map(|d| (d.host.clone(), d.id)).collect();

        // Pages.
        let mut builder = PageBuilder {
            config,
            now_day,
            domains: &domains,
            domain_by_host: &domain_by_host,
            pages: Vec::new(),
            rng: &mut rng,
        };
        for (ti, spec) in specs.iter().enumerate() {
            let tid = TopicId::from(ti);
            let topic_entities: Vec<&Entity> = entities_by_topic[ti]
                .iter()
                .map(|id| &entities[id.index()])
                .collect();
            builder.build_topic(tid, spec, &topic_entities);
        }
        let pages = builder.pages;

        // Indices.
        let mut pages_by_topic = vec![Vec::new(); specs.len()];
        let mut pages_by_entity = vec![Vec::new(); entities.len()];
        let mut page_by_url = HashMap::with_capacity(pages.len());
        for p in &pages {
            pages_by_topic[p.topic.index()].push(p.id);
            for m in &p.mentions {
                pages_by_entity[m.entity.index()].push(p.id);
            }
            page_by_url.insert(p.url.clone(), p.id);
        }

        World {
            config: config.clone(),
            seed,
            now_day,
            entities,
            domains,
            pages,
            entities_by_topic,
            pages_by_topic,
            pages_by_entity,
            domain_by_host,
            page_by_url,
        }
    }

    /// The generation seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The generation configuration.
    pub fn config(&self) -> &WorldConfig {
        &self.config
    }

    /// The study's reference day (days since 1970-01-01).
    pub fn now_day(&self) -> i64 {
        self.now_day
    }

    /// The study's reference date.
    pub fn now_date(&self) -> CivilDate {
        self.config.now
    }

    /// All entities, dense by [`EntityId`].
    pub fn entities(&self) -> &[Entity] {
        &self.entities
    }

    /// All domains, dense by [`DomainId`].
    pub fn domains(&self) -> &[Domain] {
        &self.domains
    }

    /// All pages, dense by [`PageId`].
    pub fn pages(&self) -> &[Page] {
        &self.pages
    }

    /// Entity accessor.
    pub fn entity(&self, id: EntityId) -> &Entity {
        &self.entities[id.index()]
    }

    /// Domain accessor.
    pub fn domain(&self, id: DomainId) -> &Domain {
        &self.domains[id.index()]
    }

    /// Page accessor.
    pub fn page(&self, id: PageId) -> &Page {
        &self.pages[id.index()]
    }

    /// Entities of one topic.
    pub fn entities_of_topic(&self, topic: TopicId) -> &[EntityId] {
        &self.entities_by_topic[topic.index()]
    }

    /// Pages of one topic.
    pub fn pages_of_topic(&self, topic: TopicId) -> &[PageId] {
        &self.pages_by_topic[topic.index()]
    }

    /// Pages mentioning an entity.
    pub fn pages_mentioning(&self, entity: EntityId) -> &[PageId] {
        &self.pages_by_entity[entity.index()]
    }

    /// Domain lookup by host.
    pub fn domain_by_host(&self, host: &str) -> Option<DomainId> {
        self.domain_by_host.get(host).copied()
    }

    /// Page lookup by URL.
    pub fn page_by_url(&self, url: &str) -> Option<PageId> {
        self.page_by_url.get(url).copied()
    }

    /// Entity lookup by exact name.
    pub fn entity_by_name(&self, name: &str) -> Option<EntityId> {
        self.entities.iter().find(|e| e.name == name).map(|e| e.id)
    }

    /// Renders the page's HTML (deterministic per page).
    pub fn page_html(&self, id: PageId) -> String {
        render_html(self.page(id))
    }

    /// Source type of the domain hosting a page.
    pub fn page_source_type(&self, id: PageId) -> SourceType {
        self.domain(self.page(id).domain).source_type
    }

    /// Rebuilds a world around a replacement page list (same entities,
    /// domains, clock and seed) — the engine behind
    /// [`World::with_injected_pages`](crate::inject).
    pub(crate) fn rebuild_with_pages(&self, pages: Vec<Page>) -> World {
        let mut pages_by_topic = vec![Vec::new(); topic_specs().len()];
        let mut pages_by_entity = vec![Vec::new(); self.entities.len()];
        let mut page_by_url = HashMap::with_capacity(pages.len());
        for p in &pages {
            pages_by_topic[p.topic.index()].push(p.id);
            for m in &p.mentions {
                pages_by_entity[m.entity.index()].push(p.id);
            }
            page_by_url.insert(p.url.clone(), p.id);
        }
        World {
            config: self.config.clone(),
            seed: self.seed,
            now_day: self.now_day,
            entities: self.entities.clone(),
            domains: self.domains.clone(),
            pages,
            entities_by_topic: self.entities_by_topic.clone(),
            pages_by_topic,
            pages_by_entity,
            domain_by_host: self.domain_by_host.clone(),
            page_by_url,
        }
    }
}

/// Internal page-construction context for one world.
struct PageBuilder<'a> {
    config: &'a WorldConfig,
    now_day: i64,
    domains: &'a [Domain],
    domain_by_host: &'a HashMap<String, DomainId>,
    pages: Vec<Page>,
    rng: &'a mut StdRng,
}

impl<'a> PageBuilder<'a> {
    fn build_topic(&mut self, topic: TopicId, spec: &TopicSpec, topic_entities: &[&Entity]) {
        // Niche-only topics get proportionally thinner web coverage: fewer
        // lists, fewer threads, fewer reviews. This sparsity is what makes
        // niche retrieval evidence thin in the §3 experiments.
        let scale = |n: usize| ((n as f64) * spec.popularity_scale).round().max(1.0) as usize;
        let earned: Vec<DomainId> = self.eligible(topic, spec, SourceType::Earned);
        let social: Vec<DomainId> = self.eligible(topic, spec, SourceType::Social);
        let retail: Vec<DomainId> = self
            .eligible(topic, spec, SourceType::Brand)
            .into_iter()
            .filter(|d| matches!(self.domains[d.index()].coverage, Coverage::Verticals(_)))
            .collect();
        // Concentrated pool for niche entities: the topic blogs plus the two
        // lowest-authority global earned sites (§2.1: niche queries
        // concentrate sources).
        let niche_pool: Vec<DomainId> = {
            let mut topic_blogs: Vec<DomainId> = earned
                .iter()
                .copied()
                .filter(|d| matches!(self.domains[d.index()].coverage, Coverage::Topic(_)))
                .collect();
            let mut globals: Vec<DomainId> = earned
                .iter()
                .copied()
                .filter(|d| matches!(self.domains[d.index()].coverage, Coverage::Verticals(_)))
                .collect();
            globals.sort_by(|a, b| {
                self.domains[a.index()]
                    .authority
                    .total_cmp(&self.domains[b.index()].authority)
            });
            topic_blogs.extend(globals.into_iter().take(2));
            topic_blogs
        };

        // Ranking lists.
        for _ in 0..scale(self.config.ranking_lists_per_topic) {
            self.ranking_list(topic, spec, topic_entities, &earned);
        }
        // Reviews: coverage is sharply superlinear in popularity — the
        // review volume gap between a Toyota and an Infiniti is an order
        // of magnitude, not fifty percent. This gradient is what produces
        // Table 3's citation-miss slope.
        for e in topic_entities {
            let count = 1
                + (e.popularity.powi(3) * 2.0 * self.config.reviews_per_popular_entity as f64)
                    .round() as usize;
            for _ in 0..count {
                let pool = if e.is_popular() { &earned } else { &niche_pool };
                self.review(topic, spec, e, pool);
            }
        }
        // Archives: old coverage proportional to popularity — the raw
        // material of pre-training priors.
        for e in topic_entities {
            // Superlinear in popularity: household names have years of
            // archives, the long tail has essentially none.
            let count = (e.popularity * e.popularity * self.config.archive_pages_per_entity as f64)
                .round() as usize;
            for i in 0..count {
                let pool = if e.is_popular() { &earned } else { &niche_pool };
                self.archive_page(topic, spec, e, pool, i);
            }
        }
        // News.
        for _ in 0..scale(self.config.news_per_topic) {
            self.news(topic, spec, topic_entities, &earned);
        }
        // Comparisons.
        for _ in 0..scale(self.config.comparisons_per_topic) {
            self.comparison(topic, spec, topic_entities, &earned);
        }
        // Guides.
        for _ in 0..scale(self.config.guides_per_topic) {
            self.guide(topic, spec, &earned);
        }
        // Forum threads.
        for _ in 0..scale(self.config.forum_threads_per_topic) {
            self.forum_thread(topic, spec, topic_entities, &social);
        }
        // Videos.
        for _ in 0..scale(self.config.videos_per_topic) {
            self.video(topic, spec, topic_entities);
        }
        // Brand product pages and press items.
        for e in topic_entities {
            self.brand_pages(topic, spec, e);
        }
        // Retail product pages for popular entities.
        for e in topic_entities {
            if e.popularity > 0.55 && !retail.is_empty() {
                let domain = self.weighted_domain(&retail);
                self.retail_page(topic, spec, e, domain);
            }
        }
    }

    /// Domains of `st` eligible to publish about `topic`.
    fn eligible(&self, topic: TopicId, spec: &TopicSpec, st: SourceType) -> Vec<DomainId> {
        self.domains
            .iter()
            .filter(|d| d.source_type == st && d.covers(topic, spec.vertical))
            .map(|d| d.id)
            .collect()
    }

    /// Samples a domain id weighted by authority².
    fn weighted_domain(&mut self, pool: &[DomainId]) -> DomainId {
        debug_assert!(!pool.is_empty());
        let weights: Vec<f64> = pool
            .iter()
            .map(|d| self.domains[d.index()].authority.powi(2))
            .collect();
        let total: f64 = weights.iter().sum();
        let mut x = self.rng.gen_range(0.0..total.max(f64::MIN_POSITIVE));
        for (i, w) in weights.iter().enumerate() {
            x -= w;
            if x <= 0.0 {
                return pool[i];
            }
        }
        pool[pool.len() - 1]
    }

    /// Samples a page age for a kind on a domain and converts to a
    /// publication day.
    fn published_day(&mut self, kind: PageKind, domain: DomainId, spec: &TopicSpec) -> i64 {
        let d = &self.domains[domain.index()];
        let mean = kind.base_age_mean() * spec.vertical.age_scale() * d.age_scale;
        let u: f64 = self.rng.gen_range(0.0..1.0);
        let age = (spec.vertical.age_floor() - mean * (1.0 - u).ln())
            .min(self.config.max_age_days as f64)
            .max(1.0);
        self.now_day - age as i64
    }

    /// Samples date-markup style by source type.
    fn date_markup(&mut self, st: SourceType) -> DateMarkup {
        let roll: f64 = self.rng.gen_range(0.0..1.0);
        let table: [(DateMarkup, f64); 5] = match st {
            SourceType::Earned => [
                (DateMarkup::MetaTag, 0.50),
                (DateMarkup::JsonLd, 0.25),
                (DateMarkup::TimeTag, 0.15),
                (DateMarkup::BodyText, 0.08),
                (DateMarkup::None, 0.02),
            ],
            SourceType::Brand => [
                (DateMarkup::MetaTag, 0.25),
                (DateMarkup::JsonLd, 0.30),
                (DateMarkup::TimeTag, 0.10),
                (DateMarkup::BodyText, 0.10),
                (DateMarkup::None, 0.25),
            ],
            SourceType::Social => [
                (DateMarkup::MetaTag, 0.10),
                (DateMarkup::JsonLd, 0.05),
                (DateMarkup::TimeTag, 0.35),
                (DateMarkup::BodyText, 0.30),
                (DateMarkup::None, 0.20),
            ],
        };
        let mut acc = 0.0;
        for (markup, p) in table {
            acc += p;
            if roll < acc {
                return markup;
            }
        }
        DateMarkup::None
    }

    /// Noisy observation of an entity's quality.
    fn observe(&mut self, quality: f64, noise: f64) -> f64 {
        (quality + self.rng.gen_range(-noise..noise)).clamp(0.02, 0.98)
    }

    #[allow(clippy::too_many_arguments)] // internal builder: the page's own fields
    fn push_page(
        &mut self,
        topic: TopicId,
        domain: DomainId,
        kind: PageKind,
        title: String,
        body: String,
        mentions: Vec<Mention>,
        spec: &TopicSpec,
    ) {
        let id = PageId::from(self.pages.len());
        let published_day = self.published_day(kind, domain, spec);
        let st = self.domains[domain.index()].source_type;
        let date_markup = self.date_markup(st);
        let host = &self.domains[domain.index()].host;
        let url = format!(
            "https://{host}/{}/{}-{}",
            kind.label(),
            slugify(&title),
            id.0
        );
        self.pages.push(Page {
            id,
            domain,
            url,
            title,
            body,
            kind,
            topic,
            mentions,
            published_day,
            date_markup,
        });
    }

    fn ranking_list(
        &mut self,
        topic: TopicId,
        spec: &TopicSpec,
        topic_entities: &[&Entity],
        earned: &[DomainId],
    ) {
        if earned.is_empty() || topic_entities.is_empty() {
            return;
        }
        let domain = self.weighted_domain(earned);
        // Order by noisy quality with a popularity bump (editors cover what
        // readers know).
        let mut scored: Vec<(&Entity, f64)> = topic_entities
            .iter()
            .map(|e| {
                let s = e.quality + 0.65 * e.popularity + self.rng.gen_range(-0.25..0.25);
                (*e, s)
            })
            .collect();
        scored.sort_by(|a, b| b.1.total_cmp(&a.1));
        let take = scored.len().min(10);
        let picked = &scored[..take];

        let year = self.now_day / 365 + 1970;
        let title = format!("The {} best {} of {}", take, spec.plural, year);
        let ranked: Vec<(&str, f64)> = picked
            .iter()
            .map(|(e, _)| {
                let s = self.rng.gen_range(-0.06..0.06);
                (e.name.as_str(), (e.quality + s).clamp(0.02, 0.98))
            })
            .collect();
        let body = text_gen::ranking_body(spec.display, &ranked, spec.vocab, self.rng);
        let mentions = picked
            .iter()
            .zip(&ranked)
            .enumerate()
            .map(|(i, ((e, _), (_, s)))| Mention {
                entity: e.id,
                score: *s,
                prominence: 1.0 - i as f64 / (take.max(2) as f64),
            })
            .collect();
        self.push_page(
            topic,
            domain,
            PageKind::RankingList,
            title,
            body,
            mentions,
            spec,
        );
    }

    fn review(&mut self, topic: TopicId, spec: &TopicSpec, e: &Entity, pool: &[DomainId]) {
        if pool.is_empty() {
            return;
        }
        let domain = self.weighted_domain(pool);
        let score = self.observe(e.quality, 0.08);
        let title = format!("{} review: our verdict", e.name);
        let body = text_gen::review_body(&e.name, spec.display, spec.vocab, score, self.rng);
        let mentions = vec![Mention {
            entity: e.id,
            score,
            prominence: 1.0,
        }];
        self.push_page(topic, domain, PageKind::Review, title, body, mentions, spec);
    }

    /// An old review/guide page for an entity, published well before the
    /// pre-training cutoff window.
    fn archive_page(
        &mut self,
        topic: TopicId,
        spec: &TopicSpec,
        e: &Entity,
        pool: &[DomainId],
        series: usize,
    ) {
        if pool.is_empty() {
            return;
        }
        let domain = self.weighted_domain(pool);
        let score = self.observe(e.quality, 0.10);
        let kind = if series.is_multiple_of(2) {
            PageKind::Review
        } else {
            PageKind::Guide
        };
        let title = format!("{} long-term report, part {}", e.name, series + 1);
        let body = text_gen::review_body(&e.name, spec.display, spec.vocab, score, self.rng);
        let mentions = vec![Mention {
            entity: e.id,
            score,
            prominence: 1.0,
        }];
        // Age: uniformly old — 260 days up to the cap.
        let id = PageId::from(self.pages.len());
        let lo = 260.0;
        let hi = self.config.max_age_days as f64;
        let age = lo + self.rng.gen_range(0.0..1.0) * (hi - lo).max(1.0);
        let published_day = self.now_day - age as i64;
        let st = self.domains[domain.index()].source_type;
        let date_markup = self.date_markup(st);
        let host = &self.domains[domain.index()].host;
        let url = format!(
            "https://{host}/{}/{}-{}",
            kind.label(),
            slugify(&title),
            id.0
        );
        self.pages.push(Page {
            id,
            domain,
            url,
            title,
            body,
            kind,
            topic,
            mentions,
            published_day,
            date_markup,
        });
    }

    fn news(
        &mut self,
        topic: TopicId,
        spec: &TopicSpec,
        topic_entities: &[&Entity],
        earned: &[DomainId],
    ) {
        if earned.is_empty() || topic_entities.is_empty() {
            return;
        }
        let domain = self.weighted_domain(earned);
        // News gravitates to popular entities.
        let e = self.popularity_weighted(topic_entities);
        let score = self.observe(e.quality, 0.15);
        let title = format!("{} updates its {} lineup", e.brand, spec.display);
        let body = text_gen::news_body(&e.name, spec.display, spec.vocab, self.rng);
        let mentions = vec![Mention {
            entity: e.id,
            score,
            prominence: 1.0,
        }];
        self.push_page(topic, domain, PageKind::News, title, body, mentions, spec);
    }

    fn comparison(
        &mut self,
        topic: TopicId,
        spec: &TopicSpec,
        topic_entities: &[&Entity],
        earned: &[DomainId],
    ) {
        if earned.is_empty() || topic_entities.len() < 2 {
            return;
        }
        let domain = self.weighted_domain(earned);
        let a = self.popularity_weighted(topic_entities);
        let mut b = self.popularity_weighted(topic_entities);
        let mut guard = 0;
        while b.id == a.id && guard < 16 {
            b = self.popularity_weighted(topic_entities);
            guard += 1;
        }
        if b.id == a.id {
            return;
        }
        let sa = self.observe(a.quality, 0.08);
        let sb = self.observe(b.quality, 0.08);
        let title = format!("{} vs {}: which should you buy?", a.name, b.name);
        let body = text_gen::comparison_body(
            (a.name.as_str(), sa),
            (b.name.as_str(), sb),
            spec.display,
            spec.vocab,
            self.rng,
        );
        let mentions = vec![
            Mention {
                entity: a.id,
                score: sa,
                prominence: 1.0,
            },
            Mention {
                entity: b.id,
                score: sb,
                prominence: 0.9,
            },
        ];
        self.push_page(
            topic,
            domain,
            PageKind::Comparison,
            title,
            body,
            mentions,
            spec,
        );
    }

    fn guide(&mut self, topic: TopicId, spec: &TopicSpec, earned: &[DomainId]) {
        if earned.is_empty() {
            return;
        }
        let domain = self.weighted_domain(earned);
        let vocab_word = spec.vocab[self.rng.gen_range(0..spec.vocab.len())];
        let title = format!("How {} {} works: a buyer's guide", spec.unit, vocab_word);
        let body = text_gen::guide_body(spec.display, spec.vocab, self.rng);
        self.push_page(
            topic,
            domain,
            PageKind::Guide,
            title,
            body,
            Vec::new(),
            spec,
        );
    }

    fn forum_thread(
        &mut self,
        topic: TopicId,
        spec: &TopicSpec,
        topic_entities: &[&Entity],
        social: &[DomainId],
    ) {
        if social.is_empty() || topic_entities.is_empty() {
            return;
        }
        let domain = self.weighted_domain(social);
        let count = self.rng.gen_range(2..=4.min(topic_entities.len()));
        let mut picked: Vec<&Entity> = Vec::new();
        let mut guard = 0;
        while picked.len() < count && guard < 40 {
            let e = self.popularity_weighted(topic_entities);
            if !picked.iter().any(|p| p.id == e.id) {
                picked.push(e);
            }
            guard += 1;
        }
        let observed: Vec<(String, f64)> = picked
            .iter()
            .map(|e| {
                let q = e.quality;
                (e.name.clone(), self.observe(q, 0.25))
            })
            .collect();
        let refs: Vec<(&str, f64)> = observed.iter().map(|(n, s)| (n.as_str(), *s)).collect();
        let title = format!(
            "Best {} recommendations? Which should I buy ({})",
            spec.unit, spec.display
        );
        let body = text_gen::forum_body(&refs, spec.display, spec.vocab, self.rng);
        let mentions = picked
            .iter()
            .zip(&observed)
            .map(|(e, (_, s))| Mention {
                entity: e.id,
                score: *s,
                prominence: 0.7,
            })
            .collect();
        self.push_page(
            topic,
            domain,
            PageKind::ForumThread,
            title,
            body,
            mentions,
            spec,
        );
    }

    fn video(&mut self, topic: TopicId, spec: &TopicSpec, topic_entities: &[&Entity]) {
        if topic_entities.is_empty() {
            return;
        }
        let Some(&youtube) = self.domain_by_host.get("youtube.com") else {
            return;
        };
        let e = self.popularity_weighted(topic_entities);
        let score = self.observe(e.quality, 0.18);
        let title = format!("{} long-term review (watch this before buying)", e.name);
        let body = text_gen::video_body(&e.name, spec.display, spec.vocab, self.rng);
        let mentions = vec![Mention {
            entity: e.id,
            score,
            prominence: 1.0,
        }];
        self.push_page(topic, youtube, PageKind::Video, title, body, mentions, spec);
    }

    fn brand_pages(&mut self, topic: TopicId, spec: &TopicSpec, e: &Entity) {
        let Some(&brand) = self.domain_by_host.get(&e.brand_domain) else {
            return;
        };
        let score = (e.quality + 0.15).clamp(0.02, 0.98); // self-promotion
        let title = format!("Buy {} — official site", e.name);
        let body = text_gen::product_body(&e.name, spec.display, spec.vocab, self.rng);
        let mentions = vec![Mention {
            entity: e.id,
            score,
            prominence: 1.0,
        }];
        self.push_page(
            topic,
            brand,
            PageKind::ProductPage,
            title,
            body,
            mentions,
            spec,
        );

        if e.popularity > 0.7 {
            let score = self.observe(e.quality, 0.1);
            let title = format!("{} newsroom: announcing the latest {}", e.brand, spec.unit);
            let body = text_gen::news_body(&e.name, spec.display, spec.vocab, self.rng);
            let mentions = vec![Mention {
                entity: e.id,
                score,
                prominence: 1.0,
            }];
            self.push_page(topic, brand, PageKind::News, title, body, mentions, spec);
        }
    }

    fn retail_page(&mut self, topic: TopicId, spec: &TopicSpec, e: &Entity, domain: DomainId) {
        let score = (e.quality + 0.10).clamp(0.02, 0.98);
        let title = format!("Buy {} — deals and availability", e.name);
        let body = text_gen::product_body(&e.name, spec.display, spec.vocab, self.rng);
        let mentions = vec![Mention {
            entity: e.id,
            score,
            prominence: 1.0,
        }];
        self.push_page(
            topic,
            domain,
            PageKind::ProductPage,
            title,
            body,
            mentions,
            spec,
        );
    }

    /// Samples an entity weighted by popularity (plus a floor so niche
    /// entities still surface occasionally).
    fn popularity_weighted<'e>(&mut self, pool: &[&'e Entity]) -> &'e Entity {
        debug_assert!(!pool.is_empty());
        let total: f64 = pool.iter().map(|e| e.popularity + 0.05).sum();
        let mut x = self.rng.gen_range(0.0..total);
        for e in pool {
            x -= e.popularity + 0.05;
            if x <= 0.0 {
                return e;
            }
        }
        pool[pool.len() - 1]
    }
}

/// Lowercase-alphanumeric-dash slug for URLs.
pub(crate) fn slugify(title: &str) -> String {
    let mut out = String::with_capacity(title.len());
    let mut last_dash = true;
    for c in title.chars() {
        if c.is_ascii_alphanumeric() {
            out.push(c.to_ascii_lowercase());
            last_dash = false;
        } else if !last_dash {
            out.push('-');
            last_dash = true;
        }
        if out.len() >= 48 {
            break;
        }
    }
    let trimmed = out.trim_end_matches('-');
    if trimmed.is_empty() {
        "page".to_string()
    } else {
        trimmed.to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn world() -> World {
        World::generate(&WorldConfig::small(), 1234)
    }

    #[test]
    fn generation_is_deterministic() {
        let a = World::generate(&WorldConfig::small(), 42);
        let b = World::generate(&WorldConfig::small(), 42);
        assert_eq!(a.pages().len(), b.pages().len());
        for (x, y) in a.pages().iter().zip(b.pages()) {
            assert_eq!(x.url, y.url);
            assert_eq!(x.published_day, y.published_day);
        }
    }

    #[test]
    fn different_seeds_differ() {
        let a = World::generate(&WorldConfig::small(), 1);
        let b = World::generate(&WorldConfig::small(), 2);
        let same = a
            .pages()
            .iter()
            .zip(b.pages())
            .filter(|(x, y)| x.published_day == y.published_day)
            .count();
        assert!(same < a.pages().len(), "seeds must matter");
    }

    #[test]
    fn world_has_expected_shape() {
        let w = world();
        assert!(w.entities().len() > 150, "{} entities", w.entities().len());
        assert!(w.domains().len() > 150, "{} domains", w.domains().len());
        assert!(w.pages().len() > 500, "{} pages", w.pages().len());
    }

    #[test]
    fn urls_are_unique_and_parse() {
        let w = world();
        assert_eq!(w.page_by_url.len(), w.pages().len(), "URL collision");
        for p in w.pages().iter().take(200) {
            let u = shift_urlkit::Url::parse(&p.url).expect("page URL parses");
            assert_eq!(
                shift_urlkit::registrable_domain(u.host()).as_deref(),
                shift_urlkit::registrable_domain(&w.domain(p.domain).host).as_deref()
            );
        }
    }

    #[test]
    fn every_topic_has_pages_and_every_page_valid_refs() {
        let w = world();
        for (ti, _) in topic_specs().iter().enumerate() {
            assert!(
                !w.pages_of_topic(TopicId::from(ti)).is_empty(),
                "topic {ti} has no pages"
            );
        }
        for p in w.pages() {
            assert!(p.domain.index() < w.domains().len());
            for m in &p.mentions {
                assert!(m.entity.index() < w.entities().len());
                assert!((0.0..=1.0).contains(&m.score));
            }
            assert!(p.published_day < w.now_day());
            assert!(w.now_day() - p.published_day <= w.config().max_age_days + 1);
        }
    }

    #[test]
    fn popular_entities_have_more_coverage() {
        let w = world();
        let mut popular_cov = Vec::new();
        let mut niche_cov = Vec::new();
        for e in w.entities() {
            let cov = w.pages_mentioning(e.id).len() as f64;
            if e.is_popular() {
                popular_cov.push(cov);
            } else {
                niche_cov.push(cov);
            }
        }
        let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
        assert!(
            mean(&popular_cov) > 1.5 * mean(&niche_cov),
            "popular {:.1} vs niche {:.1}",
            mean(&popular_cov),
            mean(&niche_cov)
        );
    }

    #[test]
    fn brand_pages_live_on_brand_domains() {
        let w = world();
        let toyota_pages: Vec<&Page> = w
            .pages()
            .iter()
            .filter(|p| w.domain(p.domain).host == "toyota.com")
            .collect();
        assert!(!toyota_pages.is_empty());
        for p in toyota_pages {
            assert_eq!(w.page_source_type(p.id), SourceType::Brand);
        }
    }

    #[test]
    fn earned_pages_are_fresher_than_brand_pages() {
        let w = world();
        let mean_age = |st: SourceType| {
            let ages: Vec<f64> = w
                .pages()
                .iter()
                .filter(|p| w.page_source_type(p.id) == st)
                .map(|p| p.age_days(w.now_day()) as f64)
                .collect();
            ages.iter().sum::<f64>() / ages.len() as f64
        };
        assert!(
            mean_age(SourceType::Earned) < mean_age(SourceType::Brand),
            "earned {} vs brand {}",
            mean_age(SourceType::Earned),
            mean_age(SourceType::Brand)
        );
    }

    #[test]
    fn rendered_html_extracts_dates_for_marked_pages() {
        let w = world();
        let mut extracted = 0;
        let mut marked = 0;
        for p in w.pages().iter().take(300) {
            let html = w.page_html(p.id);
            let got = shift_freshness::extract_page_date(&html);
            if p.date_markup == DateMarkup::None {
                assert!(got.is_none(), "unmarked page {} yielded a date", p.url);
            } else {
                marked += 1;
                if let Some(e) = got {
                    extracted += 1;
                    assert_eq!(
                        e.published.to_day_number(),
                        p.published_day,
                        "wrong date for {}",
                        p.url
                    );
                }
            }
        }
        assert_eq!(extracted, marked, "every marked page must extract");
    }

    #[test]
    fn scaled_config_multiplies_volume_knobs() {
        let base = WorldConfig::paper();
        let x10 = WorldConfig::scaled(10);
        assert_eq!(
            x10.ranking_lists_per_topic,
            base.ranking_lists_per_topic * 10
        );
        assert_eq!(
            x10.forum_threads_per_topic,
            base.forum_threads_per_topic * 10
        );
        assert_eq!(
            x10.archive_pages_per_entity,
            base.archive_pages_per_entity * 10
        );
        assert_eq!(x10.now, base.now);
        assert_eq!(x10.max_age_days, base.max_age_days);
        // scaled(1) is exactly the paper scale — same world, same docs.
        let x1 = WorldConfig::scaled(1);
        let a = World::generate(&x1, 7);
        let b = World::generate(&base, 7);
        assert_eq!(a.pages().len(), b.pages().len());
    }

    #[test]
    fn slugify_behaves() {
        assert_eq!(
            slugify("The 10 best SUVs of 2025!"),
            "the-10-best-suvs-of-2025"
        );
        assert_eq!(slugify("***"), "page");
        assert!(slugify(&"x".repeat(100)).len() <= 48);
    }

    #[test]
    fn lookups_are_consistent() {
        let w = world();
        let p = &w.pages()[10];
        assert_eq!(w.page_by_url(&p.url), Some(p.id));
        assert_eq!(w.domain_by_host(&w.domain(p.domain).host), Some(p.domain));
        let e = &w.entities()[3];
        assert_eq!(w.entity_by_name(&e.name), Some(e.id));
        assert!(w.pages_of_topic(p.topic).contains(&p.id));
    }

    #[test]
    fn mentions_index_is_inverse_of_pages() {
        let w = world();
        for e in w.entities().iter().take(30) {
            for pid in w.pages_mentioning(e.id) {
                assert!(w.page(*pid).mentions_entity(e.id));
            }
        }
    }
}
