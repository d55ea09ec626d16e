//! Answer artifacts: citations and the combined engine response.

use std::sync::Arc;

use shift_corpus::{PageId, SourceType};
use shift_llm::Snippet;
use shift_urlkit::registrable_domain;

use crate::persona::EngineKind;

/// One cited source.
#[derive(Debug, Clone, PartialEq)]
pub struct Citation {
    /// Full URL as cited.
    pub url: String,
    /// Registrable domain of the citation.
    pub domain: String,
    /// The cited corpus page.
    pub page: PageId,
    /// Ground-truth typology of the hosting domain.
    pub source_type: SourceType,
    /// Age of the cited page in days.
    pub age_days: f64,
}

impl Citation {
    /// Builds a citation, deriving the registrable domain from the URL.
    /// Returns `None` when the URL has no registrable domain.
    pub fn from_url(
        url: &str,
        page: PageId,
        source_type: SourceType,
        age_days: f64,
    ) -> Option<Citation> {
        let parsed = shift_urlkit::Url::parse(url).ok()?;
        let domain = registrable_domain(parsed.host())?;
        Some(Citation {
            url: url.to_string(),
            domain,
            page,
            source_type,
            age_days,
        })
    }
}

/// A complete response from one engine.
///
/// An answer is an immutable shared value: every field past `engine` is
/// reference-counted, so a clone (an answer-cache hit, a memo hit) costs
/// a few refcount bumps and allocates nothing. `Debug` prints exactly
/// what owned `String`/`Vec` fields would. Code that perturbs the
/// evidence takes its own copy with `snippets.to_vec()`.
#[derive(Debug, Clone)]
pub struct EngineAnswer {
    /// Which engine produced the answer.
    pub engine: EngineKind,
    /// The query as issued.
    pub query: Arc<str>,
    /// Cited sources, most prominent first. May be empty (Claude on
    /// informational/transactional queries).
    pub citations: Arc<[Citation]>,
    /// The evidence snippets the engine consumed (presentation order —
    /// this is what the §3 perturbation experiments shuffle).
    pub snippets: Arc<[Snippet]>,
    /// Brief synthesized answer text.
    pub text: Arc<str>,
}

impl EngineAnswer {
    /// Distinct cited registrable domains, in citation order.
    pub fn domains(&self) -> Vec<String> {
        let mut seen = std::collections::BTreeSet::new();
        let mut out = Vec::new();
        for c in self.citations.iter() {
            if seen.insert(c.domain.clone()) {
                out.push(c.domain.clone());
            }
        }
        out
    }

    /// Fraction of citations of each source type `[brand, earned, social]`.
    pub fn source_type_mix(&self) -> [f64; 3] {
        let mut counts = [0usize; 3];
        for c in self.citations.iter() {
            counts[c.source_type.index()] += 1;
        }
        let total = self.citations.len().max(1) as f64;
        [
            counts[0] as f64 / total,
            counts[1] as f64 / total,
            counts[2] as f64 / total,
        ]
    }

    /// Ages (days) of all cited pages.
    pub fn citation_ages(&self) -> Vec<f64> {
        self.citations.iter().map(|c| c.age_days).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn citation(url: &str, st: SourceType, age: f64) -> Citation {
        Citation::from_url(url, PageId(0), st, age).unwrap()
    }

    #[test]
    fn from_url_derives_domain() {
        let c = citation("https://www.rtings.com/tv/reviews", SourceType::Earned, 5.0);
        assert_eq!(c.domain, "rtings.com");
    }

    #[test]
    fn from_url_rejects_undomained() {
        assert!(
            Citation::from_url("https://192.168.0.1/x", PageId(0), SourceType::Brand, 0.0)
                .is_none()
        );
        assert!(Citation::from_url("garbage", PageId(0), SourceType::Brand, 0.0).is_none());
    }

    #[test]
    fn domains_dedupe_preserving_order() {
        let answer = EngineAnswer {
            engine: EngineKind::Gpt4o,
            query: "".into(),
            citations: Arc::new([
                citation("https://b.com/1", SourceType::Earned, 1.0),
                citation("https://a.com/1", SourceType::Earned, 1.0),
                citation("https://b.com/2", SourceType::Earned, 1.0),
            ]),
            snippets: Arc::new([]),
            text: "".into(),
        };
        assert_eq!(answer.domains(), vec!["b.com", "a.com"]);
    }

    #[test]
    fn source_type_mix_fractions() {
        let answer = EngineAnswer {
            engine: EngineKind::Claude,
            query: "".into(),
            citations: Arc::new([
                citation("https://a.com/1", SourceType::Earned, 1.0),
                citation("https://b.com/1", SourceType::Earned, 1.0),
                citation("https://c.com/1", SourceType::Brand, 1.0),
                citation("https://d.com/1", SourceType::Social, 1.0),
            ]),
            snippets: Arc::new([]),
            text: "".into(),
        };
        let mix = answer.source_type_mix();
        assert!((mix[0] - 0.25).abs() < 1e-12);
        assert!((mix[1] - 0.5).abs() < 1e-12);
        assert!((mix[2] - 0.25).abs() < 1e-12);
    }

    #[test]
    fn empty_answer_mix_is_zero() {
        let answer = EngineAnswer {
            engine: EngineKind::Claude,
            query: "".into(),
            citations: Arc::new([]),
            snippets: Arc::new([]),
            text: "".into(),
        };
        assert_eq!(answer.source_type_mix(), [0.0, 0.0, 0.0]);
        assert!(answer.citation_ages().is_empty());
    }
}
