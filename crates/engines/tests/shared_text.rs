//! Result text is one shared value from the index to the answer, checked
//! at paper scale: every result's url, host and title are the index's own
//! strings, and every snippet and citation an answer carries shares its
//! result's strings instead of copying them. A counting allocator then
//! pins what a cold answer costs per result.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::HashMap;
use std::sync::{Arc, OnceLock};

use shift_corpus::{PageId, World, WorldConfig};
use shift_engines::{AnswerEngines, EngineKind, QueryScratch};
use shift_queries::ranking_queries;
use shift_search::index::DocMeta;
use shift_search::{Serp, SerpResult};

/// Counts this thread's allocations, then defers to the system
/// allocator.
struct Counting;

thread_local! {
    static COUNT: Cell<u64> = const { Cell::new(0) };
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract. The counting beside it never
// allocates: the thread-local is `const`-initialised and has no
// destructor, so reaching it cannot re-enter the allocator.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = COUNT.try_with(|c| c.set(c.get() + 1));
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let _ = COUNT.try_with(|c| c.set(c.get() + 1));
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let _ = COUNT.try_with(|c| c.set(c.get() + 1));
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

fn stack() -> &'static AnswerEngines {
    static STACK: OnceLock<AnswerEngines> = OnceLock::new();
    STACK.get_or_init(|| {
        let world = World::generate(&WorldConfig::default_scale(), 20251101);
        AnswerEngines::build(Arc::new(world))
    })
}

fn queries() -> Vec<String> {
    ranking_queries(stack().world(), 12, 5)
        .into_iter()
        .map(|q| q.text)
        .collect()
}

/// The index's metadata for every page.
fn metas() -> HashMap<PageId, &'static DocMeta> {
    stack().index().docs().iter().map(|m| (m.page, m)).collect()
}

fn assert_results_share_the_index(serp: &Serp, metas: &HashMap<PageId, &DocMeta>) {
    for r in &serp.results {
        let meta = metas[&r.page];
        assert!(Arc::ptr_eq(&r.url, &meta.url), "url of {}", r.url);
        assert!(Arc::ptr_eq(&r.host, &meta.host), "host of {}", r.url);
        assert!(Arc::ptr_eq(&r.title, &meta.title), "title of {}", r.url);
    }
}

#[test]
fn answers_share_result_text_from_the_index() {
    let stack = stack();
    let metas = metas();
    let mut scratch = QueryScratch::new();
    for query in queries() {
        for kind in EngineKind::ALL {
            let answer = stack.answer_with(&mut scratch, kind, &query, 10, 3);
            // Google's SERP through its public entry point, which shares
            // the cached entry the answer read; the personas' pools
            // through the same cache.
            let serp = match kind {
                EngineKind::Google => Arc::new(stack.google_serp(&query, 10)),
                _ => stack.retrieval_with(&mut scratch, kind, &query, 10),
            };
            assert_results_share_the_index(&serp, &metas);
            assert_eq!(answer.snippets.len(), serp.results.len());
            for (snippet, r) in answer.snippets.iter().zip(&serp.results) {
                assert!(
                    Arc::ptr_eq(&snippet.url, &r.url),
                    "{kind:?} snippet url {}",
                    r.url
                );
                assert!(
                    Arc::ptr_eq(&snippet.text, &r.snippet),
                    "{kind:?} snippet text of {}",
                    r.url
                );
            }
            let by_page: HashMap<PageId, &SerpResult> =
                serp.results.iter().map(|r| (r.page, r)).collect();
            for c in answer.citations.iter() {
                assert!(
                    Arc::ptr_eq(&c.url, &by_page[&c.page].url),
                    "{kind:?} citation url {}",
                    c.url
                );
            }
        }
    }
}

#[test]
fn a_cold_answer_allocates_a_few_times_per_result() {
    let stack = stack();
    // Warm this thread's retrieval scratch with one cold answer, then
    // count another: nothing else in this binary asks either query.
    drop(stack.answer(
        EngineKind::Gpt4o,
        "most reliable cars for a warm test",
        10,
        1,
    ));
    let before = COUNT.with(Cell::get);
    let answer = stack.answer(
        EngineKind::Gpt4o,
        "most reliable cars for a cold test",
        10,
        1,
    );
    let allocations = COUNT.with(Cell::get) - before;
    let results = answer.snippets.len() as u64;
    assert_eq!(results, 60, "GPT-4o reads a 60-deep pool");
    // Copying each result's strings (its url, host and title out of the
    // index, url and snippet into its evidence snippet, url and domain
    // into its citation) costs about 7 allocations per result.
    let bound = 3 * results + 60;
    assert!(
        allocations <= bound,
        "a cold {results}-result answer made {allocations} allocations (at most {bound} allowed)"
    );
}
