//! Allocation regression test for the answer-cache hit path.
//!
//! A cached answer is an immutable shared value: a hit shares it instead
//! of copying it, and answers from the caller's thread without a reply
//! channel. Its cache key's text is built in one string, and its latency
//! lands in a fixed-size histogram. So a hit allocates exactly once, the
//! key, whatever the answer holds and however many tokens the query has. A counting global allocator counts the
//! allocations made on the calling thread, which is where a hit runs
//! (and where the warm-up misses of the blocking `answer` run too).

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::{Arc, OnceLock};

use shift_corpus::{World, WorldConfig};
use shift_engines::{AnswerEngines, EngineKind};
use shift_serve::{AnswerService, Request, ServeConfig, ServedAnswer};

/// Counts this thread's allocations and requested bytes, then defers to
/// the system allocator.
struct Counting;

thread_local! {
    static COUNT: Cell<(u64, u64)> = const { Cell::new((0, 0)) };
}

fn note(bytes: usize) {
    // `try_with`: allocations during thread teardown go uncounted.
    let _ = COUNT.try_with(|c| {
        let (n, b) = c.get();
        c.set((n + 1, b + bytes as u64));
    });
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract. The counting beside it never
// allocates: the thread-local is `const`-initialised and has no
// destructor, so reaching it cannot re-enter the allocator.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// Runs `f` and returns its result with the allocations it made on this
/// thread.
fn counted<R>(f: impl FnOnce() -> R) -> (R, u64) {
    let (before, _) = COUNT.with(Cell::get);
    let out = f();
    let (after, _) = COUNT.with(Cell::get);
    (out, after - before)
}

const QUERY: &str = "Top 10 most reliable SUVs";

fn service() -> &'static AnswerService {
    static SERVICE: OnceLock<AnswerService> = OnceLock::new();
    SERVICE.get_or_init(|| {
        let world = World::generate(&WorldConfig::default_scale(), 20251101);
        let engines = Arc::new(AnswerEngines::build(Arc::new(world)));
        AnswerService::start(engines, ServeConfig::with_workers(2))
    })
}

/// One served hit of `engine` on `query`, after a miss and a first hit
/// have warmed the cache entry.
fn warm_hit(engine: EngineKind, query: &str) -> (ServedAnswer, u64) {
    let service = service();
    let request = Request::new(engine, query, 10, 7);
    for _ in 0..2 {
        service.answer(request.clone()).expect("warm-up answer");
    }
    let (served, allocations) = counted(|| service.answer(request));
    let served = served.expect("hit");
    assert!(
        served.from_cache,
        "{engine:?} must be served from the cache"
    );
    (served, allocations)
}

#[test]
fn a_hit_allocates_the_same_whatever_the_answer_holds() {
    let (gpt, gpt_allocs) = warm_hit(EngineKind::Gpt4o, QUERY);
    let (google, google_allocs) = warm_hit(EngineKind::Google, QUERY);
    assert_eq!(gpt.answer.snippets.len(), 60);
    assert_eq!(google.answer.snippets.len(), 10);
    assert_eq!(
        gpt_allocs, google_allocs,
        "a hit must not copy the answer: a 60-snippet hit made {gpt_allocs} allocations, \
         a 10-snippet hit {google_allocs}"
    );
    // The key's one string.
    assert_eq!(gpt_allocs, 1, "a hit made {gpt_allocs} allocations");
}

#[test]
fn a_hit_allocates_the_same_whatever_the_query_length() {
    let short = "SUVs";
    let long = "Top 10 most reliable and affordable family SUVs for long road trips";
    assert_eq!(shift_textkit::tokenize(short).len(), 1);
    assert_eq!(shift_textkit::tokenize(long).len(), 12);
    let (_, short_allocs) = warm_hit(EngineKind::Claude, short);
    let (_, long_allocs) = warm_hit(EngineKind::Gemini, long);
    assert_eq!(
        short_allocs, long_allocs,
        "a 1-token hit made {short_allocs} allocations, a 12-token hit {long_allocs}"
    );
    assert_eq!(short_allocs, 1, "a hit made {short_allocs} allocations");
}

#[test]
fn hits_share_the_cached_answer_and_match_a_direct_answer() {
    let (first, _) = warm_hit(EngineKind::Perplexity, QUERY);
    let (second, _) = warm_hit(EngineKind::Perplexity, QUERY);
    assert!(Arc::ptr_eq(&first.answer.snippets, &second.answer.snippets));
    assert!(Arc::ptr_eq(
        &first.answer.citations,
        &second.answer.citations
    ));
    let direct = service()
        .engines()
        .answer(EngineKind::Perplexity, QUERY, 10, 7);
    assert_eq!(format!("{:?}", second.answer), format!("{direct:?}"));
}
