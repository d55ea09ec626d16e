//! One walk over an answer's evidence: every entity's position-weighted
//! sums, gathered snippet by snippet in presentation order.
//!
//! Scoring an entity reads three running sums over the snippets that
//! mention it. Gathering them for every entity in one pass, in a
//! per-thread table indexed by [`EntityId`], replaces one scan of the
//! whole evidence per entity; each entity still sees its additions in
//! presentation order, so every sum keeps its bits.

use std::cell::RefCell;

use shift_corpus::EntityId;

use crate::generate::Snippet;

/// One entity's evidence sums: the total attention weight of the
/// snippets that mention it, the weighted sum of their scores, and the
/// weight of the first of them (0 while none has).
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct Sums {
    pub weight_sum: f64,
    pub score_sum: f64,
    pub first_weight: f64,
}

/// An entity's table slot: valid for the walk whose stamp it carries,
/// last added to by snippet `snippet`.
#[derive(Clone, Copy, Default)]
struct Slot {
    stamp: u32,
    snippet: u32,
    sums: Sums,
}

/// The per-entity sums of the last evidence walked, with the entities
/// it spoke about in order of first appearance.
#[derive(Default)]
pub(crate) struct EvidenceWalk {
    slots: Vec<Slot>,
    // Stamp of the current walk; never 0, which marks a slot no walk
    // has written.
    stamp: u32,
    entities: Vec<EntityId>,
}

thread_local! {
    static WALK: RefCell<EvidenceWalk> = RefCell::new(EvidenceWalk::default());
}

impl EvidenceWalk {
    /// Runs `f` on this thread's walk, or on a fresh one when the
    /// thread's is already in use further up the stack.
    pub(crate) fn with<R>(f: impl FnOnce(&mut EvidenceWalk) -> R) -> R {
        WALK.with(|walk| match walk.try_borrow_mut() {
            Ok(mut walk) => f(&mut walk),
            Err(_) => f(&mut EvidenceWalk::default()),
        })
    }

    /// Gathers every entity's sums over `evidence`, where the snippet at
    /// position `i` weighs `1 / (1 + bias * i)`. A snippet counts once
    /// per entity: a repeat of an entity within one snippet is skipped,
    /// as [`Snippet::score_for`] reads only the first.
    pub(crate) fn run(&mut self, evidence: &[Snippet], bias: f64) {
        self.stamp = self.stamp.wrapping_add(1);
        if self.stamp == 0 {
            self.slots.fill(Slot::default());
            self.stamp = 1;
        }
        self.entities.clear();
        for (pos, snippet) in evidence.iter().enumerate() {
            let w = 1.0 / (1.0 + bias * pos as f64);
            let at = u32::try_from(pos).expect("fewer than 2^32 snippets");
            for &(entity, s) in snippet.entities.iter() {
                let i = entity.index();
                if i >= self.slots.len() {
                    self.slots.resize(i + 1, Slot::default());
                }
                let slot = &mut self.slots[i];
                if slot.stamp != self.stamp {
                    *slot = Slot {
                        stamp: self.stamp,
                        snippet: at,
                        sums: Sums::default(),
                    };
                    self.entities.push(entity);
                } else if slot.snippet == at {
                    continue;
                }
                slot.snippet = at;
                let sums = &mut slot.sums;
                if sums.weight_sum == 0.0 {
                    sums.first_weight = w;
                }
                sums.weight_sum += w;
                sums.score_sum += w * s;
            }
        }
    }

    /// `entity`'s sums from the last walk; all zero if it was not in the
    /// evidence.
    pub(crate) fn sums(&self, entity: EntityId) -> Sums {
        match self.slots.get(entity.index()) {
            Some(slot) if slot.stamp == self.stamp => slot.sums,
            _ => Sums::default(),
        }
    }

    /// The entities the last walk's evidence spoke about, each once, in
    /// order of first appearance.
    pub(crate) fn entities_mut(&mut self) -> &mut Vec<EntityId> {
        &mut self.entities
    }
}
