//! Clause storage: one flat arena of `u32` words.
//!
//! Every clause is a two-word header followed by its literal codes
//! ([`Lit::code`]); a learnt clause then keeps its `f64` activity in two
//! more words:
//!
//! ```text
//! cref ─► [ len << 2 | flags ] [ lbd ] [ lit 0 ] … [ lit len-1 ] ( [ activity lo ] [ activity hi ] )
//! ```
//!
//! A [`ClauseRef`] is the offset of the clause's header in the arena. The
//! offset stays below 2^31: the solver's watchers tag binary clauses with
//! bit 31 of the same word (see [`BINARY_TAG`]).
//!
//! Deleting a clause only flags its header and counts its words as dead;
//! its watchers are the solver's to remove. Once dead words exceed half the
//! arena, [`ClauseDb::compact`] copies the live clauses, in arena order,
//! into a fresh arena and hands back a [`Forwarding`] that remaps old
//! handles to new ones.

use crate::lit::Lit;

/// Bit 31 of a watcher's clause word: set for binary clauses. Arena
/// offsets must stay below it.
pub(crate) const BINARY_TAG: u32 = 1 << 31;

/// Header words in front of a clause's literals.
const HEADER: usize = 2;
/// Words a learnt clause's activity takes after its literals.
const ACTIVITY: usize = 2;

/// Header flag: the clause was learnt during conflict analysis.
const LEARNT: u32 = 1;
/// Header flag: the clause is deleted; its words are dead.
const DELETED: u32 = 1 << 1;
/// The literal count starts above the flags.
const LEN_SHIFT: u32 = 2;

/// A handle to a clause: the offset of its header in the solver's clause
/// arena.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct ClauseRef(pub(crate) u32);

impl ClauseRef {
    /// The handle of the clause whose header sits at `offset`.
    ///
    /// # Panics
    ///
    /// Panics if `offset` reaches [`BINARY_TAG`]: such a handle would read
    /// as a binary clause once it is stored in a watcher.
    #[inline]
    pub(crate) fn from_offset(offset: usize) -> ClauseRef {
        assert!(
            offset < BINARY_TAG as usize,
            "clause arena offset {offset} reaches the binary-watcher tag bit"
        );
        ClauseRef(offset as u32)
    }

    #[inline]
    fn offset(self) -> usize {
        self.0 as usize
    }
}

/// The old arena after a [`ClauseDb::compact`]: each live clause's LBD
/// word holds the clause's new offset.
#[derive(Debug)]
pub struct Forwarding(Vec<u32>);

impl Forwarding {
    /// The new handle of the clause `old` referred to before compaction.
    /// `old` must have been live.
    #[inline]
    pub fn get(&self, old: ClauseRef) -> ClauseRef {
        assert_eq!(
            self.0[old.offset()] & DELETED,
            0,
            "only live clauses are forwarded"
        );
        ClauseRef(self.0[old.offset() + 1])
    }
}

/// Arena holding all clauses of a solver.
#[derive(Default, Debug)]
pub struct ClauseDb {
    arena: Vec<u32>,
    /// Words of deleted clauses, reclaimed by compaction.
    dead: usize,
    /// Number of live (non-deleted) learnt clauses.
    num_learnt: usize,
    /// Number of live problem clauses.
    num_problem: usize,
    /// Clauses ever pushed into this arena (never decremented).
    allocations: u64,
}

impl ClauseDb {
    /// Creates an empty clause database.
    pub fn new() -> ClauseDb {
        ClauseDb::default()
    }

    /// Appends a clause and returns its handle.
    ///
    /// The caller is responsible for watch-list maintenance.
    ///
    /// # Panics
    ///
    /// Panics if the clause would start at an offset at or above
    /// [`BINARY_TAG`].
    pub fn push(&mut self, lits: &[Lit], learnt: bool) -> ClauseRef {
        debug_assert!(lits.len() >= 2, "unit/empty clauses are not stored");
        assert!(
            lits.len() < 1 << (32 - LEN_SHIFT),
            "clause too long for its header"
        );
        let cref = ClauseRef::from_offset(self.arena.len());
        self.allocations += 1;
        let flags = if learnt {
            self.num_learnt += 1;
            LEARNT
        } else {
            self.num_problem += 1;
            0
        };
        self.arena.push((lits.len() as u32) << LEN_SHIFT | flags);
        self.arena.push(0);
        self.arena.extend(lits.iter().map(|l| l.code() as u32));
        if learnt {
            self.arena.extend([0; ACTIVITY]);
        }
        cref
    }

    /// Marks a clause as deleted and counts its words as dead. Its
    /// watchers stay until the solver removes them.
    pub fn delete(&mut self, cref: ClauseRef) {
        let header = self.arena[cref.offset()];
        if header & DELETED != 0 {
            return;
        }
        if header & LEARNT != 0 {
            self.num_learnt -= 1;
        } else {
            self.num_problem -= 1;
        }
        self.arena[cref.offset()] = header | DELETED;
        self.dead += Self::words(header);
    }

    /// Words a clause with this header occupies, header included.
    #[inline]
    fn words(header: u32) -> usize {
        let extra = if header & LEARNT != 0 { ACTIVITY } else { 0 };
        HEADER + (header >> LEN_SHIFT) as usize + extra
    }

    /// Number of literals.
    #[inline]
    pub fn len(&self, cref: ClauseRef) -> usize {
        (self.arena[cref.offset()] >> LEN_SHIFT) as usize
    }

    /// `true` if the clause was learnt during conflict analysis.
    #[inline]
    pub fn is_learnt(&self, cref: ClauseRef) -> bool {
        self.arena[cref.offset()] & LEARNT != 0
    }

    /// `true` once the clause has been deleted.
    #[inline]
    pub fn is_deleted(&self, cref: ClauseRef) -> bool {
        self.arena[cref.offset()] & DELETED != 0
    }

    /// The clause's stored literal block distance (0 for problem clauses).
    #[inline]
    pub fn lbd(&self, cref: ClauseRef) -> u32 {
        self.arena[cref.offset() + 1]
    }

    /// Stores the clause's literal block distance.
    #[inline]
    pub fn set_lbd(&mut self, cref: ClauseRef, lbd: u32) {
        self.arena[cref.offset() + 1] = lbd;
    }

    #[inline]
    fn activity_at(&self, cref: ClauseRef) -> usize {
        debug_assert!(self.is_learnt(cref), "only learnt clauses keep an activity");
        cref.offset() + HEADER + self.len(cref)
    }

    /// A learnt clause's activity.
    #[inline]
    pub fn activity(&self, cref: ClauseRef) -> f64 {
        let at = self.activity_at(cref);
        f64::from_bits(u64::from(self.arena[at]) | u64::from(self.arena[at + 1]) << 32)
    }

    /// Stores a learnt clause's activity.
    #[inline]
    pub fn set_activity(&mut self, cref: ClauseRef, activity: f64) {
        let at = self.activity_at(cref);
        let bits = activity.to_bits();
        self.arena[at] = bits as u32;
        self.arena[at + 1] = (bits >> 32) as u32;
    }

    /// The `k`-th literal.
    #[inline]
    pub fn lit(&self, cref: ClauseRef, k: usize) -> Lit {
        Lit::from_code(self.arena[cref.offset() + HEADER + k] as usize)
    }

    /// The literal codes, in stored order.
    #[inline]
    fn lit_words(&self, cref: ClauseRef) -> &[u32] {
        let base = cref.offset() + HEADER;
        &self.arena[base..base + self.len(cref)]
    }

    /// The literal codes, in stored order, for reordering in place.
    #[inline]
    pub fn lit_words_mut(&mut self, cref: ClauseRef) -> &mut [u32] {
        let base = cref.offset() + HEADER;
        let len = self.len(cref);
        &mut self.arena[base..base + len]
    }

    /// The literals, in stored order.
    #[inline]
    pub fn lits(&self, cref: ClauseRef) -> impl ExactSizeIterator<Item = Lit> + Clone + '_ {
        self.lit_words(cref)
            .iter()
            .map(|&w| Lit::from_code(w as usize))
    }

    /// Number of live learnt clauses.
    #[inline]
    pub fn num_learnt(&self) -> usize {
        self.num_learnt
    }

    /// Number of live problem clauses.
    #[inline]
    pub fn num_problem(&self) -> usize {
        self.num_problem
    }

    /// Clauses ever allocated in this arena, including ones since deleted
    /// or compacted away — a cumulative allocation counter, not a live
    /// count.
    #[inline]
    pub fn allocations(&self) -> u64 {
        self.allocations
    }

    /// Heap footprint of the arena in bytes: its capacity, dead words
    /// included.
    pub fn bytes_estimate(&self) -> u64 {
        (self.arena.capacity() * std::mem::size_of::<u32>()) as u64
    }

    /// Words in use, dead ones included.
    #[cfg(test)]
    pub fn len_words(&self) -> usize {
        self.arena.len()
    }

    /// Words of deleted clauses not yet reclaimed.
    #[cfg(test)]
    pub fn dead_words(&self) -> usize {
        self.dead
    }

    /// `true` once dead words exceed half the arena.
    #[inline]
    pub fn wants_compaction(&self) -> bool {
        self.dead * 2 > self.arena.len()
    }

    /// Copies the live clauses, in arena order, into a fresh arena. The
    /// returned [`Forwarding`] maps every handle that was live before the
    /// call to the clause's new handle.
    pub fn compact(&mut self) -> Forwarding {
        let live = Vec::with_capacity(self.arena.len() - self.dead);
        let mut old = std::mem::replace(&mut self.arena, live);
        let mut pos = 0;
        while pos < old.len() {
            let header = old[pos];
            let words = Self::words(header);
            if header & DELETED == 0 {
                let to = self.arena.len() as u32;
                self.arena.extend_from_slice(&old[pos..pos + words]);
                old[pos + 1] = to;
            }
            pos += words;
        }
        self.dead = 0;
        Forwarding(old)
    }

    /// Iterates over handles of all live clauses, in arena order.
    pub fn iter_refs(&self) -> impl Iterator<Item = ClauseRef> + '_ {
        let mut pos = 0;
        std::iter::from_fn(move || {
            while pos < self.arena.len() {
                let at = pos;
                let header = self.arena[at];
                pos += Self::words(header);
                if header & DELETED == 0 {
                    return Some(ClauseRef(at as u32));
                }
            }
            None
        })
    }

    /// Iterates over handles of live *problem* (non-learnt) clauses.
    pub fn iter_problem_refs(&self) -> impl Iterator<Item = ClauseRef> + '_ {
        self.iter_refs().filter(|&c| !self.is_learnt(c))
    }

    /// Iterates over handles of live *learnt* clauses.
    pub fn iter_learnt_refs(&self) -> impl Iterator<Item = ClauseRef> + '_ {
        self.iter_refs().filter(|&c| self.is_learnt(c))
    }

    /// Divides every learnt-clause activity by `factor` (rescaling to avoid
    /// floating-point overflow).
    pub fn rescale_activity(&mut self, factor: f64) {
        let learnt: Vec<ClauseRef> = self.iter_learnt_refs().collect();
        for cref in learnt {
            let a = self.activity(cref);
            self.set_activity(cref, a / factor);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lits(codes: &[i64]) -> Vec<Lit> {
        codes
            .iter()
            .map(|&c| Lit::from_dimacs(c).unwrap())
            .collect()
    }

    #[test]
    fn push_and_read_back() {
        let mut db = ClauseDb::new();
        let c = db.push(&lits(&[1, -2, 3]), false);
        assert_eq!(db.len(c), 3);
        assert_eq!(db.lits(c).collect::<Vec<_>>(), lits(&[1, -2, 3]));
        assert!(!db.is_learnt(c));
        assert_eq!(db.num_problem(), 1);
        assert_eq!(db.num_learnt(), 0);
        let l = db.push(&lits(&[4, 5]), true);
        db.set_lbd(l, 2);
        db.set_activity(l, 1e19 + 0.5);
        assert_eq!((db.lbd(l), db.activity(l)), (2, 1e19 + 0.5));
        assert_eq!(db.lits(l).collect::<Vec<_>>(), lits(&[4, 5]));
    }

    #[test]
    fn delete_updates_counts() {
        let mut db = ClauseDb::new();
        let a = db.push(&lits(&[1, 2]), false);
        let b = db.push(&lits(&[1, -2]), true);
        assert_eq!(db.num_problem(), 1);
        assert_eq!(db.num_learnt(), 1);
        db.delete(b);
        assert_eq!(db.num_learnt(), 0);
        // double delete is a no-op
        db.delete(b);
        assert_eq!(db.num_learnt(), 0);
        assert_eq!(db.dead_words(), HEADER + 2 + ACTIVITY);
        assert_eq!(db.iter_refs().collect::<Vec<_>>(), vec![a]);
    }

    #[test]
    fn allocation_and_byte_accounting() {
        let mut db = ClauseDb::new();
        assert_eq!(db.allocations(), 0);
        assert_eq!(db.bytes_estimate(), 0);
        let a = db.push(&lits(&[1, 2]), false);
        db.push(&lits(&[3, 4]), true);
        assert_eq!(db.allocations(), 2);
        assert!(db.bytes_estimate() >= 4 * db.len_words() as u64);
        db.delete(a);
        db.compact();
        // Compaction drops dead words but never the allocation count.
        assert_eq!(db.allocations(), 2);
        assert_eq!(db.len_words(), HEADER + 2 + ACTIVITY);
    }

    #[test]
    fn iter_learnt_only() {
        let mut db = ClauseDb::new();
        db.push(&lits(&[1, 2]), false);
        let l = db.push(&lits(&[3, 4]), true);
        assert_eq!(db.iter_learnt_refs().collect::<Vec<_>>(), vec![l]);
    }

    #[test]
    fn compaction_keeps_arena_order_and_forwards_handles() {
        let mut db = ClauseDb::new();
        let a = db.push(&lits(&[1, 2, 3]), false);
        let b = db.push(&lits(&[4, 5, 6]), true);
        let c = db.push(&lits(&[-1, 7]), true);
        let d = db.push(&lits(&[8, 9, -3]), false);
        db.set_lbd(c, 2);
        db.set_activity(c, 7.0);
        db.delete(b);
        let fwd = db.compact();
        assert_eq!(db.dead_words(), 0);
        let live: Vec<ClauseRef> = db.iter_refs().collect();
        assert_eq!(live, vec![fwd.get(a), fwd.get(c), fwd.get(d)]);
        assert_eq!(db.lits(fwd.get(a)).collect::<Vec<_>>(), lits(&[1, 2, 3]));
        assert_eq!(db.lits(fwd.get(c)).collect::<Vec<_>>(), lits(&[-1, 7]));
        assert_eq!(db.lits(fwd.get(d)).collect::<Vec<_>>(), lits(&[8, 9, -3]));
        assert_eq!((db.lbd(fwd.get(c)), db.activity(fwd.get(c))), (2, 7.0));
        assert_eq!(db.num_learnt(), 1);
        assert_eq!(db.num_problem(), 2);
    }

    #[test]
    #[should_panic(expected = "binary-watcher tag bit")]
    fn an_offset_at_the_tag_bit_panics() {
        ClauseRef::from_offset(BINARY_TAG as usize);
    }

    #[test]
    #[cfg(target_pointer_width = "64")]
    #[should_panic(expected = "binary-watcher tag bit")]
    fn an_offset_past_u32_panics_instead_of_wrapping() {
        ClauseRef::from_offset(1 << 32);
    }
}
