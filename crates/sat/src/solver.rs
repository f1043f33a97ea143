//! A small, std-only CDCL SAT solver.
//!
//! The feature set is the classic modern core: two-watched-literal
//! propagation with blockers, first-UIP conflict analysis with basic
//! (reason-local) clause minimization, VSIDS decision ordering on an
//! indexed max-heap, phase saving, Luby restarts, activity-driven
//! learned-clause-database reduction, and incremental solving under
//! assumptions with a conflict budget (exceeding it returns
//! [`SolveResult::Unknown`], never a wrong answer).
//!
//! The data layout keeps the inner loops on a few flat arrays:
//!
//! * **Clause arena.** Every clause is two header words (its length
//!   with a learned flag, then its index) followed by its literals, all
//!   in one `u32` vector. A clause is named by the offset of its first
//!   literal: watchers, reasons and conflicts carry that offset, so
//!   propagation and analysis read the clause where it lies. The index
//!   reaches the clause's activity, which only bumping and database
//!   reduction read; reduction compacts the arena in place and rewrites
//!   the indices.
//! * **Literal values.** `vals[lit.code()]` is `1`, `-1` or `0`, set for
//!   both polarities at once, so reading a literal's value is one load.
//! * **Watch lists** are segments of one vector. A full list moves to
//!   the end with twice the room; the words it leaves behind are freed
//!   when the lists are rebuilt after a reduction. A binary clause's
//!   watcher is flagged, and its blocker is always the other literal, so
//!   the clause is settled from the watcher alone.
//! * **Heap keys inline.** The VSIDS heap keeps each variable's activity
//!   beside it, and rescaling the activities rescales the keys.
//!
//! None of this changes the search: watch lists keep the order that
//! pushes and swap-removes give them, clause literals keep the order
//! propagation swaps them into (analysis reads clauses in that order),
//! and the heap compares the same `f64` values as the activity array.
//!
//! Variable 0 is reserved as the constant `true` (pinned by a unit
//! clause at construction), so encoders can hand out literals for
//! constants without special cases. The solver never panics on any
//! clause set: tautologies and duplicate literals are normalized away
//! in [`Solver::add_clause`], and contradictory input just drives the
//! solver into a permanent UNSAT state.

use std::collections::HashMap;

/// A literal: a variable index plus a polarity.
///
/// Encoded as `var * 2 + negated` so it can index watch lists directly.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Lit(u32);

impl Lit {
    /// Builds a literal for variable `var` with the given polarity.
    #[must_use]
    pub const fn new(var: u32, negated: bool) -> Self {
        Lit(var * 2 + negated as u32)
    }

    /// The literal's variable index.
    #[must_use]
    pub const fn var(self) -> u32 {
        self.0 / 2
    }

    /// `true` if the literal is the negation of its variable.
    #[must_use]
    pub const fn is_neg(self) -> bool {
        self.0 & 1 == 1
    }

    /// Dense code usable as an array index (`var * 2 + negated`).
    #[must_use]
    pub const fn code(self) -> usize {
        self.0 as usize
    }
}

impl std::ops::Not for Lit {
    type Output = Lit;
    fn not(self) -> Lit {
        Lit(self.0 ^ 1)
    }
}

impl std::fmt::Display for Lit {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.is_neg() {
            write!(f, "~x{}", self.var())
        } else {
            write!(f, "x{}", self.var())
        }
    }
}

/// Outcome of one [`Solver::solve`] call.
#[derive(Debug, Clone)]
pub enum SolveResult {
    /// Satisfiable: a total assignment consistent with the clauses and
    /// the assumptions.
    Sat(Model),
    /// Unsatisfiable under the given assumptions.
    Unsat,
    /// The conflict budget ran out before a verdict was reached.
    Unknown,
}

/// A total satisfying assignment.
#[derive(Debug, Clone)]
pub struct Model {
    values: Vec<bool>,
}

impl Model {
    /// Value of a literal under the model.
    ///
    /// Variables beyond the model (never created at solve time) read as
    /// `false`.
    #[must_use]
    pub fn value(&self, lit: Lit) -> bool {
        let v = self
            .values
            .get(lit.var() as usize)
            .copied()
            .unwrap_or(false);
        v ^ lit.is_neg()
    }
}

/// Cumulative solver statistics (monotone across `solve` calls).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SolverStats {
    /// Conflicts hit (and clauses learned from them).
    pub conflicts: u64,
    /// Decision literals picked.
    pub decisions: u64,
    /// Literals propagated.
    pub propagations: u64,
    /// Restarts performed.
    pub restarts: u64,
    /// Learned-clause database reductions that deleted clauses.
    pub reductions: u64,
    /// Learned clauses currently in the database.
    pub learned: u64,
    /// `solve` calls answered.
    pub solves: u64,
}

/// Keys for the structural-hashing cache used by the gate builders in
/// [`crate::gates`]: two identical gates over identical literals fuse
/// into one variable, so miters over structurally similar netlists
/// collapse before the search even starts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum GateKey {
    /// Binary/ternary gate: (kind tag, operand literal codes, 0-padded).
    Gate(u8, [u32; 3]),
    /// LUT cofactor function: (reduced truth table, support literal
    /// codes, 0-padded to 6).
    Lut(u64, [u32; 6]),
}

/// One watcher: the watched clause's arena offset, tagged with
/// [`BINARY`] for a two-literal clause, and a blocker literal whose
/// truth satisfies the clause.
#[derive(Debug, Clone, Copy)]
struct Watch {
    clause: u32,
    blocker: Lit,
}

/// Tag on [`Watch::clause`] of a binary clause, whose blocker is its
/// other literal.
const BINARY: u32 = 1 << 31;
/// Words before a clause's literals in the arena: its length shifted
/// left by one with the learned flag in bit 0, then its index.
const HEADER: usize = 2;

const NO_REASON: u32 = u32::MAX;

/// Where one literal's watch list lies in [`WatchLists::words`].
#[derive(Debug, Clone, Copy, Default)]
struct Span {
    start: u32,
    len: u32,
    cap: u32,
}

/// Every literal's watch list, as a segment of one vector.
#[derive(Debug, Default)]
struct WatchLists {
    words: Vec<Watch>,
    spans: Vec<Span>,
}

impl WatchLists {
    /// Appends `w` to the list of literal code `lit`. A full list moves
    /// to the end of `words` with twice its room; no other list moves.
    fn push(&mut self, lit: usize, w: Watch) {
        let span = &mut self.spans[lit];
        if span.len == span.cap {
            let start = self.words.len();
            let cap = (2 * span.cap).max(4);
            let old = span.start as usize..(span.start + span.len) as usize;
            self.words.extend_from_within(old);
            self.words.resize(start + cap as usize, w);
            span.start = start as u32;
            span.cap = cap;
        }
        self.words[(span.start + span.len) as usize] = w;
        span.len += 1;
    }

    /// Empties every list and frees the words moved lists left behind.
    fn clear(&mut self) {
        self.words.clear();
        self.spans.fill(Span::default());
    }
}

/// The CDCL solver. See the [module docs](self) for the feature set and
/// the data layout.
#[derive(Debug)]
pub struct Solver {
    /// Every clause, header words then literals, back to back in clause
    /// order.
    arena: Vec<u32>,
    /// Per clause index: its activity (learned clauses only bump it).
    clause_activity: Vec<f64>,
    watches: WatchLists,
    /// Per literal code: 1 true, -1 false, 0 unassigned.
    vals: Vec<i8>,
    level: Vec<u32>,
    /// Per variable: the arena offset of the clause that implied it.
    reason: Vec<u32>,
    trail: Vec<Lit>,
    trail_lim: Vec<usize>,
    qhead: usize,
    activity: Vec<f64>,
    var_inc: f64,
    cla_inc: f64,
    heap: VarHeap,
    phase: Vec<bool>,
    seen: Vec<bool>,
    ok: bool,
    stats: SolverStats,
    /// Learned clauses kept before the next restart reduces them.
    learned_cap: u64,
    /// Conflicts per unit of the Luby restart sequence: 128, except
    /// where a test shrinks it (with `learned_cap`) so that small
    /// instances restart and reduce their databases.
    restart_unit: u64,
    cache: HashMap<GateKey, Lit>,
    /// The clause [`Solver::analyze`] learns, asserting literal first.
    learnt: Vec<Lit>,
    /// Variables `analyze` marked seen.
    to_clear: Vec<u32>,
    /// The clause [`Solver::add_clause`] normalizes.
    normalized: Vec<Lit>,
}

impl Default for Solver {
    fn default() -> Self {
        Self::new()
    }
}

/// Room [`Solver::new`] makes up front, so that a compositional 8×8 wce
/// proof (70–330 variables, 200–2 000 clauses) grows its vectors at
/// most once. Twice these sizes measured no faster, and none at all
/// made the cheapest proofs ≈7 % slower.
const VARS_UP_FRONT: usize = 256;
const ARENA_UP_FRONT: usize = 8 * 1024;

impl Solver {
    /// Creates a solver with the constant-`true` variable pre-pinned.
    #[must_use]
    pub fn new() -> Self {
        let vars = VARS_UP_FRONT;
        let mut s = Solver {
            arena: Vec::with_capacity(ARENA_UP_FRONT),
            clause_activity: Vec::with_capacity(ARENA_UP_FRONT / 4),
            watches: WatchLists {
                words: Vec::with_capacity(ARENA_UP_FRONT / 2),
                spans: Vec::with_capacity(2 * vars),
            },
            vals: Vec::with_capacity(2 * vars),
            level: Vec::with_capacity(vars),
            reason: Vec::with_capacity(vars),
            trail: Vec::with_capacity(vars),
            trail_lim: Vec::with_capacity(vars),
            qhead: 0,
            activity: Vec::with_capacity(vars),
            var_inc: 1.0,
            cla_inc: 1.0,
            heap: VarHeap::with_capacity(vars),
            phase: Vec::with_capacity(vars),
            seen: Vec::with_capacity(vars),
            ok: true,
            stats: SolverStats::default(),
            learned_cap: 20_000,
            restart_unit: 128,
            cache: HashMap::with_capacity(vars),
            learnt: Vec::with_capacity(vars),
            to_clear: Vec::with_capacity(vars),
            normalized: Vec::with_capacity(8),
        };
        let t = s.new_var();
        s.add_clause(&[t]);
        s
    }

    /// The literal that is always true.
    #[must_use]
    pub fn true_lit(&self) -> Lit {
        Lit::new(0, false)
    }

    /// The literal that is always false.
    #[must_use]
    pub fn false_lit(&self) -> Lit {
        Lit::new(0, true)
    }

    /// Number of variables (including the reserved constant).
    #[must_use]
    pub fn num_vars(&self) -> u32 {
        self.level.len() as u32
    }

    /// Cumulative statistics.
    #[must_use]
    pub fn stats(&self) -> SolverStats {
        self.stats
    }

    /// Looks up a structurally-hashed gate output.
    #[must_use]
    pub fn cached_gate(&self, key: &GateKey) -> Option<Lit> {
        self.cache.get(key).copied()
    }

    /// Records a structurally-hashed gate output.
    pub fn cache_gate(&mut self, key: GateKey, out: Lit) {
        self.cache.insert(key, out);
    }

    /// Creates a fresh variable and returns its positive literal.
    pub fn new_var(&mut self) -> Lit {
        let v = self.level.len() as u32;
        self.vals.extend_from_slice(&[0, 0]);
        self.level.push(0);
        self.reason.push(NO_REASON);
        self.activity.push(0.0);
        self.phase.push(false);
        self.seen.push(false);
        self.watches.spans.extend_from_slice(&[Span::default(); 2]);
        self.heap.insert(v, 0.0);
        Lit::new(v, false)
    }

    fn value_lit(&self, l: Lit) -> i8 {
        self.vals[l.code()]
    }

    /// The literals of the clause at arena offset `offset`.
    fn lits(&self, offset: u32) -> &[u32] {
        let start = offset as usize;
        let len = (self.arena[start - HEADER] >> 1) as usize;
        &self.arena[start..start + len]
    }

    /// Stores a clause of two or more literals and watches its first
    /// two; returns its arena offset.
    fn attach(&mut self, lits: &[Lit], learned: bool, activity: f64) -> u32 {
        let index = self.clause_activity.len() as u32;
        self.arena
            .extend_from_slice(&[(lits.len() as u32) << 1 | u32::from(learned), index]);
        let offset = self.arena.len() as u32;
        self.arena.extend(lits.iter().map(|l| l.0));
        self.clause_activity.push(activity);
        self.watch(offset, lits[0], lits[1], lits.len() == 2);
        offset
    }

    /// Watches the clause at `offset` on its first two literals, `l0`
    /// and `l1`.
    fn watch(&mut self, offset: u32, l0: Lit, l1: Lit, binary: bool) {
        let clause = if binary { offset | BINARY } else { offset };
        self.watches.push(
            l0.code(),
            Watch {
                clause,
                blocker: l1,
            },
        );
        self.watches.push(
            l1.code(),
            Watch {
                clause,
                blocker: l0,
            },
        );
    }

    fn decision_level(&self) -> u32 {
        self.trail_lim.len() as u32
    }

    /// Adds a clause, normalizing duplicates and tautologies.
    ///
    /// May be called between `solve` calls; the trail is first unwound
    /// to decision level 0. An empty (or all-false-at-level-0) clause
    /// puts the solver into a permanent UNSAT state instead of
    /// panicking.
    pub fn add_clause(&mut self, lits: &[Lit]) {
        if !self.ok {
            return;
        }
        self.backtrack(0);
        let mut c = std::mem::take(&mut self.normalized);
        c.clear();
        if self.normalize(lits, &mut c) {
            match c.len() {
                0 => self.ok = false,
                1 => {
                    self.enqueue(c[0], NO_REASON);
                    if self.propagate().is_some() {
                        self.ok = false;
                    }
                }
                _ => {
                    self.attach(&c, false, 0.0);
                }
            }
        }
        self.normalized = c;
    }

    /// Appends `lits` to `c` less duplicates and literals false at
    /// level 0; `false` if the clause is a tautology or already
    /// satisfied.
    fn normalize(&mut self, lits: &[Lit], c: &mut Vec<Lit>) -> bool {
        for &l in lits {
            if l.var() >= self.num_vars() {
                // Hostile input: grow rather than panic.
                while self.num_vars() <= l.var() {
                    self.new_var();
                }
            }
            if c.contains(&!l) {
                return false; // tautology
            }
            match self.value_lit(l) {
                1 => return false, // satisfied at level 0
                -1 => continue,    // falsified at level 0: drop the literal
                _ => {}
            }
            if !c.contains(&l) {
                c.push(l);
            }
        }
        true
    }

    fn enqueue(&mut self, l: Lit, reason: u32) {
        let v = l.var() as usize;
        debug_assert_eq!(self.vals[l.code()], 0);
        self.vals[l.code()] = 1;
        self.vals[(!l).code()] = -1;
        self.phase[v] = !l.is_neg();
        self.level[v] = self.decision_level();
        self.reason[v] = reason;
        self.trail.push(l);
    }

    /// Propagates to fixpoint; returns a conflicting clause's offset.
    fn propagate(&mut self) -> Option<u32> {
        // Field by field, so that each array is its own borrow.
        let Solver {
            arena,
            watches,
            vals,
            level,
            reason,
            trail,
            trail_lim,
            qhead,
            phase,
            stats,
            ..
        } = self;
        let decision_level = trail_lim.len() as u32;
        let mut enqueue = |vals: &mut [i8], trail: &mut Vec<Lit>, l: Lit, from: u32| {
            let v = l.var() as usize;
            vals[l.code()] = 1;
            vals[(!l).code()] = -1;
            phase[v] = !l.is_neg();
            level[v] = decision_level;
            reason[v] = from;
            trail.push(l);
        };
        while *qhead < trail.len() {
            let p = trail[*qhead];
            *qhead += 1;
            stats.propagations += 1;
            let false_lit = !p;
            // The list's words stay put while it is walked: pushes only
            // move the lists of non-false literals.
            let Span { start, mut len, .. } = watches.spans[false_lit.code()];
            let start = start as usize;
            let mut i = 0;
            let mut conflict = None;
            'watchers: while i < len as usize {
                let w = watches.words[start + i];
                let blocker = vals[w.blocker.code()];
                if blocker == 1 {
                    i += 1;
                    continue;
                }
                let offset = (w.clause & !BINARY) as usize;
                if arena[offset] == false_lit.0 {
                    arena.swap(offset, offset + 1);
                }
                if w.clause & BINARY != 0 {
                    // The blocker is the other literal: unit or conflict.
                    if blocker == -1 {
                        conflict = Some(offset as u32);
                        break;
                    }
                    enqueue(vals, trail, w.blocker, offset as u32);
                    i += 1;
                    continue;
                }
                let first = Lit(arena[offset]);
                let first_value = vals[first.code()];
                if first != w.blocker && first_value == 1 {
                    watches.words[start + i].blocker = first;
                    i += 1;
                    continue;
                }
                let end = offset + (arena[offset - HEADER] >> 1) as usize;
                for k in offset + 2..end {
                    let lk = Lit(arena[k]);
                    if vals[lk.code()] != -1 {
                        arena.swap(offset + 1, k);
                        watches.push(
                            lk.code(),
                            Watch {
                                clause: w.clause,
                                blocker: first,
                            },
                        );
                        len -= 1;
                        watches.words[start + i] = watches.words[start + len as usize];
                        continue 'watchers;
                    }
                }
                // No replacement watch: unit or conflict.
                if first_value == -1 {
                    conflict = Some(offset as u32);
                    break;
                }
                enqueue(vals, trail, first, offset as u32);
                i += 1;
            }
            watches.spans[false_lit.code()].len = len;
            if conflict.is_some() {
                *qhead = trail.len();
                return conflict;
            }
        }
        None
    }

    fn backtrack(&mut self, target: u32) {
        while self.decision_level() > target {
            let bound = self.trail_lim.pop().expect("level > 0 has a bound");
            while self.trail.len() > bound {
                let l = self.trail.pop().expect("non-empty trail");
                let v = l.var() as usize;
                self.vals[l.code()] = 0;
                self.vals[(!l).code()] = 0;
                self.reason[v] = NO_REASON;
                self.heap.insert(v as u32, self.activity[v]);
            }
        }
        self.qhead = self.qhead.min(self.trail.len());
    }

    fn var_bump(&mut self, v: u32) {
        let a = &mut self.activity[v as usize];
        *a += self.var_inc;
        if *a > 1e100 {
            for act in &mut self.activity {
                *act *= 1e-100;
            }
            self.heap.rescale(1e-100);
            self.var_inc *= 1e-100;
        }
        self.heap.update(v, self.activity[v as usize]);
    }

    fn clause_bump(&mut self, index: usize) {
        let a = &mut self.clause_activity[index];
        *a += self.cla_inc;
        if *a > 1e20 {
            for act in &mut self.clause_activity {
                *act *= 1e-20;
            }
            self.cla_inc *= 1e-20;
        }
    }

    /// First-UIP conflict analysis into `self.learnt` (the asserting
    /// literal at index 0); returns the backjump level.
    fn analyze(&mut self, conflict: u32) -> u32 {
        self.learnt.clear();
        self.learnt.push(Lit::new(0, false));
        self.to_clear.clear();
        let mut path_c = 0u32;
        let mut p: Option<Lit> = None;
        let mut index = self.trail.len();
        let mut confl = conflict as usize;
        loop {
            let header = self.arena[confl - HEADER];
            if header & 1 == 1 {
                self.clause_bump(self.arena[confl - 1] as usize);
            }
            let end = confl + (header >> 1) as usize;
            for j in confl + usize::from(p.is_some())..end {
                let q = Lit(self.arena[j]);
                let v = q.var();
                if !self.seen[v as usize] && self.level[v as usize] > 0 {
                    self.var_bump(v);
                    self.seen[v as usize] = true;
                    self.to_clear.push(v);
                    if self.level[v as usize] >= self.decision_level() {
                        path_c += 1;
                    } else {
                        self.learnt.push(q);
                    }
                }
            }
            loop {
                index -= 1;
                if self.seen[self.trail[index].var() as usize] {
                    break;
                }
            }
            let pl = self.trail[index];
            self.seen[pl.var() as usize] = false;
            path_c -= 1;
            p = Some(pl);
            if path_c == 0 {
                break;
            }
            let reason = self.reason[pl.var() as usize];
            debug_assert_ne!(reason, NO_REASON, "interior UIP-path literal has a reason");
            confl = reason as usize;
        }
        self.learnt[0] = !p.expect("conflict analysis found the UIP");

        // Basic (reason-local) minimization, in place: the seen marks
        // it reads are not changed until every literal is judged.
        let mut kept = 1;
        for i in 1..self.learnt.len() {
            let q = self.learnt[i];
            if !self.lit_redundant(q) {
                self.learnt[kept] = q;
                kept += 1;
            }
        }
        self.learnt.truncate(kept);

        for &v in &self.to_clear {
            self.seen[v as usize] = false;
        }

        // Backjump level: highest level among the non-asserting lits.
        let learnt = &mut self.learnt;
        if learnt.len() == 1 {
            0
        } else {
            let mut max_i = 1;
            for i in 2..learnt.len() {
                if self.level[learnt[i].var() as usize] > self.level[learnt[max_i].var() as usize] {
                    max_i = i;
                }
            }
            learnt.swap(1, max_i);
            self.level[learnt[1].var() as usize]
        }
    }

    fn lit_redundant(&self, q: Lit) -> bool {
        let r = self.reason[q.var() as usize];
        if r == NO_REASON {
            return false;
        }
        self.lits(r).iter().skip(1).all(|&l| {
            let v = (l >> 1) as usize;
            self.seen[v] || self.level[v] == 0
        })
    }

    /// Adds `self.learnt` and asserts its first literal.
    fn learn(&mut self) {
        self.stats.conflicts += 1;
        let assert_lit = self.learnt[0];
        if self.learnt.len() == 1 {
            self.enqueue(assert_lit, NO_REASON);
        } else {
            let learnt = std::mem::take(&mut self.learnt);
            let offset = self.attach(&learnt, true, self.cla_inc);
            self.learnt = learnt;
            self.stats.learned += 1;
            self.enqueue(assert_lit, offset);
        }
        self.var_inc /= 0.95;
        self.cla_inc /= 0.999;
    }

    /// Drops the least active half of the learned clauses. Only runs at
    /// decision level 0, where no learned clause can be a reason.
    fn reduce_db(&mut self) {
        debug_assert_eq!(self.decision_level(), 0);
        for &l in &self.trail {
            self.reason[l.var() as usize] = NO_REASON;
        }
        let mut acts: Vec<f64> = Vec::new();
        let mut at = 0;
        while at < self.arena.len() {
            let header = self.arena[at];
            if header & 1 == 1 && header >> 1 > 2 {
                acts.push(self.clause_activity[self.arena[at + 1] as usize]);
            }
            at += HEADER + (header >> 1) as usize;
        }
        if acts.is_empty() {
            return;
        }
        acts.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
        let median = acts[acts.len() / 2];
        // Compact in place: kept clauses keep their order, their words
        // only ever move towards the front of the arena, and each takes
        // the next index.
        let (mut read, mut end, mut kept) = (0, 0, 0);
        while read < self.arena.len() {
            let header = self.arena[read];
            let next = read + HEADER + (header >> 1) as usize;
            let activity = self.clause_activity[self.arena[read + 1] as usize];
            if !(header & 1 == 1 && header >> 1 > 2 && activity < median) {
                self.arena.copy_within(read..next, end);
                self.arena[end + 1] = kept as u32;
                self.clause_activity[kept] = activity;
                kept += 1;
                end += next - read;
            }
            read = next;
        }
        self.arena.truncate(end);
        self.clause_activity.truncate(kept);
        self.stats.reductions += 1;
        let mut learned = 0;
        let mut at = 0;
        while at < self.arena.len() {
            learned += u64::from(self.arena[at] & 1);
            at += HEADER + (self.arena[at] >> 1) as usize;
        }
        self.stats.learned = learned;
        self.rebuild_watches();
    }

    /// Reconstructs all watch lists from scratch (level 0 only).
    fn rebuild_watches(&mut self) {
        self.watches.clear();
        let mut units: Vec<Lit> = Vec::new();
        let mut at = 0;
        while at < self.arena.len() {
            let len = (self.arena[at] >> 1) as usize;
            let offset = at + HEADER;
            at = offset + len;
            let lits = &mut self.arena[offset..at];
            // Prefer watching non-false literals.
            let mut front = 0;
            for k in 0..lits.len() {
                if self.vals[lits[k] as usize] != -1 {
                    lits.swap(front, k);
                    front += 1;
                    if front == 2 {
                        break;
                    }
                }
            }
            if front == 1 {
                if self.vals[lits[0] as usize] == 0 {
                    units.push(Lit(lits[0]));
                }
            } else if front == 0 {
                self.ok = false;
            }
            let (l0, l1) = (Lit(lits[0]), Lit(lits[1]));
            self.watch(offset as u32, l0, l1, len == 2);
        }
        for u in units {
            if self.value_lit(u) == 0 {
                self.enqueue(u, NO_REASON);
            }
        }
        if self.propagate().is_some() {
            self.ok = false;
        }
    }

    /// Solves under `assumptions` with a conflict budget.
    ///
    /// Returns [`SolveResult::Unknown`] once `max_conflicts` conflicts
    /// have been spent in this call. Learned clauses persist across
    /// calls, so retrying (or re-solving under different assumptions)
    /// resumes with everything already derived.
    pub fn solve(&mut self, assumptions: &[Lit], max_conflicts: u64) -> SolveResult {
        self.stats.solves += 1;
        if !self.ok {
            return SolveResult::Unsat;
        }
        self.backtrack(0);
        if self.propagate().is_some() {
            self.ok = false;
            return SolveResult::Unsat;
        }
        let budget_end = self.stats.conflicts.saturating_add(max_conflicts);
        let mut restart_idx = 0u64;
        loop {
            restart_idx += 1;
            let restart_budget = self.restart_unit * luby(restart_idx);
            match self.search(assumptions, restart_budget, budget_end) {
                SearchOutcome::Sat => {
                    let values: Vec<bool> = self.vals.iter().step_by(2).map(|&a| a == 1).collect();
                    self.backtrack(0);
                    return SolveResult::Sat(Model { values });
                }
                SearchOutcome::Unsat => {
                    self.backtrack(0);
                    return SolveResult::Unsat;
                }
                SearchOutcome::BudgetExhausted => {
                    self.backtrack(0);
                    return SolveResult::Unknown;
                }
                SearchOutcome::Restart => {
                    self.stats.restarts += 1;
                    self.backtrack(0);
                    if self.stats.learned > self.learned_cap {
                        self.reduce_db();
                        self.learned_cap += self.learned_cap / 2;
                        if !self.ok {
                            // The rebuilt watches propagated a learned
                            // unit into a conflict at level 0.
                            return SolveResult::Unsat;
                        }
                    }
                }
            }
        }
    }

    fn search(
        &mut self,
        assumptions: &[Lit],
        restart_budget: u64,
        budget_end: u64,
    ) -> SearchOutcome {
        let mut conflicts_here = 0u64;
        loop {
            if let Some(confl) = self.propagate() {
                if self.decision_level() == 0 {
                    self.ok = false;
                    return SearchOutcome::Unsat;
                }
                if (self.decision_level() as usize) <= assumptions.len() {
                    // Conflict inside the assumption prefix: UNSAT
                    // under these assumptions (but not globally).
                    return SearchOutcome::Unsat;
                }
                let bt = self.analyze(confl);
                self.backtrack(bt);
                self.learn();
                conflicts_here += 1;
                if self.stats.conflicts >= budget_end {
                    return SearchOutcome::BudgetExhausted;
                }
                if conflicts_here >= restart_budget {
                    return SearchOutcome::Restart;
                }
                continue;
            }
            // Assumption prefix: one decision level per assumption.
            while (self.decision_level() as usize) < assumptions.len() {
                let a = assumptions[self.decision_level() as usize];
                match self.value_lit(a) {
                    1 => {
                        self.trail_lim.push(self.trail.len());
                    }
                    -1 => return SearchOutcome::Unsat,
                    _ => {
                        self.trail_lim.push(self.trail.len());
                        self.enqueue(a, NO_REASON);
                        break;
                    }
                }
            }
            if self.qhead < self.trail.len() {
                continue;
            }
            // Pick a branch variable.
            let next = loop {
                match self.heap.pop_max() {
                    Some(v) => {
                        if self.vals[2 * v as usize] == 0 {
                            break Some(v);
                        }
                    }
                    None => break None,
                }
            };
            match next {
                None => return SearchOutcome::Sat,
                Some(v) => {
                    self.stats.decisions += 1;
                    self.trail_lim.push(self.trail.len());
                    let phase = self.phase[v as usize];
                    self.enqueue(Lit::new(v, !phase), NO_REASON);
                }
            }
        }
    }
}

enum SearchOutcome {
    Sat,
    Unsat,
    Restart,
    BudgetExhausted,
}

/// Luby restart sequence: 1, 1, 2, 1, 1, 2, 4, ...
fn luby(mut i: u64) -> u64 {
    loop {
        let mut k = 1u32;
        while (1u64 << k) - 1 < i + 1 {
            k += 1;
        }
        if (1u64 << k) - 1 == i + 1 {
            return 1u64 << (k - 1);
        }
        i -= (1u64 << (k - 1)) - 1;
    }
}

/// One heap entry: a variable and its activity as the key.
#[derive(Debug, Clone, Copy)]
struct HeapEntry {
    key: f64,
    var: u32,
}

/// Indexed binary max-heap over variable activities, each key stored
/// beside its variable. Every key equals the variable's entry in the
/// solver's activity array: inserts and updates copy it, and
/// [`VarHeap::rescale`] scales the keys with the array.
#[derive(Debug, Default)]
struct VarHeap {
    heap: Vec<HeapEntry>,
    pos: Vec<i32>,
}

impl VarHeap {
    fn with_capacity(vars: usize) -> Self {
        VarHeap {
            heap: Vec::with_capacity(vars),
            pos: Vec::with_capacity(vars),
        }
    }

    fn insert(&mut self, v: u32, key: f64) {
        while self.pos.len() <= v as usize {
            self.pos.push(-1);
        }
        if self.pos[v as usize] >= 0 {
            return;
        }
        self.pos[v as usize] = self.heap.len() as i32;
        self.heap.push(HeapEntry { key, var: v });
        self.sift_up(self.heap.len() - 1);
    }

    /// Raises `v`'s key to `key` (activities only grow between
    /// rescales).
    fn update(&mut self, v: u32, key: f64) {
        if (v as usize) < self.pos.len() && self.pos[v as usize] >= 0 {
            let i = self.pos[v as usize] as usize;
            self.heap[i].key = key;
            self.sift_up(i);
        }
    }

    /// Multiplies every key by `factor`, as the activities are.
    fn rescale(&mut self, factor: f64) {
        for entry in &mut self.heap {
            entry.key *= factor;
        }
    }

    fn pop_max(&mut self) -> Option<u32> {
        let last = self.heap.pop()?;
        let top = match self.heap.first_mut() {
            Some(first) => std::mem::replace(first, last),
            None => last,
        };
        self.pos[top.var as usize] = -1;
        if !self.heap.is_empty() {
            self.pos[last.var as usize] = 0;
            self.sift_down(0);
        }
        Some(top.var)
    }

    fn sift_up(&mut self, mut i: usize) {
        let entry = self.heap[i];
        while i > 0 {
            let p = (i - 1) / 2;
            if entry.key <= self.heap[p].key {
                break;
            }
            self.heap[i] = self.heap[p];
            self.pos[self.heap[i].var as usize] = i as i32;
            i = p;
        }
        self.heap[i] = entry;
        self.pos[entry.var as usize] = i as i32;
    }

    fn sift_down(&mut self, mut i: usize) {
        let entry = self.heap[i];
        let n = self.heap.len();
        loop {
            let l = 2 * i + 1;
            let r = 2 * i + 2;
            let mut best = i;
            let mut best_key = entry.key;
            if l < n && self.heap[l].key > best_key {
                best = l;
                best_key = self.heap[l].key;
            }
            if r < n && self.heap[r].key > best_key {
                best = r;
            }
            if best == i {
                break;
            }
            self.heap[i] = self.heap[best];
            self.pos[self.heap[i].var as usize] = i as i32;
            i = best;
        }
        self.heap[i] = entry;
        self.pos[entry.var as usize] = i as i32;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn vars(s: &mut Solver, n: usize) -> Vec<Lit> {
        (0..n).map(|_| s.new_var()).collect()
    }

    #[test]
    fn trivial_sat_and_unsat() {
        let mut s = Solver::new();
        let v = vars(&mut s, 2);
        s.add_clause(&[v[0], v[1]]);
        s.add_clause(&[!v[0], v[1]]);
        match s.solve(&[], 1_000) {
            SolveResult::Sat(m) => assert!(m.value(v[1])),
            other => panic!("expected SAT, got {other:?}"),
        }
        s.add_clause(&[!v[1]]);
        assert!(matches!(s.solve(&[], 1_000), SolveResult::Unsat));
    }

    #[test]
    fn constant_true_var_is_pinned() {
        let mut s = Solver::new();
        let t = s.true_lit();
        match s.solve(&[], 100) {
            SolveResult::Sat(m) => {
                assert!(m.value(t));
                assert!(!m.value(!t));
            }
            other => panic!("expected SAT, got {other:?}"),
        }
        // Assuming the false literal is immediately UNSAT.
        let f = s.false_lit();
        assert!(matches!(s.solve(&[f], 100), SolveResult::Unsat));
    }

    #[test]
    #[allow(clippy::needless_range_loop)] // j indexes every row of p
    fn pigeonhole_3_into_2_is_unsat() {
        // p[i][j]: pigeon i sits in hole j.
        let mut s = Solver::new();
        let p: Vec<Vec<Lit>> = (0..3).map(|_| vars(&mut s, 2)).collect();
        for row in &p {
            s.add_clause(&[row[0], row[1]]);
        }
        for j in 0..2 {
            for i in 0..3 {
                for k in (i + 1)..3 {
                    s.add_clause(&[!p[i][j], !p[k][j]]);
                }
            }
        }
        assert!(matches!(s.solve(&[], 100_000), SolveResult::Unsat));
    }

    #[test]
    fn assumptions_are_incremental() {
        let mut s = Solver::new();
        let v = vars(&mut s, 3);
        // v0 -> v1, v1 -> v2
        s.add_clause(&[!v[0], v[1]]);
        s.add_clause(&[!v[1], v[2]]);
        match s.solve(&[v[0], !v[2]], 10_000) {
            SolveResult::Unsat => {}
            other => panic!("expected UNSAT under assumptions, got {other:?}"),
        }
        // Same solver, compatible assumptions: still SAT.
        match s.solve(&[v[0], v[2]], 10_000) {
            SolveResult::Sat(m) => {
                assert!(m.value(v[0]) && m.value(v[1]) && m.value(v[2]));
            }
            other => panic!("expected SAT, got {other:?}"),
        }
    }

    #[test]
    fn duplicate_and_tautological_clauses_are_normalized() {
        let mut s = Solver::new();
        let v = vars(&mut s, 2);
        s.add_clause(&[v[0], v[0], v[1]]);
        s.add_clause(&[v[0], !v[0]]); // tautology: dropped
        s.add_clause(&[!v[0]]);
        match s.solve(&[], 1_000) {
            SolveResult::Sat(m) => {
                assert!(!m.value(v[0]));
                assert!(m.value(v[1]));
            }
            other => panic!("expected SAT, got {other:?}"),
        }
    }

    #[test]
    #[allow(clippy::needless_range_loop)] // j indexes every row of p
    fn conflict_budget_returns_unknown() {
        // A hard instance (pigeonhole 7 into 6) with a 1-conflict
        // budget must come back Unknown, not loop or lie.
        let n = 7;
        let mut s = Solver::new();
        let p: Vec<Vec<Lit>> = (0..n).map(|_| vars(&mut s, n - 1)).collect();
        for row in &p {
            s.add_clause(&row.clone());
        }
        for j in 0..n - 1 {
            for i in 0..n {
                for k in (i + 1)..n {
                    s.add_clause(&[!p[i][j], !p[k][j]]);
                }
            }
        }
        assert!(matches!(s.solve(&[], 1), SolveResult::Unknown));
        // With a real budget it resolves to UNSAT.
        assert!(matches!(s.solve(&[], 2_000_000), SolveResult::Unsat));
    }

    #[test]
    fn random_3sat_models_satisfy_all_clauses() {
        // Deterministic xorshift stream; low clause density => SAT.
        let mut state = 0x1234_5678_9abc_def0u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for round in 0..10 {
            let nv = 30;
            let nc = 60 + round * 5;
            let mut s = Solver::new();
            let v = vars(&mut s, nv);
            let mut cls: Vec<Vec<Lit>> = Vec::new();
            for _ in 0..nc {
                let mut c = Vec::new();
                for _ in 0..3 {
                    let var = (next() % nv as u64) as usize;
                    let neg = next() & 1 == 1;
                    c.push(if neg { !v[var] } else { v[var] });
                }
                cls.push(c.clone());
                s.add_clause(&c);
            }
            if let SolveResult::Sat(m) = s.solve(&[], 1_000_000) {
                for c in &cls {
                    assert!(c.iter().any(|&l| m.value(l)), "model violates clause {c:?}");
                }
            }
        }
    }

    /// Checks the arena against the watch lists: each clause's header
    /// carries the next index and the clause has an activity, and each
    /// clause is watched exactly twice, on its first two literals; a
    /// binary clause's watchers are tagged and blocked by its other
    /// literal.
    fn check_layout(s: &Solver) {
        let mut clauses = HashMap::new();
        let (mut at, mut index) = (0, 0);
        while at < s.arena.len() {
            assert_eq!(s.arena[at + 1], index, "index of the clause at word {at}");
            let len = (s.arena[at] >> 1) as usize;
            assert!(len >= 2, "clause at word {at} has {len} literals");
            clauses.insert((at + HEADER) as u32, 0);
            at += HEADER + len;
            index += 1;
        }
        assert_eq!(at, s.arena.len());
        assert_eq!(s.clause_activity.len(), index as usize);
        for (code, span) in s.watches.spans.iter().enumerate() {
            for w in &s.watches.words[span.start as usize..][..span.len as usize] {
                let offset = w.clause & !BINARY;
                *clauses.get_mut(&offset).expect("a watcher names a clause") += 1;
                let lits = s.lits(offset);
                let at = lits[..2].iter().position(|&l| l as usize == code);
                let at = at.expect("a clause is watched on its first two literals");
                assert_eq!(w.clause & BINARY != 0, lits.len() == 2);
                if lits.len() == 2 {
                    assert_eq!(
                        w.blocker.0,
                        lits[1 - at],
                        "a binary blocker is the other literal"
                    );
                }
            }
        }
        assert!(
            clauses.values().all(|&n| n == 2),
            "every clause is watched twice"
        );
    }

    /// Every assignment of variables `1..=n` (bit `v − 1` is variable
    /// `v`) that satisfies `clauses`.
    fn brute_force(n: u32, clauses: &[Vec<Lit>]) -> Vec<u32> {
        (0u32..1 << n)
            .filter(|&m| clauses.iter().all(|c| c.iter().any(|&l| satisfies(m, l))))
            .collect()
    }

    fn satisfies(assignment: u32, l: Lit) -> bool {
        (assignment >> (l.var() - 1) & 1 == 1) ^ l.is_neg()
    }

    #[test]
    #[allow(clippy::needless_range_loop)] // j indexes every row of p
    fn reduce_db_compaction_keeps_verdicts_and_models() {
        // Pigeonhole 7 into 6 learns long clauses; a low cap reduces them
        // at its restarts, mid-search.
        let n = 7;
        let mut s = Solver::new();
        s.learned_cap = 20;
        let p: Vec<Vec<Lit>> = (0..n).map(|_| vars(&mut s, n - 1)).collect();
        for row in &p {
            s.add_clause(row);
        }
        for j in 0..n - 1 {
            for i in 0..n {
                for k in (i + 1)..n {
                    s.add_clause(&[!p[i][j], !p[k][j]]);
                }
            }
        }
        assert!(matches!(s.solve(&[], 2_000_000), SolveResult::Unsat));
        assert!(s.stats().reductions >= 3, "{:?}", s.stats());
        check_layout(&s);

        // Random 3-SAT over 14 variables near the threshold, restarting
        // at every conflict so that instances this small reduce too; each
        // is solved again under assumptions over the reduced database. Some
        // of these reductions propagate a learned unit into a conflict
        // while rebuilding the watches; that must end the solve as UNSAT,
        // or the search goes on and returns a model that breaks a clause.
        let mut state = 0x0DDB_A11C_0FFE_E123u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let (mut reductions, mut several, mut sat, mut unsat) = (0, 0, 0, 0);
        for round in 0..200 {
            let nv = 14;
            let mut s = Solver::new();
            s.learned_cap = 0;
            s.restart_unit = 1;
            let v = vars(&mut s, nv);
            let mut cls: Vec<Vec<Lit>> = Vec::new();
            for _ in 0..56 + round % 12 {
                let c: Vec<Lit> = (0..3)
                    .map(|_| {
                        let var = v[(next() % nv as u64) as usize];
                        if next() & 1 == 1 {
                            !var
                        } else {
                            var
                        }
                    })
                    .collect();
                s.add_clause(&c);
                cls.push(c);
            }
            let models = brute_force(nv as u32, &cls);
            let cubes = [
                vec![],
                vec![v[0], !v[1]],
                vec![!v[2]],
                vec![v[3], v[4], !v[5]],
            ];
            for cube in &cubes {
                let truth = models
                    .iter()
                    .any(|&m| cube.iter().all(|&l| satisfies(m, l)));
                match s.solve(cube, 1_000_000) {
                    SolveResult::Sat(m) => {
                        for c in &cls {
                            assert!(
                                c.iter().any(|&l| m.value(l)),
                                "round {round}: model violates {c:?}"
                            );
                        }
                        assert!(
                            cube.iter().all(|&l| m.value(l)),
                            "round {round}: model breaks {cube:?}"
                        );
                        assert!(
                            truth,
                            "round {round}: SAT under {cube:?}, but no assignment is"
                        );
                        sat += 1;
                    }
                    SolveResult::Unsat => {
                        assert!(
                            !truth,
                            "round {round}: UNSAT under {cube:?}, but satisfiable"
                        );
                        unsat += 1;
                    }
                    SolveResult::Unknown => panic!("round {round}: budget exhausted"),
                }
                check_layout(&s);
            }
            reductions += s.stats().reductions;
            several += u32::from(s.stats().reductions >= 3);
        }
        assert!(
            reductions >= 150,
            "{reductions} reductions over 200 instances"
        );
        assert!(
            several >= 20,
            "{several} instances reduced three times or more"
        );
        assert!(sat > 0 && unsat > 0, "{sat} SAT and {unsat} UNSAT answers");
    }

    #[test]
    fn luby_sequence_prefix() {
        let got: Vec<u64> = (0..9).map(luby).collect();
        assert_eq!(got, vec![1, 1, 2, 1, 1, 2, 4, 1, 1]);
    }
}
