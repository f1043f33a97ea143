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

#[derive(Debug, Clone, Copy)]
struct Watch {
    clause: u32,
    blocker: Lit,
}

/// A clause's header: its literals are `arena[start..start + len]`.
#[derive(Debug, Clone, Copy)]
struct Clause {
    start: u32,
    len: u32,
    learned: bool,
    activity: f64,
}

impl Clause {
    fn range(self) -> std::ops::Range<usize> {
        self.start as usize..(self.start + self.len) as usize
    }
}

const NO_REASON: u32 = u32::MAX;
const VALUE_UNDEF: i8 = 0;

/// The CDCL solver. See the [module docs](self) for the feature set.
#[derive(Debug)]
pub struct Solver {
    clauses: Vec<Clause>,
    /// Every clause's literals, back to back in clause order.
    arena: Vec<Lit>,
    watches: Vec<Vec<Watch>>,
    assigns: Vec<i8>,
    level: Vec<u32>,
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
    learned_cap: u64,
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

impl Solver {
    /// Creates a solver with the constant-`true` variable pre-pinned.
    #[must_use]
    pub fn new() -> Self {
        let mut s = Solver {
            clauses: Vec::new(),
            arena: Vec::new(),
            watches: Vec::new(),
            assigns: Vec::new(),
            level: Vec::new(),
            reason: Vec::new(),
            trail: Vec::new(),
            trail_lim: Vec::new(),
            qhead: 0,
            activity: Vec::new(),
            var_inc: 1.0,
            cla_inc: 1.0,
            heap: VarHeap::new(),
            phase: Vec::new(),
            seen: Vec::new(),
            ok: true,
            stats: SolverStats::default(),
            learned_cap: 20_000,
            cache: HashMap::new(),
            learnt: Vec::new(),
            to_clear: Vec::new(),
            normalized: Vec::new(),
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
        self.assigns.len() as u32
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
        let v = self.assigns.len() as u32;
        self.assigns.push(VALUE_UNDEF);
        self.level.push(0);
        self.reason.push(NO_REASON);
        self.activity.push(0.0);
        self.phase.push(false);
        self.seen.push(false);
        self.watches.push(Vec::new());
        self.watches.push(Vec::new());
        self.heap.insert(v, &self.activity);
        Lit::new(v, false)
    }

    fn value_lit(&self, l: Lit) -> i8 {
        lit_value(&self.assigns, l)
    }

    /// Stores a clause of two or more literals and watches its first
    /// two; returns its index.
    fn attach(&mut self, lits: &[Lit], learned: bool, activity: f64) -> u32 {
        let idx = self.clauses.len() as u32;
        self.watches[lits[0].code()].push(Watch {
            clause: idx,
            blocker: lits[1],
        });
        self.watches[lits[1].code()].push(Watch {
            clause: idx,
            blocker: lits[0],
        });
        self.clauses.push(Clause {
            start: self.arena.len() as u32,
            len: lits.len() as u32,
            learned,
            activity,
        });
        self.arena.extend_from_slice(lits);
        idx
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
        debug_assert_eq!(self.assigns[v], VALUE_UNDEF);
        self.assigns[v] = if l.is_neg() { -1 } else { 1 };
        self.phase[v] = !l.is_neg();
        self.level[v] = self.decision_level();
        self.reason[v] = reason;
        self.trail.push(l);
    }

    /// Propagates to fixpoint; returns a conflicting clause index.
    fn propagate(&mut self) -> Option<u32> {
        while self.qhead < self.trail.len() {
            let p = self.trail[self.qhead];
            self.qhead += 1;
            self.stats.propagations += 1;
            let false_lit = !p;
            let mut ws = std::mem::take(&mut self.watches[false_lit.code()]);
            let mut i = 0;
            'watchers: while i < ws.len() {
                let w = ws[i];
                if self.value_lit(w.blocker) == 1 {
                    i += 1;
                    continue;
                }
                let lits = &mut self.arena[self.clauses[w.clause as usize].range()];
                if lits[0] == false_lit {
                    lits.swap(0, 1);
                }
                debug_assert_eq!(lits[1], false_lit);
                let first = lits[0];
                if first != w.blocker && lit_value(&self.assigns, first) == 1 {
                    ws[i] = Watch {
                        clause: w.clause,
                        blocker: first,
                    };
                    i += 1;
                    continue;
                }
                for k in 2..lits.len() {
                    let lk = lits[k];
                    if lit_value(&self.assigns, lk) != -1 {
                        lits.swap(1, k);
                        self.watches[lk.code()].push(Watch {
                            clause: w.clause,
                            blocker: first,
                        });
                        ws.swap_remove(i);
                        continue 'watchers;
                    }
                }
                // No replacement watch: unit or conflict.
                if self.value_lit(first) == -1 {
                    self.watches[false_lit.code()] = ws;
                    self.qhead = self.trail.len();
                    return Some(w.clause);
                }
                self.enqueue(first, w.clause);
                i += 1;
            }
            self.watches[false_lit.code()] = ws;
        }
        None
    }

    fn backtrack(&mut self, target: u32) {
        while self.decision_level() > target {
            let bound = self.trail_lim.pop().expect("level > 0 has a bound");
            while self.trail.len() > bound {
                let l = self.trail.pop().expect("non-empty trail");
                let v = l.var() as usize;
                self.assigns[v] = VALUE_UNDEF;
                self.reason[v] = NO_REASON;
                self.heap.insert(v as u32, &self.activity);
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
            self.var_inc *= 1e-100;
        }
        self.heap.update(v, &self.activity);
    }

    fn clause_bump(&mut self, ci: usize) {
        let c = &mut self.clauses[ci];
        c.activity += self.cla_inc;
        if c.activity > 1e20 {
            for cl in &mut self.clauses {
                cl.activity *= 1e-20;
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
        let mut confl = conflict;
        loop {
            if self.clauses[confl as usize].learned {
                self.clause_bump(confl as usize);
            }
            let range = self.clauses[confl as usize].range();
            for j in range.start + usize::from(p.is_some())..range.end {
                let q = self.arena[j];
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
            confl = self.reason[pl.var() as usize];
            debug_assert_ne!(confl, NO_REASON, "interior UIP-path literal has a reason");
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
        self.arena[self.clauses[r as usize].range()]
            .iter()
            .skip(1)
            .all(|&l| self.seen[l.var() as usize] || self.level[l.var() as usize] == 0)
    }

    /// Adds `self.learnt` and asserts its first literal.
    fn learn(&mut self) {
        self.stats.conflicts += 1;
        let assert_lit = self.learnt[0];
        if self.learnt.len() == 1 {
            self.enqueue(assert_lit, NO_REASON);
        } else {
            let learnt = std::mem::take(&mut self.learnt);
            let idx = self.attach(&learnt, true, self.cla_inc);
            self.learnt = learnt;
            self.stats.learned += 1;
            self.enqueue(assert_lit, idx);
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
        let mut acts: Vec<f64> = self
            .clauses
            .iter()
            .filter(|c| c.learned && c.len > 2)
            .map(|c| c.activity)
            .collect();
        if acts.is_empty() {
            return;
        }
        acts.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
        let median = acts[acts.len() / 2];
        // Compact in place: kept clauses keep their order, and their
        // literals only ever move towards the front of the arena.
        let mut kept = 0;
        let mut end = 0;
        for ci in 0..self.clauses.len() {
            let c = self.clauses[ci];
            if c.learned && c.len > 2 && c.activity < median {
                continue;
            }
            self.arena.copy_within(c.range(), end);
            self.clauses[kept] = Clause {
                start: end as u32,
                ..c
            };
            kept += 1;
            end += c.len as usize;
        }
        self.clauses.truncate(kept);
        self.arena.truncate(end);
        self.stats.learned = self.clauses.iter().filter(|c| c.learned).count() as u64;
        self.rebuild_watches();
    }

    /// Reconstructs all watch lists from scratch (level 0 only).
    fn rebuild_watches(&mut self) {
        for w in &mut self.watches {
            w.clear();
        }
        let mut units: Vec<Lit> = Vec::new();
        for (idx, c) in self.clauses.iter().enumerate() {
            let lits = &mut self.arena[c.range()];
            // Prefer watching non-false literals.
            let mut front = 0;
            for k in 0..lits.len() {
                if lit_value(&self.assigns, lits[k]) != -1 {
                    lits.swap(front, k);
                    front += 1;
                    if front == 2 {
                        break;
                    }
                }
            }
            if front == 1 {
                if lit_value(&self.assigns, lits[0]) == 0 {
                    units.push(lits[0]);
                }
            } else if front == 0 {
                self.ok = false;
            }
            self.watches[lits[0].code()].push(Watch {
                clause: idx as u32,
                blocker: lits[1 % lits.len().max(1)],
            });
            if lits.len() > 1 {
                self.watches[lits[1].code()].push(Watch {
                    clause: idx as u32,
                    blocker: lits[0],
                });
            }
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
            let restart_budget = 128 * luby(restart_idx);
            match self.search(assumptions, restart_budget, budget_end) {
                SearchOutcome::Sat => {
                    let values: Vec<bool> = self.assigns.iter().map(|&a| a == 1).collect();
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
                match self.heap.pop_max(&self.activity) {
                    Some(v) => {
                        if self.assigns[v as usize] == VALUE_UNDEF {
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

/// Value of `l` under `assigns`: 1 true, -1 false, 0 unassigned. A free
/// function so loops can hold a clause's arena slice mutably while
/// reading assignments.
fn lit_value(assigns: &[i8], l: Lit) -> i8 {
    let v = assigns[l.var() as usize];
    if l.is_neg() {
        -v
    } else {
        v
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

/// Indexed binary max-heap over variable activities.
#[derive(Debug, Default)]
struct VarHeap {
    heap: Vec<u32>,
    pos: Vec<i32>,
}

impl VarHeap {
    fn new() -> Self {
        VarHeap::default()
    }

    fn insert(&mut self, v: u32, act: &[f64]) {
        while self.pos.len() <= v as usize {
            self.pos.push(-1);
        }
        if self.pos[v as usize] >= 0 {
            return;
        }
        self.pos[v as usize] = self.heap.len() as i32;
        self.heap.push(v);
        self.sift_up(self.heap.len() - 1, act);
    }

    fn update(&mut self, v: u32, act: &[f64]) {
        if (v as usize) < self.pos.len() && self.pos[v as usize] >= 0 {
            self.sift_up(self.pos[v as usize] as usize, act);
        }
    }

    fn pop_max(&mut self, act: &[f64]) -> Option<u32> {
        if self.heap.is_empty() {
            return None;
        }
        let top = self.heap[0];
        let last = self.heap.pop().expect("non-empty");
        self.pos[top as usize] = -1;
        if !self.heap.is_empty() {
            self.heap[0] = last;
            self.pos[last as usize] = 0;
            self.sift_down(0, act);
        }
        Some(top)
    }

    fn sift_up(&mut self, mut i: usize, act: &[f64]) {
        while i > 0 {
            let p = (i - 1) / 2;
            if act[self.heap[i] as usize] <= act[self.heap[p] as usize] {
                break;
            }
            self.swap(i, p);
            i = p;
        }
    }

    fn sift_down(&mut self, mut i: usize, act: &[f64]) {
        loop {
            let l = 2 * i + 1;
            let r = 2 * i + 2;
            let mut best = i;
            if l < self.heap.len() && act[self.heap[l] as usize] > act[self.heap[best] as usize] {
                best = l;
            }
            if r < self.heap.len() && act[self.heap[r] as usize] > act[self.heap[best] as usize] {
                best = r;
            }
            if best == i {
                break;
            }
            self.swap(i, best);
            i = best;
        }
    }

    fn swap(&mut self, i: usize, j: usize) {
        self.heap.swap(i, j);
        self.pos[self.heap[i] as usize] = i as i32;
        self.pos[self.heap[j] as usize] = j as i32;
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

    #[test]
    fn luby_sequence_prefix() {
        let got: Vec<u64> = (0..9).map(luby).collect();
        assert_eq!(got, vec![1, 1, 2, 1, 1, 2, 4, 1, 1]);
    }
}
